(** FNV-1a 64-bit content hashing.

    One implementation shared by {!Spec} (content-addressed job ids)
    and {!Store} (per-row checksums), so the two can never drift. Not
    cryptographic — it detects corruption, not tampering. *)

val hex64 : string -> string
(** FNV-1a over the raw bytes, rendered as 16 lowercase hex digits
    (zero-padded). *)
