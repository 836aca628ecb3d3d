(** Minimal JSON values and a recursive-descent parser.

    The telemetry layer only ever {e emits} JSON ({!Telemetry.Tjson});
    the sweep harness also has to {e read} it back — spec files,
    checkpoint rows, reports — so this module adds the inverse without
    pulling in a third-party dependency. The grammar is standard JSON
    (RFC 8259) minus two deliberate simplifications: numbers are
    parsed as OCaml [float]s (every integer the harness serializes is
    well below 2^53, so round-trips are exact), and the parser rejects
    trailing garbage after the top-level value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Fields in source order. *)

val parse : string -> (t, string) result
(** [Error msg] carries a byte offset and a short description. *)

val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other shapes or a missing key. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [Num f] when [f] is integral and exactly representable, i.e.
    [|f| < 2^53]. Beyond that a float64 numeral no longer determines a
    unique integer (e.g. [2^53] and [2^53 + 1] parse to the same
    float), so [None] is returned instead of a silently rounded
    value. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

val print : t -> string
(** Compact canonical rendering (object fields in stored order,
    strings escaped via {!Telemetry.Tjson.str}). [print] and
    {!parse} are mutually inverse up to float formatting. *)
