(** Extended distances: non-negative integers plus infinity.

    Distances are stored as native [int]s with a large sentinel for
    "unreachable", so distance arrays stay unboxed. All arithmetic
    saturates at infinity. The sentinel leaves ample headroom:
    [inf = max_int / 4], and legal finite distances in this code base
    are bounded by [n * W] which is far smaller. *)

type t = int

val inf : t
val is_inf : t -> bool
val is_finite : t -> bool

val add : t -> t -> t
(** Saturating addition: [add inf _ = inf]. Arguments must be
    non-negative. *)

val min : t -> t -> t
val compare : t -> t -> int

val to_int_exn : t -> int
(** Raises [Invalid_argument] on infinity. *)

val to_string : t -> string
(** ["inf"] or the decimal value. *)

val scale_up_exn : t -> int -> t
(** [scale_up_exn d c] is [d * c] for finite [d]; [inf] stays [inf].
    Used when mapping overlay distances back to original weights. *)
