(** Flat binary min-heap of native [int]s.

    Backing store is a single unboxed [int array]; comparisons are
    direct machine comparisons (no closure, no polymorphic [compare]).
    Duplicates are allowed — the engine's event calendar pushes a round
    whenever a bucket is created and discards stale entries lazily on
    the way out. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty heap; [capacity] (default 16) is the initial backing size. *)

val is_empty : t -> bool
val size : t -> int

val push : t -> int -> unit

val peek : t -> int option
(** Smallest element without removing it. *)

val pop : t -> int option
(** Remove and return the smallest element. *)

val pop_exn : t -> int
(** Allocation-free [pop]. Raises [Invalid_argument] on an empty
    heap. *)

val sort : int array -> int -> unit
(** [sort a k] sorts [a.(0 .. k - 1)] ascending in place and leaves
    the rest of [a] as it is: a heap sort, O(k log k) at every [k],
    with plain int comparisons and no allocation. Raises
    [Invalid_argument] unless [0 <= k <= Array.length a]. *)
