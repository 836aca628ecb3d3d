(** Indexed binary min-heap over integer keys with [int] priorities.

    Keys are [0 .. n-1], each present at most once, with
    [insert_or_decrease] in O(log n). All state lives in three flat
    [int array]s, and every comparison is a direct machine comparison —
    no closure call, no tuple boxing, no polymorphic [compare]. This is
    the Dijkstra hot path. *)

type t

val create : n:int -> t
(** Queue over the key space [0 .. n-1]. *)

val is_empty : t -> bool
val size : t -> int
val mem : t -> int -> bool

val insert : t -> key:int -> prio:int -> unit
(** Raises [Invalid_argument] if the key is present or out of range. *)

val insert_or_decrease : t -> key:int -> prio:int -> unit
(** Insert, or lower the priority; keeps the smaller priority. *)

val pop_min : t -> (int * int) option
(** Remove and return a [(key, priority)] of minimum priority. *)

val priority : t -> int -> int option
