(** Plain-text table rendering for the benchmark harness.

    Produces the aligned, pipe-separated tables that [bench/main.exe]
    prints, such as the paper's Table 1 and Table 2. *)

type align = Left | Right

type t

val create : headers:string list -> t
val create_aligned : headers:(string * align) list -> t
val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header
    width. *)

val render : t -> string
val print : t -> unit
(** [render] followed by [print_string]. *)

val cell_bool : bool -> string
