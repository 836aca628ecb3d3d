(** One JSON value: the tree every artifact is built as, its parser,
    and the one printer.

    Writers build a {!t} with the builders below and print it once,
    where the bytes are written; readers {!parse} it back. The grammar
    is RFC 8259 with two deliberate simplifications: numbers are OCaml
    [float]s (so an integer is exact only below 2^53 in magnitude),
    and trailing bytes after the top-level value are an error. The
    parser is strict where a lax reading would change a value: a
    [\u] escape takes exactly four hex digits, a numeral that
    overflows float64 is refused (it would read as an infinity and
    print back as [0]), and a raw control byte (below [0x20]) inside a
    string is refused, as RFC 8259 §7 requires. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Fields in source order. *)

(** {1 Builders} *)

val str : string -> t
val int : int -> t
(** [Num (float_of_int i)]: exact when [|i| < 2^53]; a larger [i] is
    rounded like any float, and {!to_int_opt} refuses it on the way
    back. *)

val float : float -> t
val bool : bool -> t
val obj : (string * t) list -> t
val arr : t list -> t

(** {1 Printing} *)

val print : t -> string
(** Compact rendering, object fields in stored order. Strings escape
    the double quote, the backslash, newline, carriage return and tab
    by name and every other byte below [0x20] as a [\u] escape; all
    other bytes pass through.
    Numbers follow one rule: an integer below 2^53 in magnitude prints
    every digit ([-0.0] prints as [-0]); any other finite value is
    rounded to 9 significant digits and prints at [%.9g], unless that
    rounding is itself an integer below 2^53 (a value of 1e9 or more),
    which then prints every digit; NaN and the infinities print as [0].
    So [print (parse_exn (print v)) = print v] for every [v]. *)

(** {1 Parsing} *)

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
