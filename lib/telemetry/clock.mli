(** Wall-clock source for span profiling.

    A clock is just a function returning seconds. The real clock counts
    them from program start; [manual] gives tests a deterministic clock
    they advance by hand, so span durations can be asserted exactly. *)

type t

val wall : t
(** The process wall clock: [Unix.gettimeofday] seconds since program
    start, so a reading prints to the microsecond at 9 significant
    digits for the first 1000 s. *)

val fixed : float -> t
(** Always returns the given instant (spans measure 0). *)

val manual : ?start:float -> unit -> t * (float -> unit)
(** [manual ()] returns a clock plus an [advance] function adding the
    given number of seconds to it. *)

val now : t -> float
(** Current time in seconds. The epoch is clock-specific; only
    differences are meaningful. *)
