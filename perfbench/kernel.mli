(** The benchmark's reference kernel: a fixed, deterministic piece of
    work whose wall time tracks how fast this host runs OCaml code
    like the simulator's right now.

    It mixes the simulator's three kinds of work in equal measure:
    dependent loads over a 2 MiB working set (adjacency and queue
    chasing), hash-table updates with short-lived small blocks (engine
    inboxes and node states), and dependent integer arithmetic. It uses
    nothing from the repository's libraries and runs on the calling
    domain, so a change to the program can never change it. Do not
    edit it: every corrected time in the benchmark's history is scaled
    by it. *)

val nominal_unit_s : float
(** Wall seconds one {!run} takes on the reference host when it is
    quiet. Corrected times are expressed in reference-host seconds. *)

val run : unit -> float
(** Run one unit of the kernel and return its wall seconds. *)
