(** Chaos-injection certifier for the supervised execution layer.

    Two certificates, each staging a real failure in a throwaway
    directory and checking the supervision invariants end to end:

    - {b chaos-resume} — a sweep is killed mid-batch and its
      checkpoint store corrupted in place (one row bit-flipped, one
      foreign line spliced in, the trailing row truncated mid-write).
      Reloading must quarantine the two damaged lines to the corrupt
      sibling, keep the intact row, drop only the partial tail, and a
      resume must produce a report byte-identical to an uninterrupted
      run's, losing no row.
    - {b chaos-deadline} — a never-terminating protocol is planted
      both directly under {!Congest.Engine.run} (the cooperative
      [?deadline] must raise within tolerance of its budget) and as a
      sweep job (which must settle as a [status:"timeout"] row with
      the sweep completing around it). The victim is its series' only
      job at one size, so the report must count it as a timeout (none
      missing) and the series must be [degraded], with fit gates over
      it Inconclusive (exit 3) rather than a verdict.

    [negative_control] arms one sabotage per certificate — a silently
    deleted row, a supervisor that forgot the deadline — so the audit
    must Fail; [check chaos --negative-control] proves the suite can
    reject. *)

val certify :
  ?seed:int ->
  ?deadline_s:float ->
  ?negative_control:bool ->
  unit ->
  Report.certificate list
(** Run both chaos certificates. [seed] (default 11) seeds the
    staged sweeps; [deadline_s] (default 0.05) is the wall-clock
    budget given to the planted infinite jobs. *)
