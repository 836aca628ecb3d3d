(** The seed engine round loop, kept as an executable specification.

    Same signature and — by the golden-equivalence property in the
    test suite — bit-identical observable behavior (final states,
    trace, and full event stream) to {!Engine.run}, but built on the
    original Hashtbl/cons-list data structures. {!Engine.run} is the
    optimized production loop; this module exists so the optimization
    stays checkable (QCheck compares the two on every scenario class)
    and measurable (the [perf] bench section reports the before/after
    trajectory in [BENCH_engine.json]). *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?faults:Fault.t ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  ('s, 'm) Engine.protocol ->
  's array * Engine.trace
(** See {!Engine.run} for the full contract. *)
