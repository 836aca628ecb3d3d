(** The seed engine round loop, kept as an executable specification.

    Same signature and — by the golden-equivalence tests in
    test_congest.ml — bit-identical observable behavior (final states,
    trace, and full event stream) to {!Congest.Engine.run}, but built
    on the original Hashtbl/cons-list data structures.
    {!Congest.Engine.run} is the optimized production loop; this module
    exists so the optimization stays checkable (QCheck compares the two
    on every scenario class). *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?faults:Congest.Fault.t ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  ('s, 'm) Congest.Engine.protocol ->
  's array * Congest.Engine.trace
(** See {!Congest.Engine.run} for the full contract. *)
