(** CONGEST-legality auditor over telemetry event streams.

    The engine {e promises} the CONGEST model: every message crosses a
    real edge of the input graph, per-directed-edge per-round load
    stays within the declared word budget (the model's
    [O(log n)]-bit-per-edge-per-round bandwidth [B]), and the
    end-of-run trace counters are a pure function of the emitted event
    stream. This module re-derives all three from the stream alone —
    an independent observer holding any [Engine.run] to the model's
    rules, rather than the engine grading its own homework.

    Violation codes: [non-edge-message] (a message between
    non-adjacent nodes, or out-of-range/self endpoints),
    [empty-message] (size below 1 word), [edge-overload] (an
    edge-round whose load exceeds the segment's declared bandwidth;
    one violation per edge-round), [round-order] (non-increasing
    [Round_start] rounds within a segment), [unterminated-segment]
    (a [Run_start] without a matching [Run_end]),
    [wrong-network-size] ([Run_start.n] differs from the audited
    graph), and [replay-mismatch] (the stream does not reconstruct the
    recorded trace counters). *)

val audit_events :
  ?trace:Congest.Engine.trace ->
  graph:Graphlib.Wgraph.t ->
  Telemetry.Events.t list ->
  Report.certificate
(** Audit a stream (possibly multi-segment, as emitted by multi-phase
    drivers with one sink attached throughout). [?trace] additionally
    enforces replay consistency against the trace the driver returned.
    An empty stream is [Inconclusive]. Overload accounting uses each
    segment's own [Run_start] bandwidth. *)
