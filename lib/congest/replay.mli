(** Reconstruct engine trace counters from an emitted event stream.

    The {!Telemetry.Events} stream an {!Engine.run} emits is complete:
    every counter in the returned {!Engine.trace} is a pure function
    of it. [trace_of_events] is that function — the executable
    specification of the event schema, pinned against the engine by a
    property test. If the two ever disagree, either the engine stopped
    emitting an event it must, or the schema's meaning drifted. *)

val segments : Telemetry.Events.t list -> Telemetry.Events.t list list
(** Split a stream into its engine-execution segments: a new segment
    opens at every [Run_start]; events preceding the first [Run_start]
    (span markers from multi-phase drivers) form a leading segment of
    their own when present. Concatenating the result gives back the
    input. The per-segment view is what [Check.Congest_audit] iterates
    over to hold each execution to its own declared bandwidth. *)

val span_slice : string -> Telemetry.Events.t list -> Telemetry.Events.t list
(** [span_slice name events] is one phase's slice of a multi-phase
    driver's stream: the events strictly between the first
    [Span_begin] named [name] and the next [Span_end] of that name (to
    the end of the stream if it never closes; [[]] if it never opens).
    A phase's slice replays through {!trace_of_events} to the trace
    that phase returned, which [qcongest trace] checks per phase. *)

val trace_of_events : ?bandwidth:int -> Telemetry.Events.t list -> Engine.trace
(** Replay a stream and return the trace it implies.

    The stream may contain several engine executions (segments opened
    by [Run_start], as produced by multi-phase drivers like
    {!Tree.build} with one sink attached throughout); segment traces
    are combined with {!Engine.add_traces}, matching what the drivers
    return. Span events are ignored. [?bandwidth] (default 1) is only
    used for events preceding any [Run_start]; within a segment the
    [Run_start] bandwidth governs the congestion-violation
    reconstruction. *)
