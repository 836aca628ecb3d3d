(** Phase accounting for multi-phase algorithms.

    The paper's algorithms (like Nanongkai's) are sequences of
    protocols whose phase boundaries depend only on publicly known
    parameters. The runner records each phase's measured trace and
    reports the summed round complexity with a per-phase breakdown.

    Phases run through {!time_phase} additionally become {e spans}:
    wall-clock time is captured via {!Telemetry.Clock} and, when a
    sink is attached, [Span_begin]/[Span_end] events bracket the
    phase's event stream (with cumulative simulated rounds as the span
    boundaries), which the Chrome-trace exporter turns into nested
    timeline bars. *)

type t

val create : ?clock:Telemetry.Clock.t -> ?sink:Telemetry.Events.sink -> unit -> t
(** [clock] defaults to the wall clock; [sink], when given, receives
    the span events emitted by {!time_phase}. *)

val record : ?wall_s:float -> t -> string -> Engine.trace -> unit
(** Append a phase. Phases with the same name accumulate.
    [wall_s] (default 0) is the phase's wall-clock cost if the caller
    measured one. *)

val run_phase : t -> string -> ('a * Engine.trace) -> 'a
(** Convenience: record the trace, return the value. *)

val time_phase : t -> string -> (unit -> 'a * Engine.trace) -> 'a
(** Like {!run_phase}, but runs the thunk inside a span: wall time is
    measured on the runner's clock and span events are emitted to the
    runner's sink (if any). *)

val rounds : t -> int
val total : t -> Engine.trace

val wall_seconds : t -> float
(** Summed wall-clock time of all recorded phases. *)

val phases : t -> (string * Engine.trace) list
(** In execution order (same-name phases merged at first position). *)

val spans : t -> (string * Engine.trace * float) list
(** {!phases} with each phase's accumulated wall seconds. *)

val export_metrics : ?prefix:string -> t -> Telemetry.Metrics.t -> unit
(** Export the totals into a metrics registry under [prefix]
    (default ["congest"]): counters [<prefix>.rounds], [.messages],
    [.words], [.activations], [.congestion_violations], [.dropped],
    [.delayed], [.duplicated]; gauges [.max_edge_load], [.crashed] and
    [.wall_s]; plus per-phase [<prefix>.phase.<name>.rounds] /
    [.messages] counters and [.wall_s] gauges. *)

val to_json : t -> string
(** [{"phases":[{"name":..., "wall_s":..., "trace":{...}}, ...],
     "wall_s":..., "total":{...}}] — each phase trace carries the full
    accounting, including the fault counters
    (dropped/delayed/duplicated/crashed), so per-phase fault
    statistics survive into machine-readable artifacts. *)

val pp : Format.formatter -> t -> unit
(** Per-phase breakdown plus a TOTAL line; traces with fault activity
    render their fault counters. *)
