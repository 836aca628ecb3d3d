(** Sweep execution: pending jobs over {!Util.Domain_pool}, one
    checkpoint row per job, deterministic reports — supervised.

    Each job is a pure function of its {!Spec.job} cell (all
    randomness comes from RNGs seeded by the cell), so results are
    independent of the domain count, batch boundaries, and of whether
    the sweep ran in one shot or was killed and resumed — the
    property the kill-and-resume QCheck test pins byte-for-byte.

    Failure isolation and supervision: each job runs once and settles
    as one row in the checkpoint store. A job that raises — including
    a structured {!Congest.Engine.Round_limit_exceeded} — produces a
    [status:"failed"] row with the error payload instead of aborting
    the sweep; a job that overruns its wall-clock budget
    ({!Congest.Engine.Deadline_exceeded}) produces a
    [status:"timeout"] row. A settled job is never re-run: since the
    job is pure, a second attempt at a failed row would fail the same
    way, and re-running a timed-out cell takes a fresh store or a
    larger deadline. *)

val make_graph : Spec.t -> n:int -> seed:int -> Graphlib.Wgraph.t
(** The instance a job cell runs on: {!Spec.build_graph} seeded by the
    cell, a pure function of [(family, max_w, n, seed)] shared by every
    algorithm in the spec (so per-instance comparisons are meaningful).
    Exposed so benches can recompute instance facts (e.g. the
    unweighted diameter) that rows do not carry. *)

val run_job : ?attempt:int -> ?deadline_s:float -> Spec.t -> Spec.job -> string
(** Execute one job and return its canonical single-line JSON row
    ([qcongest-sweep-row/v2]; the [attempts] field records [?attempt],
    default 1). [?deadline_s] supervises the whole execution with an
    ambient {!Congest.Engine.with_deadline} budget. Never raises:
    failures are encoded in the row. *)

val row_failed : string -> bool
(** A checkpoint row counts as failed unless it parses and its
    ["status"] is ["ok"] ([timeout] rows count as failed). *)

val protect : ?attempt:int -> Spec.job -> (unit -> string) -> string
(** The failure-isolation wrapper used by {!run_job}, exposed so the
    error-row mapping is directly testable: runs the thunk, converting
    [Round_limit_exceeded] into a [round-limit] error row,
    [Deadline_exceeded] into a [status:"timeout"] row, and any other
    exception into an [exception] error row. *)

val run :
  ?jobs:int ->
  ?max_jobs:int ->
  ?deadline_s:float ->
  ?execute:(Spec.t -> Spec.job -> attempt:int -> string) ->
  ?metrics:Telemetry.Metrics.t ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  Spec.t ->
  Store.t ->
  int * int
(** Execute every spec job not yet checkpointed in the store, once
    each, fanning each batch out over [jobs] domains (default:
    {!Util.Domain_pool} resolution) and appending rows batch by batch,
    so an interrupted run loses at most one batch of work. [max_jobs]
    caps how many jobs this invocation executes (the hook the
    kill/resume tests use to simulate an interruption).

    [deadline_s] gives every job a wall-clock budget (surfaced as
    [status:"timeout"] rows). Raises [Invalid_argument] before running
    any job if [deadline_s] fails {!Congest.Engine.valid_deadline}.
    [execute] (default {!run_job}) is the injection point for the
    chaos suite; it is called with [~attempt:1] and must never raise.
    Returns [(executed, failures_among_executed)].

    [metrics] (default: none) receives live execution telemetry:
    every settled job observes its wall time into the
    [sweep.job.wall_ms] histogram and bumps [sweep.job.ok] or
    [sweep.job.failed]. Timing is measured around the job on the
    worker but recorded on the coordinating domain, and it never
    enters a checkpoint row — row bytes stay a pure function of the
    job, so kill-and-resume identity is unaffected. With
    [?metrics] unset no clock is read. The live monitor
    ([--progress]) and the Prometheus exporter consume the
    registry. *)

val series_points : Spec.t -> Store.t -> (string * (float * float) list) list
(** Per algorithm series: [(actual n, median rounds over seeds)] from
    the store's [ok] rows, in the spec's algorithm order. *)

val degraded_series : Spec.t -> Store.t -> string list
(** Names of series whose ok rows can no longer support a verdict:
    fewer than two distinct sizes measured, or under half of the
    expected cells ok. {!Fit} gates treat these as Inconclusive. *)

val report : Spec.t -> Store.t -> Telemetry.Json.t
(** The [qcongest-sweep/v1] report: job accounting (ok / failed —
    timeouts counted there and also surfaced as [timeout] — /
    missing; [quarantined] is always 0), per-series points with
    exponent fits (bootstrap CIs included) and [degraded] flags, the
    merged {!Telemetry.Metrics} snapshot of every row (including
    [sweep.jobs.timeout] and [sweep.attempts.total]), and the parsed
    rows sorted by job id ([quarantine_rows] is always empty; a row
    that does not parse is left out). A deterministic function of the
    spec and the row set. *)
