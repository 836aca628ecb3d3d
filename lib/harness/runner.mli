(** Sweep execution: pending jobs over {!Util.Domain_pool}, one
    checkpoint row per job, deterministic reports — supervised.

    Each job is a pure function of its {!Spec.job} cell (all
    randomness comes from RNGs seeded by the cell), so results are
    independent of the domain count, batch boundaries, and of whether
    the sweep ran in one shot or was killed and resumed — the
    property the kill-and-resume QCheck test pins byte-for-byte.

    Failure isolation and supervision: a job that raises — including
    a structured {!Congest.Engine.Round_limit_exceeded} — produces a
    [status:"failed"] row with the error payload instead of aborting
    the sweep; a job that overruns its wall-clock budget
    ({!Congest.Engine.Deadline_exceeded}) produces a
    [status:"timeout"] row. Under a {!retry} policy, failed attempts
    are re-executed on a deterministic seeded backoff schedule, and a
    job that fails every attempt is a {e poison job}: its final row is
    checkpointed to the sibling [*.quarantine.jsonl] store instead of
    the main one, and the sweep completes without it. *)

val make_graph : Spec.t -> n:int -> seed:int -> Graphlib.Wgraph.t
(** The instance a job cell runs on — a pure function of
    [(family, max_w, n, seed)], shared by every algorithm in the spec
    (so per-instance comparisons are meaningful). Exposed so benches
    can recompute instance facts (e.g. the unweighted diameter) that
    rows do not carry. *)

val run_job : ?attempt:int -> ?deadline_s:float -> Spec.t -> Spec.job -> string
(** Execute one job and return its canonical single-line JSON row
    ([qcongest-sweep-row/v2]; the [attempts] field records [?attempt],
    default 1). [?deadline_s] supervises the whole execution with an
    ambient {!Congest.Engine.with_deadline} budget. Never raises:
    failures are encoded in the row. *)

val protect : ?attempt:int -> Spec.job -> (unit -> string) -> string
(** The failure-isolation wrapper used by {!run_job}, exposed so the
    error-row mapping is directly testable: runs the thunk, converting
    [Round_limit_exceeded] into a [round-limit] error row,
    [Deadline_exceeded] into a [status:"timeout"] row, and any other
    exception into an [exception] error row. *)

type retry = {
  max_attempts : int;  (** Total attempts per job, including the first
                           ([>= 1]; [1] disables retry and quarantine). *)
  backoff_s : float;  (** Base delay before the second attempt. *)
  multiplier : float;  (** Exponential growth factor per further attempt. *)
  jitter : float;  (** Multiplicative jitter fraction in [[0,1]]: each
                       delay is scaled by a seeded uniform draw from
                       [[1-jitter, 1+jitter]]. *)
  retry_seed : int;  (** Seed of the jitter stream. *)
}

val no_retry : retry
(** One attempt, no backoff — the default, and bit-identical to the
    pre-supervision runner. *)

val default_retry : retry
(** 3 attempts, 50 ms base, doubling, 25% jitter, seed 0. *)

val backoff_schedule : retry -> job_id:string -> float list
(** The [max_attempts - 1] sleep durations (seconds) between a job's
    attempts. A pure function of the policy and the job id — same
    seed, same job, same schedule — which is what makes retrying
    sweeps resumable byte-for-byte. *)

val quarantine_path : Store.t -> string
(** The sibling [*.quarantine.jsonl] poison-job store of a main store. *)

val run :
  ?jobs:int ->
  ?max_jobs:int ->
  ?retry:retry ->
  ?deadline_s:float ->
  ?sleep:(float -> unit) ->
  ?execute:(Spec.t -> Spec.job -> attempt:int -> string) ->
  ?metrics:Telemetry.Metrics.t ->
  ?on_progress:(completed:int -> total:int -> unit) ->
  Spec.t ->
  Store.t ->
  int * int
(** Execute every spec job not yet settled — checkpointed in the
    store {e or} quarantined in its sibling — fanning each batch out
    over [jobs] domains (default: {!Util.Domain_pool} resolution) and
    appending rows batch by batch, so an interrupted run loses at most
    one batch of work. [max_jobs] caps how many jobs this invocation
    executes (the hook the kill/resume tests use to simulate an
    interruption).

    [retry] (default {!no_retry}) re-runs failed attempts after the
    job's {!backoff_schedule} delays; with [max_attempts > 1] a job
    whose final attempt still fails is checkpointed to
    {!quarantine_path} instead of the main store. [deadline_s] gives
    every attempt a wall-clock budget (surfaced as [status:"timeout"]
    rows). Raises [Invalid_argument] before running any job if
    [retry.max_attempts < 1] or [deadline_s] fails
    {!Congest.Engine.valid_deadline}. [sleep] (default [Unix.sleepf])
    and [execute] (default {!run_job}) are injection points for the
    chaos suite — [execute] must never raise. Returns [(executed, failures_among_executed)];
    quarantined jobs count in both.

    [metrics] (default: none) receives live execution telemetry:
    every settled job observes its wall time into the
    [sweep.job.wall_ms] histogram and bumps [sweep.job.ok] or
    [sweep.job.failed]. Timing is measured around the whole attempt
    chain on the worker but recorded on the coordinating domain, and
    it never enters a checkpoint row — row bytes stay a pure function
    of the job, so kill-and-resume identity is unaffected. With
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

val report : ?quarantine:Store.t -> Spec.t -> Store.t -> string
(** The [qcongest-sweep/v1] report: job accounting (ok / failed —
    timeouts counted there and also surfaced as [timeout] — /
    quarantined / missing), per-series points with exponent fits
    (bootstrap CIs included) and [degraded] flags, the merged
    {!Telemetry.Metrics} snapshot of every row (including
    [sweep.jobs.retried], [sweep.jobs.timeout],
    [sweep.jobs.quarantined], [sweep.attempts.total]), and the raw
    rows — main then quarantine — sorted by job id. A deterministic
    function of the spec and the row sets; [?quarantine] overrides
    where quarantined rows are read from (default: the sibling file,
    when present). *)
