(** The perf regression gate: current trajectory rows vs a pinned
    baseline, with a noise band.

    Wall-time benchmarks are noisy, so the gate compares {e medians}:
    rows are grouped by [(case, n)], each side's median wall seconds
    is taken (median-of-k when the bench recorded k reps as separate
    rows), and a case regresses when
    [current > baseline * (1 + tolerance)]. The verdict reuses
    {!Harness.Fit.gate_status}:

    - {!Harness.Fit.Pass} — every comparable case is inside the band;
    - {!Harness.Fit.Fail} — at least one measured regression;
    - {!Harness.Fit.Inconclusive} — fewer than [min_points] comparable
      cases (missing or empty baseline, disjoint case sets). Never a
      pass, never a measured regression.

    Exit contract (the CLI's [perf gate] and the CI smoke job): Pass →
    0, Fail → 1, Inconclusive → 3 — unlike the sweep gate's 0/3, a
    measured regression gets its own code so CI can distinguish
    "slower" from "nothing to compare". *)

type case_result = {
  case : string;
  n : int;
  baseline_s : float;  (** Baseline median wall seconds. *)
  current_s : float;  (** Current median wall seconds. *)
  ratio : float;  (** [current_s /. baseline_s]. *)
  within : bool;  (** [ratio <= 1 + tolerance]. *)
}

type verdict = {
  status : Harness.Fit.gate_status;
  tolerance : float;
  min_points : int;
  cases : case_result list;  (** Comparable cases, key-sorted. *)
  missing_baseline : (string * int) list;
      (** Current keys with no baseline point (new cases — ignored by
          the verdict, surfaced for the log). *)
  missing_current : (string * int) list;
      (** Baseline keys the current run did not measure. *)
}

val default_tolerance : float
(** [0.35] — generous because CI machines are shared; a genuine
    regression worth gating on is well beyond 35%. *)

val evaluate :
  ?tolerance:float ->
  ?min_points:int ->
  baseline:Trajectory.row list ->
  current:Trajectory.row list ->
  unit ->
  verdict
(** Compare the two row sets as described above. [?min_points]
    (default 1, clamped up to 1) is the least number of comparable
    cases required for a measured verdict. Keys whose baseline median
    is non-positive are unusable and dropped. Raises
    [Invalid_argument] on a negative or non-finite tolerance.
    Deterministic: the verdict is a pure function of the rows. *)

val exit_code : verdict -> int
(** Pass → [0], Fail → [1], Inconclusive → [3]. *)

val to_json : verdict -> Telemetry.Json.t
(** The [qcongest-perf-gate/v1] artifact: overall status plus every
    per-case comparison and the missing-key lists. *)

val pp : Format.formatter -> verdict -> unit
(** Human-readable multi-line rendering for the CLI. *)
