(** Empirical round-complexity exponents and the regression gate.

    The harness's verdict machinery: fit [log₂ rounds] against
    [log₂ n] by least squares ({!Util.Stats.loglog_fit}), attach a
    seeded-bootstrap confidence interval to the slope, and compare
    each gated series' slope against its configured prediction band.
    Everything is deterministic — the bootstrap resampling is driven
    by a seed derived from the series name — so verdict artifacts are
    byte-stable across runs, machines and job counts. *)

type ci = { lo : float; hi : float }

val bootstrap_ci : ?reps:int -> seed:int -> (float * float) list -> ci
(** Percentile (2.5%, 97.5%) interval of the log-log slope over
    [reps] (default 200) resamples-with-replacement of the points.
    Degenerate resamples (all one [x]) are redrawn. Requires >= 2
    distinct abscissae. *)

type series_fit = { slope : float; intercept : float; r2 : float; ci : ci }

val fit_series : seed:int -> (float * float) list -> series_fit option
(** [None] when the series has fewer than 2 distinct positive
    abscissae (nothing to fit). Non-positive points are dropped. *)

type gate_status =
  | Pass  (** Enough data, and the slope is inside the band. *)
  | Fail  (** Enough data, and the slope (or fit quality) rejects. *)
  | Inconclusive
      (** Not enough surviving data to support a verdict either way:
          the series is absent, unfittable, or marked degraded. Never
          a pass — but not a measured regression either. *)

val status_name : gate_status -> string
(** ["pass"] / ["fail"] / ["inconclusive"]. *)

type check = {
  series : string;
  expected : float;
  tol : float;
  min_r2 : float;
  fit : series_fit option;  (** [None]: the series had no fittable data. *)
  status : gate_status;
  pass : bool;  (** [status = Pass]. *)
  reason : string;  (** Human-readable cause. *)
}

type verdict = { pass : bool; status : gate_status; checks : check list }
(** [status] is the worst check status (Fail > Inconclusive > Pass);
    an empty check list is Inconclusive. *)

val evaluate :
  ?degraded:string list ->
  Spec.gate list ->
  series:(string * (float * float) list) list ->
  verdict
(** One check per gate. A gate whose series appears in [?degraded]
    (see {!Runner.degraded_series}), is absent, or cannot be fitted is
    {!Inconclusive}; [pass] iff every check measurably passes. *)

val fit_to_json : series_fit option -> Telemetry.Json.t
(** [{"slope":…,"intercept":…,"r2":…,"ci_lo":…,"ci_hi":…}], or
    [null] for [None]; the sweep report and the gate artifact share
    it. *)

val verdict_to_json : verdict -> Telemetry.Json.t
(** The [qcongest-sweep-gate/v1] artifact (with per-gate and overall
    ["status"] fields). *)

val exit_code : verdict -> int
(** [0] on pass, [3] otherwise (failed or inconclusive) — the CLI's
    contract: only a measured pass exits 0. *)

val seed_of_series : string -> int
(** The deterministic bootstrap seed for a series name (FNV-derived). *)
