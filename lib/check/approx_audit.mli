(** Approximation certifier: estimates vs. the exact oracle.

    Cross-checks what an algorithm {e reports} against ground truth
    recomputed here from scratch ([Graphlib.Apsp] / BFS), then asserts
    the paper's ratio bounds:

    - Theorem 1.1: [exact <= estimate <= (1+ε)²·exact] for the quantum
      weighted diameter/radius pipeline (the run's own [ε]);
    - the 3/2-approximation row of Table 1:
      [⌊2D/3⌋ <= estimate <= D] for the unweighted estimator.

    Violation codes: [oracle-mismatch] (the algorithm's recorded
    ground truth differs from the recomputed oracle — a corrupted or
    drifted run), [ratio-bound] (the estimate falls outside the
    claimed bracket), [flag-inconsistent] (the algorithm's own
    [within_guarantee]-style verdict disagrees with the recomputed
    one), [congestion] (the run exceeded its claimed per-edge budget),
    and [pipeline-divergence] (centralized and distributed evaluations
    of [f(i)] disagreed). *)

val thm11 :
  ?tamper:float ->
  Graphlib.Wgraph.t ->
  Core.Algorithm.objective ->
  rng:Util.Rng.t ->
  Report.certificate
(** Run the Theorem 1.1 pipeline and certify the result. [?tamper]
    multiplies the reported estimate before auditing — the negative
    control proving the certifier can reject (a factor outside
    [(1+ε)²] must fail). *)

val thm11_result :
  ?tamper:float ->
  Graphlib.Wgraph.t ->
  Core.Algorithm.result ->
  Report.certificate
(** Certify an already-computed result (the sweep-audit path). *)

val three_halves :
  ?tamper:float ->
  Graphlib.Wgraph.t ->
  rng:Util.Rng.t ->
  Report.certificate
(** Run and certify the classical 3/2-approximation of the unweighted
    diameter. *)
