(** Checkpoint-row auditor: re-certify a sweep's stored results.

    A sweep row asserts four things: which instance it ran on, what
    ground truth that instance has, how far the estimate sat from it,
    and that the algorithm's guarantee held. The first three are
    recomputable — the instance is a pure function of the spec cell —
    so this auditor rebuilds each row's graph, recomputes the exact
    oracle (weighted or unweighted, per algorithm), and cross-checks
    every stored field. Rows on the same instance share its build and
    its oracles. It is what [qcongest check sweep] and
    [qcongest sweep run --audit] run over a store, turning the
    checkpoint file from trusted cache into certified evidence.

    Violation codes: [corrupt-row] (unparseable or shape-broken JSON),
    [wrong-instance] (stored [n_actual] differs from the rebuilt
    graph), [oracle-mismatch] (stored [exact] differs from the
    recomputed oracle), [ratio-drift] (stored [ratio] is not
    [estimate/exact]), [guarantee] (the row itself records a violated
    guarantee, [within = false]) and [within-drift] (the row records
    [within = true] but its estimate and exact value fail
    {!Harness.Spec.guarantee}). Failed rows are skipped (noted, not
    violations — the sweep already reports them); a store with no
    auditable rows yields [Inconclusive]. *)

val expected_exact : Harness.Spec.t -> Harness.Spec.job -> int
(** The recomputed ground truth for a job cell: weighted
    diameter/radius for the weighted algorithms, unweighted diameter
    for the unweighted ones, fault-free BFS depth for
    [Bfs_reliable]. *)

val audit_row : Harness.Spec.t -> Harness.Spec.job -> string -> Report.violation list
(** Audit one raw checkpoint row on a fresh build of its instance
    (empty list = clean; a failed row is skipped and comes back
    empty). *)

val audit_store :
  ?oracle:Oracle.t ->
  ?graph_of_job:(Harness.Spec.t -> Harness.Spec.job -> Graphlib.Wgraph.t) ->
  Harness.Spec.t ->
  Harness.Store.t ->
  Report.certificate
(** Audit every stored row of the spec's jobs. Rows are audited one
    [(n, seed)] instance at a time: the rows of an instance share one
    [graph_of_job] call and at most one call per oracle kind, made on
    first use, so failed and corrupt rows build nothing. Violations
    come out in {!Harness.Spec.jobs} order, as if each row had gone
    through {!audit_row}. [?oracle] (default {!Oracle.direct}) and
    [?graph_of_job] (default [Harness.Runner.make_graph] on the cell's
    [n]/[seed]) substitute the ground truth and the instance build,
    e.g. to time them; both must be observationally identical to
    their defaults. *)
