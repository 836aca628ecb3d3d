(** The built-in audit suite behind [qcongest check run].

    One call runs every certifier on small built-in instances and
    aggregates the certificates into a {!Report.report}:

    - ["congest"] — {!Congest_audit} over the event stream of a real
      multi-phase tree construction on the instance graph;
    - ["approx"] — {!Approx_audit} for Theorem 1.1 diameter, Theorem
      1.1 radius and the 3/2 unweighted baseline;
    - ["gadget"] — {!Gadget_audit} on both Section 4 variants;
    - ["determinism"] — {!Determinism_audit} on the instance graph;
    - ["amplify"] — {!Amplify_audit} (the certifier whose [trials < 30]
      path is the suite's deliberate Inconclusive outcome);
    - ["ecc"] — {!Wwy_audit.ecc}: per-node eccentricities and the
      re-derived diameter/radius bracket vs the BFS oracle;
    - ["apsp"] — {!Wwy_audit.apsp}: the token-flood distance matrix,
      the farthest-pair diameter, and the round-accounting split vs
      the Dijkstra oracle.

    [negative_control] arms every selected certifier's own sabotage
    path (injected non-edge message, tampered estimate, negated [F],
    shifted permuted diameter, unamplified sampling), so the suite
    must come back [Fail] — the CI proof that the auditor can
    reject. *)

type config = {
  seed : int;
  n : int;  (** Instance size for the graph-based certifiers. *)
  trials : int;  (** Sampling budget for the amplification audit. *)
  h : int;  (** Gadget height (even). *)
  negative_control : bool;
  only : string list;  (** Certifier names to run; [[]] = all. *)
}

val default : config
(** seed 42, n 48, trials 200, h 2, no negative control, all
    certifiers. *)

val certifier_names : string list
(** Valid [only] entries, in suite order. *)

val run : config -> Report.report
(** Raises [Invalid_argument] if [only] names an unknown certifier. *)

val sweep_report :
  ?oracle:Oracle.t ->
  ?graph_of_job:(Harness.Spec.t -> Harness.Spec.job -> Graphlib.Wgraph.t) ->
  Harness.Spec.t ->
  Harness.Store.t ->
  Report.report
(** {!Sweep_audit.audit_store} wrapped as a one-certificate report —
    the [qcongest check sweep] / [sweep run --audit] entry point. The
    optional oracle and instance hooks are passed through unchanged
    (see {!Sweep_audit.audit_store}). *)

val chaos :
  ?seed:int -> ?deadline_s:float -> ?negative_control:bool -> unit -> Report.report
(** {!Resilience_audit.certify} wrapped as a report — the [qcongest
    check chaos] entry point. Kept out of {!run}'s certifier list
    because it stages real kills, corruption, backoff sleeps and
    deadline budgets; [negative_control] arms one sabotage per
    certificate so the report must [Fail]. *)
