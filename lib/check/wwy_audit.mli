(** Certifiers for the Wang–Wu–Yao rows (arXiv 2206.02766).

    Both follow the suite's tamper contract: [?tamper] scales the
    algorithm's outputs before checking (the negative control — any
    [tamper <> 1.0] must produce violations on a non-degenerate
    instance). *)

val ecc :
  ?tamper:float ->
  Graphlib.Wgraph.t ->
  rng:Util.Rng.t ->
  Report.certificate
(** Runs both the [Max] and [Min] eccentricity searches, then checks:
    recorded exact values vs the oracle, both extremal values equal
    the oracle's hop diameter/radius, the pair satisfies the
    re-derived bracket [R <= D <= 2R], and {e every} per-node
    eccentricity certified by a measured Evaluation equals the
    oracle's BFS value. *)

val apsp :
  ?tamper:float ->
  Graphlib.Wgraph.t ->
  rng:Util.Rng.t ->
  Report.certificate
(** Runs the weighted APSP + farthest-pair search, then checks: the
    recorded exact vs the oracle, the search's diameter equals the
    oracle's, the re-derived [R <= D <= 2R] bracket, the flood's full
    distance matrix agreed with Dijkstra ([dist_ok]), and the round
    accounting contains flood + search. *)
