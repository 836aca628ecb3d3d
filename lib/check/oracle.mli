(** Pluggable exact-distance oracle for the certifiers.

    Every approximation audit recomputes ground truth — APSP
    eccentricities for the weighted objectives, BFS eccentricities for
    the unweighted ones. That recomputation is the dominant cost of
    re-certifying a sweep, and it is pure: the eccentricity array is a
    function of the graph alone. This record abstracts the two
    computations so {!Sweep_audit.audit_store} can share one call per
    kind among the rows of an instance, and so a caller can wrap them
    (to time them, say) while the default {!direct} computes them
    outright.

    The derived diameter/radius helpers replicate
    [Graphlib.Apsp.weighted_diameter]/[weighted_radius] and
    [Graphlib.Bfs.diameter] {e exactly} (same [n <= 1] guards, same
    fold identities), so certificates produced through any oracle
    whose eccentricity arrays are correct are byte-identical to
    direct-path certificates. *)

type t = {
  weighted_ecc : Graphlib.Wgraph.t -> Graphlib.Dist.t array;
  hop_ecc : Graphlib.Wgraph.t -> Graphlib.Dist.t array;
      (** Hop (unweighted) eccentricities of the topology; weights are
          ignored, so callers pass the weighted graph as-is. *)
}

val direct : t
(** [Graphlib.Apsp.eccentricities] and per-source
    [Graphlib.Bfs.eccentricity]. The default where an [?oracle] is
    accepted. *)

val weighted_diameter : t -> Graphlib.Wgraph.t -> Graphlib.Dist.t
val weighted_radius : t -> Graphlib.Wgraph.t -> Graphlib.Dist.t
val hop_diameter : t -> Graphlib.Wgraph.t -> Graphlib.Dist.t
