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

    {!exact} derives each {!Harness.Spec.quantity} from them, and
    replicates [Graphlib.Apsp.weighted_diameter]/[weighted_radius] and
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

val memo : t -> t
(** [t] with each kind computed on its first call only and returned
    as is after that: an oracle for one graph. *)

val exact : t -> Harness.Spec.quantity -> Graphlib.Wgraph.t -> int
(** The exact value of a quantity on a connected graph: the largest or
    smallest weighted eccentricity, the largest hop eccentricity, or
    node 0's hop eccentricity (the depth of a BFS tree rooted there).
    Raises [Invalid_argument] on a disconnected graph. *)
