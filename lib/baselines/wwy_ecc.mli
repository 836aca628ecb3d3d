(** Wang–Wu–Yao quantum {e eccentricities} (arXiv 2206.02766): all
    unweighted eccentricities in [Õ(√(nD))] rounds, as an instance of
    the {!Dqo.Framework} (Setup, Evaluation, predicate) triple.

    The nodes are partitioned into [⌈n/x⌉] groups of size [x ≈ D].
    {b Evaluation} of one group is a real measured protocol: the
    group's [x] pipelined BFS floods plus one convergecast per member
    (pipelined, one extra round each) — after it, every member's
    eccentricity is known exactly. The Dürr–Høyer search over groups
    ([O(√(n/x))] Evaluations) locates the group holding the extremal
    eccentricity; the per-node eccentricities of every group the
    search measured come out as a by-product ([ecc_known]). Running the
    [Maximize] and [Minimize] searches brackets the diameter and the
    radius. *)

type group_eval = {
  ecc : (int * int) list;
      (** Measured per-member eccentricities (column maxima of the
          flood's distance table). *)
  rounds : int;  (** Flood + pipelined convergecasts, measured. *)
}

type result = {
  extremal : int;  (** The extremal eccentricity found by the search. *)
  exact : int;  (** Centralized reference for the same objective. *)
  correct : bool;
  rounds : int;
  group_size : int;
  groups : int;
  outer_iterations : int;
  outer_measurements : int;
  t_eval_bound : int;
  ecc_known : (int * int) list;
      (** Every (node, eccentricity) pair certified by a measured
          Evaluation, sorted and deduplicated. *)
  coverage : int;  (** [List.length ecc_known]. *)
  ecc_ok : bool;
      (** All measured eccentricities equal the centralized BFS
          reference. *)
}

val run :
  Graphlib.Wgraph.t ->
  rng:Util.Rng.t ->
  ?delta:float ->
  ?c:float ->
  direction:Dqo.Optimize.direction ->
  unit ->
  result
(** Search for the [direction]-extremal eccentricity. Operates on the
    topology (weights ignored). *)

val max_eccentricity :
  Graphlib.Wgraph.t -> rng:Util.Rng.t -> ?delta:float -> ?c:float -> unit -> result
(** [direction = Maximize]: the extremal value is the unweighted
    diameter. *)

val min_eccentricity :
  Graphlib.Wgraph.t -> rng:Util.Rng.t -> ?delta:float -> ?c:float -> unit -> result
(** [direction = Minimize]: the extremal value is the unweighted
    radius. *)
