(** Weighted single-source shortest paths (centralized reference
    implementations used as ground truth by every test and harness). *)

val distances : Wgraph.t -> src:int -> Dist.t array
(** Exact [d_{G,w}(src, ·)] by Dijkstra's algorithm. *)

val distances_bounded : Wgraph.t -> src:int -> bound:int -> Dist.t array
(** Distances, with values exceeding [bound] reported as [Dist.inf].
    Centralized counterpart of the paper's Algorithm 2
    (Bounded-Distance SSSP). The search relaxes no arc past [bound],
    so it settles only the nodes within it. *)

val bounded_hop_distances : Wgraph.t -> src:int -> hops:int -> Dist.t array
(** Exact [ℓ]-hop distances [d^ℓ_{G,w}(src, ·)]: least length over
    paths with at most [hops] edges (Section 3.1). Computed by the
    Bellman–Ford hop recurrence in [O(hops * m)]. *)

val path : Wgraph.t -> src:int -> dst:int -> int list option
(** One shortest path as a node sequence [src; ...; dst], if
    reachable. *)

val eccentricity : Wgraph.t -> src:int -> Dist.t
(** [e_{G,w}(src) = max_v d(src, v)]. *)
