(** All-pairs shortest paths and the derived graph parameters
    (eccentricities, weighted diameter [D_{G,w}], weighted radius
    [R_{G,w}]) — the ground truth every approximation is checked
    against. Every function runs one Dijkstra per source on the
    caller's domain and never spawns one, so a sweep worker can call
    it. *)

val all_distances : Wgraph.t -> Dist.t array array
(** [d.(u).(v) = d_{G,w}(u,v)] by [n] Dijkstra runs. *)

val eccentricities : Wgraph.t -> Dist.t array
(** [e_{G,w}(u)] for every node. *)

val weighted_diameter : Wgraph.t -> Dist.t
(** [D_{G,w} = max_u e(u)]; [Dist.inf] if disconnected; 0 if [n <= 1]. *)

val weighted_radius : Wgraph.t -> Dist.t
(** [R_{G,w} = min_u e(u)]. *)

val center : Wgraph.t -> int
(** A node of minimum eccentricity. *)

val peripheral_pair : Wgraph.t -> int * int
(** A pair realizing the weighted diameter (arbitrary if [n <= 1]). *)
