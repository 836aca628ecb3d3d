(** Algorithm 4: embedding the k-shortcut overlay [(G''_S, w''_S)].

    After Algorithm 3 every node of [S] knows its incident [w'_S]
    weights (its row of approximate bounded-hop distances to the rest
    of [S]). Each [s ∈ S] then broadcasts its [k] cheapest incident
    overlay edges network-wide ([O(D + |S|k)] rounds, pipelined over
    the BFS tree). From the union of those broadcasts every node can
    locally compute, for every [v ∈ S], the k-nearest set [N^k_S(v)]
    and the exact [(G'_S, w'_S)]-distances to it (Nanongkai's
    Observation 3.12), which defines the shortcut weights [w''_S]. *)

type t = {
  s_nodes : int array;
  k : int;
  knn : int array array;
      (** [knn.(i)]: S-positions of [N^k(s_i)], nearest first. *)
  w2 : float array array;  (** [w''_S], a [b×b] symmetric matrix. *)
  trace : Congest.Engine.trace;  (** The k-shortest-edge broadcast. *)
  tokens_broadcast : int;  (** Distinct overlay edges disseminated. *)
  gathers : Congest.Tree.gather_memo;
      (** Measured gather-broadcast traces on the embedding's graph and
          tree, by holder multiset, and the count-and-announce
          synchronization trace ({!Congest.Tree.sync_trace}): this
          set's own memo, shared by every [Alg5.run] and
          [Approx.eval_source] of the set. *)
}

val embed :
  Graphlib.Wgraph.t ->
  tree:Congest.Tree.t ->
  s_nodes:int array ->
  w1:float array array ->
  k:int ->
  t
(** [w1] is the [b×b] matrix of [w'_S] (0 diagonal, [infinity] for
    unavailable pairs); [s_nodes] must be distinct and sorted. *)
