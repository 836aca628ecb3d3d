(** Algorithm 5: SSSP on the overlay network.

    Runs Algorithm 1 on [(G''_S, w''_S)] with hop parameter
    [ℓ' = ⌈4|S|/k⌉] (enough, since the shortcut graph's hop diameter is
    below [4|S|/k] by Theorem 3.10). An overlay round is emulated on
    the physical network: first the number [a] of overlay nodes that
    want to speak is counted and disseminated ([O(D)] rounds — charged
    for every overlay round, busy or not, as the trace the overlay's
    memo measured once), then the [a] messages are
    broadcast network-wide ([O(D + a)] rounds of a gather-broadcast
    whose trace depends only on which nodes speak, measured by a real
    run the first time the overlay's {!Overlay.t.gathers} memo sees
    that holder set). Total: [Õ(|S|/(εk)·D + |S|)] (Lemma A.4).

    Because the emulation broadcasts every overlay message to the whole
    network, every node (not only members of [S]) ends up knowing
    [d̃^{ℓ'}(s, u)] for every [u ∈ S]. *)

type output = {
  row : float array;
      (** [row.(j) = d̃^{4|S|/k}_{G''_S,w''_S}(s, s_j)] in S-index
          space. *)
  trace : Congest.Engine.trace;
      (** Measured gather-broadcasts plus the per-overlay-round [O(D)]
          synchronization charge. *)
  overlay_rounds : int;  (** Emulated overlay rounds. *)
  busy_rounds : int;  (** Overlay rounds that actually carried messages. *)
}

val run :
  Graphlib.Wgraph.t ->
  tree:Congest.Tree.t ->
  overlay:Overlay.t ->
  eps:float ->
  src_idx:int ->
  output
(** @raise Invalid_argument unless [g] and [tree] are the graph and
    tree the overlay was embedded on, the ones its gather memo
    measures on. *)
