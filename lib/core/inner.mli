(** Evaluation of [f(i) = opt_{s ∈ S_i} ẽ_{G,w,i}(s)] — Lemma 3.5.

    The distributed evaluator runs the real pipeline: Algorithms 3+4
    ([Initialization_i], measured [T₀]), per-source Algorithm 5 + local
    combine + convergecast ([Setup_i]/[Evaluation_i], measured [T₁],
    [T₂]), then the inner quantum search over [s ∈ S_i] (uniform
    amplitudes, promise [ρ = 1/|S_i|]) with the Lemma 3.1 accounting
    [T₀ + O(√|S_i|)·(T₁+T₂)].

    [prepare] is the objective-independent half (everything up to and
    including the per-source values); [search] is the per-objective
    quantum search on a prepared set. [Core.Algorithm] prepares each
    set once and searches it for the objective it needs.

    The centralized evaluator computes the same value through
    [Graphlib.Skeleton] — the two are tested to agree on every set of
    a sampled family, in both directions — and is used by the outer
    search to price marked-set masses without simulating all [n]
    pipelines. *)

type objective = Dqo.Optimize.direction = Maximize | Minimize
(** The optimization sense of [f(i)]: the one [Dqo.Optimize.direction]
    type, re-exported so [Core.Inner.Maximize] names it here. *)

type eval = {
  value : float;  (** [f(i)]. *)
  best_s : int;  (** The source realizing it. *)
  t0 : int;  (** Measured [Initialization_i] rounds. *)
  t1 : int;  (** Max measured [Setup_i] rounds over evaluated sources. *)
  t2 : int;  (** Max measured [Evaluation_i] rounds. *)
  search_rounds : int;  (** Inner-search charge from the Lemma 3.1 ledger. *)
  total_rounds : int;  (** [t0 + search_rounds]. *)
  inner_iterations : int;
  inner_measurements : int;
  congestion_ok : bool;
}

type prepared = {
  emb : Nanongkai.Approx.embedded;
  source_values : float array;  (** [ẽ_{G,w,i}(s)] per source. *)
  t0 : int;
  t1 : int;
  t2 : int;
  congestion_ok : bool;
}

val prepare : ctx:Nanongkai.Approx.ctx -> s:int list -> prepared option
(** Run [Initialization_i] and evaluate every source through the real
    pipeline; [None] on an empty set. *)

val search :
  prepared -> objective:objective -> delta:float -> c:float -> rng:Util.Rng.t -> eval
(** The inner quantum search (Lemma 3.1, {!Dqo.Optimize.search}) over a
    prepared set: uniform amplitudes over its sources, promise
    [ρ = 1/|S_i|], per-call cost [T₁ + T₂]. *)

val eval_centralized :
  Graphlib.Wgraph.t ->
  params:Graphlib.Reweight.params ->
  k:int ->
  objective:objective ->
  s:int list ->
  float option
(** Value only, via the centralized skeleton.

    The partial application [eval_centralized g ~params ~k] makes one
    {!Graphlib.Reweight.table} for [g] and returns a closure that
    builds every set's {!Graphlib.Skeleton} on it, so each [d̃^ℓ] row is
    computed once however many sets share its source. Apply it once
    per graph and price all the sets through the closure; the table
    lives as long as the closure and is not global. A full application
    per set gives the same values but recomputes every row. Not safe
    to share one closure between domains. *)

val worst_value : objective -> float
(** [-∞] for [Maximize], [+∞] for [Minimize]: the value of an empty
    set (never selected by the search). *)
