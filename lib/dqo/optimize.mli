(** Distributed quantum optimization (Lemma 3.1 / Le Gall–Magniez
    Theorem 2.4): given Setup/Evaluation black boxes of cost [T] rounds
    and a promise that the initial superposition puts mass at least
    [ρ] on elements with [f(x) ≥ M] (for an unknown [M]), the leader
    finds such an element with probability [1-δ] in
    [T₀ + O(√(log(1/δ)/ρ))·T] rounds.

    The search is Dürr–Høyer-style extremum finding: keep the best
    value seen; repeatedly amplify the set [{x : f(x) better-than best}]
    with a BBHT iteration schedule (growth rate 1.2); measure,
    re-evaluate classically, update. Once the iteration budget
    [⌈c·√(ln(e/δ)/ρ)⌉] is spent, the best element exceeds [M] with
    probability at least [1-δ].

    Values are supplied as a precomputed array: the simulation needs
    them all to compute marked masses exactly. The report lists the
    candidates the algorithm actually measured, so callers that want
    per-candidate *measured* distributed costs can re-run the real
    pipeline on exactly those (this is what [lib/core] does). *)

type direction = Maximize | Minimize
(** The optimization sense of a search: the one type for it, shared by
    {!search}, {!exhaustive}, the [Dqo.Framework] triple and
    [Core.Inner.objective] (an alias of this type). *)

type 'v report = {
  best_idx : int;
  best_value : 'v;
  ledger : Cost.ledger;
  touched : int list;
      (** Measured candidates in chronological order (deduplicated,
          first occurrence kept). *)
  budget : int;  (** The iteration budget that was allotted. *)
}

val budget_for : rho:float -> delta:float -> c:float -> int
(** [⌈c·√(ln(e/δ)/ρ)⌉]. *)

val search :
  direction:direction ->
  rng:Util.Rng.t ->
  weights:float array ->
  values:'v array ->
  compare:('v -> 'v -> int) ->
  rho:float ->
  delta:float ->
  ?c:float ->
  cost:Cost.per_call ->
  unit ->
  'v report
(** Find [x] whose [values.(x)] is the [direction]-extremum under the
    Lemma 3.1 promise. [rho] is the promised marked mass (e.g.
    [Θ(r)/n] for the outer search, [1/|S_i|] for the inner one); [c]
    (default 3.0) is the budget constant. *)

val exhaustive :
  direction:direction ->
  values:'v array ->
  compare:('v -> 'v -> int) ->
  cost:Cost.per_call ->
  'v report
(** The classical baseline: evaluate everything; [N × (setup + eval)]
    rounds. On ties the first extremum wins in either direction. *)
