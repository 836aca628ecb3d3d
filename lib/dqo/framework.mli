(** The distributed quantum query framework (van Apeldoorn–de Vos,
    arXiv 2202.10969), specialized to Dürr–Høyer extremum finding: a
    pluggable algorithm is a {b (Setup, Evaluation, predicate) triple}.

    - {b Setup} describes how the leader prepares the search space: the
      superposition weights over the [N] indices, the model values
      [f(x)] that drive the amplification masses (the stochastic
      simulation needs them all to compute marked masses in closed
      form), the promised marked mass [ρ], the measured rounds of the
      one-time Initialization protocol, and the measured rounds of one
      per-call Setup (e.g. broadcasting the candidate index down the
      BFS tree).
    - {b Evaluation} evaluates one index as a {e real measured CONGEST
      protocol}: the plug-in runs the actual pipeline (pipelined BFS,
      skeleton eccentricity, token-flood APSP, …) and reports its
      measured round count. The framework re-runs it on exactly the
      candidates the search measured, and the per-call cost charged to
      the {!Cost} ledger is the worst measured Evaluation.
    - The {b predicate} is the marked-set comparator driving the
      amplification: [direction] fixes the sense ([{x : f(x) > best}]
      or [<]), [compare] orders values.

    [run] executes the amplified search ({!Optimize.search}, the Lemma
    3.1 / Le Gall–Magniez Theorem 2.4 schedule), then settles the round
    bill: [T_init + iterations·2·(T_setup+T_eval) + measurements·(T_setup+T_eval)
    + T_answer]. The Theorem 1.1 diameter/radius path ([Core.Algorithm]),
    the Le Gall–Magniez baseline, and the Wang–Wu–Yao eccentricities /
    APSP algorithms ([Baselines.Wwy_ecc], [Baselines.Wwy_apsp]) are all
    instances of this interface. *)

type 'v setup = {
  weights : float array;  (** Setup superposition amplitudes (unnormalized). *)
  values : 'v array;  (** Model values [f(x)] driving the marked masses. *)
  rho : float;  (** Promised marked mass for the budget [⌈c·√(ln(e/δ)/ρ)⌉]. *)
  init_rounds : int;  (** Measured rounds of the one-time Initialization. *)
}

type ('v, 'e) t = private {
  name : string;
  direction : Optimize.direction;
  compare : 'v -> 'v -> int;
  setup : unit -> 'v setup;
  evaluate : int -> 'e option;
      (** The real measured protocol for one index; [None] when the
          index has nothing to evaluate (e.g. an empty sampled set). *)
  eval_rounds : 'e -> int;  (** Measured CONGEST rounds of one Evaluation. *)
  setup_cost : int -> int;
      (** Measured rounds of one per-call Setup for the given index. *)
  calibrate : int list -> int list;
      (** Which measured candidates get real Evaluation runs
          (default: all of them, in first-touch order). *)
  finalize : int -> int;
      (** Measured rounds to announce the winning index to every node
          (default 0 when the model does not require it). *)
}

val make :
  name:string ->
  direction:Optimize.direction ->
  compare:('v -> 'v -> int) ->
  setup:(unit -> 'v setup) ->
  evaluate:(int -> 'e option) ->
  eval_rounds:('e -> int) ->
  ?setup_cost:(int -> int) ->
  ?calibrate:(int list -> int list) ->
  ?finalize:(int -> int) ->
  unit ->
  ('v, 'e) t
(** [setup_cost] defaults to zero rounds per call. *)

type ('v, 'e) outcome = {
  algo : string;
  best_idx : int;
  best_value : 'v;  (** Model value at the winning index. *)
  budget : int;
  touched : int list;  (** All measured candidates, first-touch order. *)
  evals : (int * 'e) list;
      (** Calibrated candidates with their real measured Evaluations,
          in calibration order. *)
  t_setup : int;  (** Measured per-call Setup rounds (at [best_idx]). *)
  t_eval_bound : int;  (** Worst measured Evaluation over [evals]. *)
  ledger : Cost.ledger;
      (** Initialization + the search re-charged at the measured
          per-call cost [{setup_rounds = t_setup; eval_rounds =
          t_eval_bound}]. *)
  answer_rounds : int;
  rounds : int;  (** [Cost.total_rounds ledger + answer_rounds]. *)
}

val run : rng:Util.Rng.t -> ?delta:float -> ?c:float -> ('v, 'e) t -> ('v, 'e) outcome
(** Execute the triple: Setup once, one {!Optimize.search} over the
    model values (zero-cost ledger during the stochastic simulation),
    real Evaluations for the calibrated candidates, then the ledger
    re-charged with the measured per-call costs. [c] (default 3.0) is
    the Lemma 3.1 budget constant. With probability at least [1-delta]
    (default 0.1) the winner matches the [direction]-extremum promised
    by [rho]. *)

val reference : ?cost:Cost.per_call -> ('v, 'e) t -> 'v Optimize.report
(** The classical exhaustive reference for the same triple: Setup once,
    every index evaluated ({!Optimize.exhaustive} with the algorithm's
    own [direction]), each charged [cost] (default [{setup_rounds =
    setup_cost 0; eval_rounds = 0}]). Runs no real Evaluations, so it
    never perturbs the plug-in's RNG stream. *)

val conserved : ('v, 'e) outcome -> bool
(** Ledger conservation: the charged search rounds equal
    [iterations·2·(t_setup+t_eval_bound) + measurements·(t_setup+t_eval_bound)]
    and [rounds = init + search + answer] — the invariant the QCheck
    agreement property pins for every plug-in. *)
