(** Theorem 1.1: the quantum CONGEST [(1+o(1))]-approximation of the
    weighted diameter and radius.

    Structure (Section 3.2): sample sets [S_1..S_m] locally (free
    Initialization); the outer quantum search looks for an index [i]
    maximizing (diameter) or minimizing (radius)
    [f(i) = opt_{s∈S_i} ẽ_{G,w,i}(s)], with Setup = broadcasting [i]
    ([O(D)] rounds) and Evaluation = the Lemma 3.5 inner procedure.
    The extremal node joins [Θ(r)] sets (Good-Scale), so the promise
    mass is [ρ = Θ(r/n)] and the outer search makes
    [O(√(n/r))] evaluations — giving
    [Õ(√(n/r)·(D + T₀ + √r(T₁+T₂))) = Õ(min{n^{9/10}D^{3/10}, n})].

    Simulation fidelity (DESIGN.md, key decision 5): the values [f(i)]
    that set the exact amplification masses come from the centralized
    reference {!Inner.eval_centralized}, which equals the distributed
    pipeline on every set; every set the outer search measures is run
    through the real message-passing pipeline ({!Inner.prepare} then
    {!Inner.search}), and the charged per-evaluation cost is the worst
    measured one. *)

type objective = Diameter | Radius

type config = {
  eps_override : float option;
  num_sets : int option;
  delta : float;  (** Overall failure budget for the searches. *)
  c : float;  (** Lemma 3.1 budget constant. *)
  leader : int;
}

val default_config : config
(** The constants {!run} uses: [eps_override = Some 0.5] (asymptotic
    [1/log n] is impractical at simulable sizes and only affects
    constants), [num_sets = None] (paper's [m = n]), [delta = 0.1]
    (the outer search and each inner one get [delta/2]), [c = 3.0],
    [leader = 0] (the root of the BFS tree). *)

type result = {
  objective : objective;
  estimate : float;
  exact : int;  (** Ground-truth [D_{G,w}] or [R_{G,w}]. *)
  ratio : float;  (** [estimate / exact] ([nan] if [exact = 0]). *)
  within_guarantee : bool;  (** [exact ≤ estimate ≤ (1+ε)²·exact]. *)
  params : Params.t;
  d_unweighted : int;  (** Exact [D_G] (for reporting). *)
  rounds : int;  (** Total charged CONGEST rounds. *)
  breakdown : (string * int) list;
  outer_iterations : int;
  outer_measurements : int;
  inner_iterations_total : int;
  t_setup_outer : int;
  t_eval_bound : int;  (** Worst measured cost of one [f(i)] evaluation. *)
  touched_sets : int list;
  good_scale : bool;
  congestion_ok : bool;
  value_discrepancy : float;
      (** Max |centralized − distributed| over cross-checked sets. *)
  best_set : int;
  best_source : int option;
      (** The source realizing [f(best_set)] in that set's measured
          Evaluation; [None] if the set is empty. *)
}

val run : Graphlib.Wgraph.t -> objective -> rng:Util.Rng.t -> result
(** Runs with {!default_config}. Requires a connected graph with at
    least 2 nodes. *)

val pp_result : Format.formatter -> result -> unit
