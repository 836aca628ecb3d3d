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

    Simulation fidelity (see DESIGN.md): the values [f(i)] used to
    compute exact amplification masses come from the centralized
    reference (proven equal to the distributed pipeline); every
    candidate the search actually measures is re-run through the real
    message-passing pipeline, and the charged per-evaluation cost is
    the worst measured one ([Fully_distributed] mode instead runs the
    pipeline for every [i]). *)

type objective = Diameter | Radius

type oracle_mode =
  | Distributed_touched
      (** Centralized values for masses; real pipeline runs (and
          measured costs) for every candidate the search measures. *)
  | Fully_distributed
      (** Real pipeline for every set — small instances only. *)
  | Centralized_calibrated
      (** Centralized values; costs calibrated from one pipeline run.
          For large parameter sweeps. *)

type config = {
  eps_override : float option;
  num_sets : int option;
  delta : float;  (** Overall failure budget for the searches. *)
  c : float;  (** Lemma 3.1 budget constant. *)
  mode : oracle_mode;
  leader : int;
}

val default_config : config
(** [eps_override = Some 0.5] (asymptotic [1/log n] is impractical at
    simulable sizes and only affects constants), [num_sets = None]
    (paper's [m = n]), [delta = 0.1], [c = 3.0],
    [mode = Distributed_touched], [leader = 0]. *)

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
}

val run :
  ?config:config -> Graphlib.Wgraph.t -> objective -> rng:Util.Rng.t -> result
(** Requires a connected graph with at least 2 nodes. *)

val pp_result : Format.formatter -> result -> unit
