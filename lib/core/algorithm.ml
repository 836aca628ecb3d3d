type objective = Diameter | Radius

type config = {
  eps_override : float option;
  num_sets : int option;
  delta : float;
  c : float;
  leader : int;
}

let default_config =
  { eps_override = Some 0.5; num_sets = None; delta = 0.1; c = 3.0; leader = 0 }

type result = {
  objective : objective;
  estimate : float;
  exact : int;
  ratio : float;
  within_guarantee : bool;
  params : Params.t;
  d_unweighted : int;
  rounds : int;
  breakdown : (string * int) list;
  outer_iterations : int;
  outer_measurements : int;
  inner_iterations_total : int;
  t_setup_outer : int;
  t_eval_bound : int;
  touched_sets : int list;
  good_scale : bool;
  congestion_ok : bool;
  value_discrepancy : float;
  best_set : int;
  best_source : int option;
}

(* One sense for both searches: the outer search over sets and each
   inner search over a set's sources. *)
let direction_of = function Diameter -> Dqo.Optimize.Maximize | Radius -> Dqo.Optimize.Minimize

(* The first node of maximum (diameter) or minimum (radius)
   eccentricity: the extremal node v* of the Good-Scale event. *)
let extremal_node objective ecc =
  let better e b = match objective with Diameter -> e > b | Radius -> e < b in
  let best = ref 0 in
  Array.iteri (fun i e -> if better e ecc.(!best) then best := i) ecc;
  !best

let run g objective ~rng =
  let config = default_config in
  let n = Graphlib.Wgraph.n g in
  if n < 2 then invalid_arg "Algorithm.run: need n >= 2";
  if not (Graphlib.Wgraph.is_connected g) then invalid_arg "Algorithm.run: disconnected graph";
  (* The network's own diameter estimate: the BFS-tree depth gives
     depth <= D_G <= 2*depth, known to all after Tree.build. *)
  let tree, tree_trace = Congest.Tree.build g ~root:config.leader in
  let d_hat = max 1 (2 * tree.Congest.Tree.depth) in
  let params =
    Params.of_graph_params ?eps_override:config.eps_override ?num_sets:config.num_sets ~n ~d_hat
      ()
  in
  (* Initialization: local sampling, zero rounds. Resample in the rare
     all-empty case (tiny n only). *)
  let rec sample_sets attempts =
    let sets = Sets.sample ~rng ~n ~params in
    if Array.exists (fun s -> s <> []) sets.Sets.sets then sets
    else if attempts <= 0 then invalid_arg "Algorithm.run: could not sample non-empty sets"
    else sample_sets (attempts - 1)
  in
  let sets = sample_sets 20 in
  let ctx =
    {
      Nanongkai.Approx.g;
      tree;
      params = Params.reweight_params params;
      k = params.Params.k;
      rng = Util.Rng.split rng;
    }
  in
  (* Ground truth and the Good-Scale extremal node from one APSP. *)
  let ecc = Graphlib.Apsp.eccentricities g in
  let vstar = extremal_node objective ecc in
  let exact = Graphlib.Dist.to_int_exn ecc.(vstar) in
  let d_unweighted = Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g) in
  let direction = direction_of objective in
  let m = Array.length sets.Sets.sets in
  (* Values f(i) for the amplification masses, from the centralized
     reference. One partial application: all m sets share its d̃^ℓ
     table. *)
  let values =
    let eval =
      Inner.eval_centralized g ~params:ctx.Nanongkai.Approx.params ~k:ctx.Nanongkai.Approx.k
    in
    Array.map
      (fun s ->
        match eval ~objective:direction ~s with
        | Some v -> v
        | None -> Inner.worst_value direction)
      sets.Sets.sets
  in
  (* The Theorem 1.1 outer search as a (Setup, Evaluation, predicate)
     triple. Setup: sample-set superposition with the Good-Scale
     promise mass ρ = Θ(r/n) and the per-call index broadcast.
     Evaluation: the real Initialization + inner-search pipeline for
     one sampled set, run on every set the search measures (an empty
     set has nothing to evaluate). Predicate: maximize (diameter) or
     minimize (radius) the approximate extremal eccentricity. *)
  let setup () =
    {
      Dqo.Framework.weights = Array.make m 1.0;
      values;
      rho = Float.max (sets.Sets.rate /. 2.0) (1.0 /. float_of_int m);
      init_rounds = tree_trace.Congest.Engine.rounds;
    }
  in
  (* Measured Setup / answer broadcast: the index |i⟩ (resp. the final
     estimate) down the BFS tree. *)
  let broadcast_rounds = Congest.Tree.broadcast_rounds g tree in
  let evaluate i =
    Option.map
      (fun prep ->
        Inner.search prep ~objective:direction ~delta:(config.delta /. 2.0) ~c:config.c
          ~rng:ctx.Nanongkai.Approx.rng)
      (Inner.prepare ~ctx ~s:sets.Sets.sets.(i))
  in
  let triple =
    Dqo.Framework.make
      ~name:("thm11-" ^ match objective with Diameter -> "diameter" | Radius -> "radius")
      ~direction ~compare ~setup ~evaluate
      ~eval_rounds:(fun (e : Inner.eval) -> e.Inner.total_rounds)
      ~setup_cost:broadcast_rounds ~finalize:broadcast_rounds ()
  in
  let outcome = Dqo.Framework.run ~rng ~delta:(config.delta /. 2.0) ~c:config.c triple in
  let t_setup_outer = outcome.Dqo.Framework.t_setup in
  let t_eval_bound = outcome.Dqo.Framework.t_eval_bound in
  let measured = List.map snd outcome.Dqo.Framework.evals in
  let inner_iterations_total =
    List.fold_left (fun acc (e : Inner.eval) -> acc + e.Inner.inner_iterations) 0 measured
  in
  let congestion_ok = List.for_all (fun (e : Inner.eval) -> e.Inner.congestion_ok) measured in
  let ledger = outcome.Dqo.Framework.ledger in
  let search_rounds = ledger.Dqo.Cost.search_rounds in
  let rounds = outcome.Dqo.Framework.rounds in
  let breakdown =
    [
      ("bfs-tree", tree_trace.Congest.Engine.rounds);
      ("outer-setup-per-call", t_setup_outer);
      ("eval-bound-per-call (T0+√r(T1+T2))", t_eval_bound);
      ("outer-search", search_rounds);
      ("answer-broadcast", outcome.Dqo.Framework.answer_rounds);
    ]
  in
  let estimate = outcome.Dqo.Framework.best_value in
  let scale = Sets.check_good_scale sets ~vstar in
  let within_guarantee =
    let ex = float_of_int exact in
    let ub = ((1.0 +. params.Params.eps) ** 2.0) *. ex in
    estimate >= ex -. 1e-6 && estimate <= ub +. 1e-6
  in
  (* Max |centralized − distributed| over the measured sets. *)
  let discrepancy =
    List.fold_left
      (fun acc (i, (e : Inner.eval)) ->
        Float.max acc (Float.abs (e.Inner.value -. values.(i))))
      0.0 outcome.Dqo.Framework.evals
  in
  let best_source =
    Option.map
      (fun (e : Inner.eval) -> e.Inner.best_s)
      (List.assoc_opt outcome.Dqo.Framework.best_idx outcome.Dqo.Framework.evals)
  in
  {
    objective;
    estimate;
    exact;
    ratio = (if exact = 0 then Float.nan else estimate /. float_of_int exact);
    within_guarantee;
    params;
    d_unweighted;
    rounds;
    breakdown;
    outer_iterations = ledger.Dqo.Cost.grover_iterations;
    outer_measurements = ledger.Dqo.Cost.measurements;
    inner_iterations_total;
    t_setup_outer;
    t_eval_bound;
    touched_sets = outcome.Dqo.Framework.touched;
    good_scale = scale.Sets.ok;
    congestion_ok;
    value_discrepancy = discrepancy;
    best_set = outcome.Dqo.Framework.best_idx;
    best_source;
  }

let pp_result ppf r =
  let obj = match r.objective with Diameter -> "diameter" | Radius -> "radius" in
  Format.fprintf ppf
    "@[<v>%s: estimate=%.2f exact=%d ratio=%.4f within_guarantee=%b@,\
     params: %a@,\
     rounds=%d (outer iters=%d meas=%d, T_setup=%d T_eval<=%d)@,\
     good_scale=%b congestion_ok=%b discrepancy=%.2e@]"
    obj r.estimate r.exact r.ratio r.within_guarantee Params.pp r.params r.rounds
    r.outer_iterations r.outer_measurements r.t_setup_outer r.t_eval_bound r.good_scale
    r.congestion_ok r.value_discrepancy
