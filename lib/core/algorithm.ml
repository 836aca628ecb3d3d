type objective = Diameter | Radius

type oracle_mode = Distributed_touched | Fully_distributed | Centralized_calibrated

type config = {
  eps_override : float option;
  num_sets : int option;
  delta : float;
  c : float;
  mode : oracle_mode;
  leader : int;
}

let default_config =
  {
    eps_override = Some 0.5;
    num_sets = None;
    delta = 0.1;
    c = 3.0;
    mode = Distributed_touched;
    leader = 0;
  }

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

let inner_objective = function Diameter -> Inner.Maximize | Radius -> Inner.Minimize

let ground_truth g = function
  | Diameter -> Graphlib.Apsp.weighted_diameter g
  | Radius -> Graphlib.Apsp.weighted_radius g

let extremal_node g = function
  | Diameter ->
    let ecc = Graphlib.Apsp.eccentricities g in
    let best = ref 0 in
    Array.iteri (fun i e -> if e > ecc.(!best) then best := i) ecc;
    !best
  | Radius -> Graphlib.Apsp.center g

let run ?(config = default_config) g objective ~rng =
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
  let exact = Graphlib.Dist.to_int_exn (ground_truth g objective) in
  let d_unweighted = Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g) in
  let rw = Params.reweight_params params in
  let inner_obj = inner_objective objective in
  let m = Array.length sets.Sets.sets in
  (* Values f(i) for the amplification masses. *)
  let discrepancy = ref 0.0 in
  (* Each set's objective-independent pipeline (Initialization +
     per-source values) runs once, although the Fully_distributed
     Setup, the touched-set Evaluations and the best-source read-back
     can each ask for the same set. *)
  let prepared_sets = Hashtbl.create 16 in
  let prepared i =
    match Hashtbl.find_opt prepared_sets i with
    | Some p -> p
    | None ->
      let p = Inner.prepare ~ctx ~s:sets.Sets.sets.(i) in
      Hashtbl.replace prepared_sets i p;
      p
  in
  let eval_dist i =
    match prepared i with
    | None -> None
    | Some prep ->
      Some
        (Inner.search prep ~objective:inner_obj ~delta:(config.delta /. 2.0) ~c:config.c
           ~rng:ctx.Nanongkai.Approx.rng)
  in
  (* The Theorem 1.1 outer search as a (Setup, Evaluation, predicate)
     triple. Setup: sample-set superposition with the Good-Scale
     promise mass ρ = Θ(r/n) and the per-call index broadcast.
     Evaluation: the real Initialization + inner-search pipeline for
     one sampled set. Predicate: maximize (diameter) or minimize
     (radius) the approximate extremal eccentricity. *)
  let model_values = ref [||] in
  let setup () =
    let values =
      match config.mode with
      | Fully_distributed ->
        Array.init m (fun i ->
            match eval_dist i with
            | Some e -> e.Inner.value
            | None -> Inner.worst_value inner_obj)
      | Distributed_touched | Centralized_calibrated ->
        (* One partial application: all m sets share its d̃^ℓ table. *)
        let eval = Inner.eval_centralized g ~params:rw ~k:params.Params.k in
        Array.init m (fun i ->
            match eval ~objective:inner_obj ~s:sets.Sets.sets.(i) with
            | Some v -> v
            | None -> Inner.worst_value inner_obj)
    in
    model_values := values;
    {
      Dqo.Framework.weights = Array.make m 1.0;
      values;
      rho = Float.max (sets.Sets.rate /. 2.0) (1.0 /. float_of_int m);
      init_rounds = tree_trace.Congest.Engine.rounds;
    }
  in
  (* Measured Setup / answer broadcast: the index |i⟩ (resp. the final
     estimate) down the BFS tree. *)
  let broadcast_rounds i =
    let _, trace =
      Congest.Tree.broadcast_tokens g tree ~tokens:[ i ] ~size_words:(fun _ -> 1)
    in
    trace.Congest.Engine.rounds
  in
  let calibrate touched =
    match config.mode with
    | Fully_distributed | Distributed_touched ->
      List.filter (fun i -> sets.Sets.sets.(i) <> []) touched
    | Centralized_calibrated -> (
      match List.filter (fun i -> sets.Sets.sets.(i) <> []) touched with
      | [] -> []
      | i :: _ -> [ i ])
  in
  let evaluate i =
    match eval_dist i with
    | Some e ->
      discrepancy := Float.max !discrepancy (Float.abs (e.Inner.value -. !model_values.(i)));
      Some e
    | None -> None
  in
  let triple =
    Dqo.Framework.make
      ~name:("thm11-" ^ match objective with Diameter -> "diameter" | Radius -> "radius")
      ~direction:
        (match objective with Diameter -> Dqo.Optimize.Maximize | Radius -> Dqo.Optimize.Minimize)
      ~compare ~setup ~evaluate
      ~eval_rounds:(fun (e : Inner.eval) -> e.Inner.total_rounds)
      ~setup_cost:broadcast_rounds ~calibrate ~finalize:broadcast_rounds ()
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
  let vstar = extremal_node g objective in
  let scale = Sets.check_good_scale sets ~vstar in
  let within_guarantee =
    let ex = float_of_int exact in
    let ub = ((1.0 +. params.Params.eps) ** 2.0) *. ex in
    estimate >= ex -. 1e-6 && estimate <= ub +. 1e-6
  in
  let best_source =
    match eval_dist outcome.Dqo.Framework.best_idx with
    | Some e -> Some e.Inner.best_s
    | None -> None
    | exception _ -> None
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
    value_discrepancy = !discrepancy;
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
