type result = {
  value : int;
  exact : int;
  correct : bool;
  rounds : int;
  group_size : int;
  groups : int;
  outer_iterations : int;
  outer_measurements : int;
  t_eval_bound : int;
}

let run g ~rng ?(delta = 0.1) ?(c = 3.0) ~direction () =
  let topo = Graphlib.Wgraph.with_unit_weights g in
  let n = Graphlib.Wgraph.n topo in
  if n < 2 then invalid_arg "Legall_magniez: need n >= 2";
  let tree, tree_trace = Congest.Tree.build topo ~root:0 in
  let d_hat = max 1 (2 * tree.Congest.Tree.depth) in
  let x = Util.Int_math.clamp ~lo:1 ~hi:n d_hat in
  let groups = Util.Int_math.ceil_div n x in
  let group_members gi = List.init (min x (n - (gi * x))) (fun j -> (gi * x) + j) in
  (* Centralized group values for the amplification masses. *)
  let ecc = Array.init n (fun src -> Graphlib.Bfs.eccentricity topo ~src) in
  let opt, worst =
    match (direction : Dqo.Optimize.direction) with
    | Maximize -> (max, 0)
    | Minimize -> (min, Graphlib.Dist.inf)
  in
  let group_value gi =
    List.fold_left (fun acc v -> opt acc ecc.(v)) worst (group_members gi)
  in
  let values = Array.init groups group_value in
  let exact = Array.fold_left opt worst values in
  (* The baseline as a (Setup, Evaluation, predicate) triple: Setup is
     the uniform superposition over groups plus the group-index
     broadcast (depth+1 rounds); Evaluation runs the group's [x]
     pipelined BFS's for real and aggregates the extremal eccentricity
     with one convergecast. *)
  let triple =
    Dqo.Framework.make
      ~name:(match direction with Maximize -> "lm-diameter" | Minimize -> "lm-radius")
      ~direction ~compare
      ~setup:(fun () ->
        {
          Dqo.Framework.weights = Array.make groups 1.0;
          values;
          rho = 1.0 /. float_of_int groups;
          init_rounds = tree_trace.Congest.Engine.rounds;
        })
      ~evaluate:(fun gi ->
        let out = All_pairs.run topo ~sources:(group_members gi) in
        (* The group's extremal eccentricity would be aggregated by one
           extra convergecast. *)
        let _, cc =
          Congest.Tree.convergecast topo tree
            ~values:(Array.make n 0)
            ~combine:max
            ~size_words:(fun _ -> 1)
        in
        Some (out.All_pairs.trace.Congest.Engine.rounds + cc.Congest.Engine.rounds))
      ~eval_rounds:(fun r -> r)
      ~setup_cost:(fun _ -> tree.Congest.Tree.depth + 1)
      ()
  in
  let outcome = Dqo.Framework.run ~rng ~delta ~c triple in
  let ledger = outcome.Dqo.Framework.ledger in
  {
    value = outcome.Dqo.Framework.best_value;
    exact;
    correct = outcome.Dqo.Framework.best_value = exact;
    rounds = outcome.Dqo.Framework.rounds;
    group_size = x;
    groups;
    outer_iterations = ledger.Dqo.Cost.grover_iterations;
    outer_measurements = ledger.Dqo.Cost.measurements;
    t_eval_bound = outcome.Dqo.Framework.t_eval_bound;
  }

let diameter g ~rng ?delta ?c () = run g ~rng ?delta ?c ~direction:Dqo.Optimize.Maximize ()
let radius g ~rng ?delta ?c () = run g ~rng ?delta ?c ~direction:Dqo.Optimize.Minimize ()
