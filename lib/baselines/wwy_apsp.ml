type result = {
  diameter_estimate : int;
  exact : int;
  correct : bool;
  rounds : int;
  apsp_rounds : int;
  search_rounds : int;
  tokens_sent : int;
  dist_ok : bool;
  outer_iterations : int;
  outer_measurements : int;
}

let run g ~rng ?(delta = 0.1) ?(c = 3.0) () =
  let n = Graphlib.Wgraph.n g in
  if n < 2 then invalid_arg "Wwy_apsp: need n >= 2";
  if not (Graphlib.Wgraph.is_connected g) then invalid_arg "Wwy_apsp: disconnected graph";
  let tree, tree_trace = Congest.Tree.build g ~root:0 in
  (* Initialization IS the answer here: the weighted token-flood APSP
     from every source. Wang–Wu–Yao prove Θ̃(n) rounds with no quantum
     speedup — the flood dominates and the quantum search below only
     locates the farthest pair on top of it. *)
  let flood = All_pairs.run g ~sources:(List.init n (fun i -> i)) in
  let apsp_rounds = flood.All_pairs.trace.Congest.Engine.rounds in
  (* After the flood, node [u] holds its full distance row. The
     weighted eccentricity of [v] is the column maximum — one measured
     convergecast per candidate. *)
  let ecc_of v =
    let e = ref 0 in
    Array.iteri (fun _u row -> e := max !e row.(v)) flood.All_pairs.dist;
    !e
  in
  let values = Array.init n ecc_of in
  let evaluate v =
    let _, cc =
      Congest.Tree.convergecast g tree
        ~values:(Array.map (fun row -> row.(v)) flood.All_pairs.dist)
        ~combine:max
        ~size_words:(fun _ -> 1)
    in
    Some cc.Congest.Engine.rounds
  in
  let triple =
    Dqo.Framework.make ~name:"wwy-apsp" ~direction:Dqo.Optimize.Maximize ~compare
      ~setup:(fun () ->
        {
          Dqo.Framework.weights = Array.make n 1.0;
          values;
          rho = 1.0 /. float_of_int n;
          init_rounds = tree_trace.Congest.Engine.rounds + apsp_rounds;
        })
      ~evaluate
      ~eval_rounds:(fun r -> r)
      ~setup_cost:(fun _ -> tree.Congest.Tree.depth + 1)
      ~finalize:(Congest.Tree.broadcast_rounds g tree) ()
  in
  let o = Dqo.Framework.run ~rng ~delta ~c triple in
  let exact = Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g) in
  (* Full-matrix audit of the flood against the Dijkstra reference:
     flood rows are node-indexed, reference rows source-indexed. *)
  let reference = Graphlib.Apsp.all_distances g in
  let dist_ok =
    try
      Array.iteri
        (fun u row ->
          Array.iteri (fun s d -> if d <> reference.(s).(u) then raise Exit) row)
        flood.All_pairs.dist;
      true
    with Exit -> false
  in
  let ledger = o.Dqo.Framework.ledger in
  {
    diameter_estimate = o.Dqo.Framework.best_value;
    exact;
    correct = o.Dqo.Framework.best_value = exact;
    rounds = o.Dqo.Framework.rounds;
    apsp_rounds;
    search_rounds = ledger.Dqo.Cost.search_rounds;
    tokens_sent = flood.All_pairs.tokens_sent;
    dist_ok;
    outer_iterations = ledger.Dqo.Cost.grover_iterations;
    outer_measurements = ledger.Dqo.Cost.measurements;
  }
