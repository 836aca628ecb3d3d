type group_eval = {
  ecc : (int * int) list;  (* (node, measured eccentricity) for the group *)
  rounds : int;
}

type result = {
  extremal : int;
  exact : int;
  correct : bool;
  rounds : int;
  group_size : int;
  groups : int;
  outer_iterations : int;
  outer_measurements : int;
  t_eval_bound : int;
  ecc_known : (int * int) list;
  coverage : int;
  ecc_ok : bool;
}

let run g ~rng ?(delta = 0.1) ?(c = 3.0) ~direction () =
  let topo = Graphlib.Wgraph.with_unit_weights g in
  let n = Graphlib.Wgraph.n topo in
  if n < 2 then invalid_arg "Wwy_ecc: need n >= 2";
  if not (Graphlib.Wgraph.is_connected topo) then invalid_arg "Wwy_ecc: disconnected graph";
  let tree, tree_trace = Congest.Tree.build topo ~root:0 in
  let d_hat = max 1 (2 * tree.Congest.Tree.depth) in
  let x = Util.Int_math.clamp ~lo:1 ~hi:n d_hat in
  let groups = Util.Int_math.ceil_div n x in
  let group_members gi = List.init (min x (n - (gi * x))) (fun j -> (gi * x) + j) in
  (* Centralized model eccentricities driving the amplification
     masses; the measured Evaluations below must reproduce them. *)
  let model_ecc = Array.init n (fun src -> Graphlib.Bfs.eccentricity topo ~src) in
  let opt, worst =
    match (direction : Dqo.Optimize.direction) with
    | Maximize -> (max, 0)
    | Minimize -> (min, Graphlib.Dist.inf)
  in
  let group_value gi =
    List.fold_left (fun acc v -> opt acc model_ecc.(v)) worst (group_members gi)
  in
  let values = Array.init groups group_value in
  let exact = Array.fold_left opt worst values in
  (* Evaluation(gi): the group's pipelined BFS flood (x sources at
     once), then one convergecast per member — measured once and
     pipelined across the remaining members at one extra round each.
     Each member's eccentricity is the column maximum of the flood's
     distance table, aggregated bottom-up for real. *)
  let evaluate gi =
    let members = group_members gi in
    let flood = All_pairs.run topo ~sources:members in
    let ecc_of v =
      let e = ref 0 in
      Array.iteri (fun _u row -> e := max !e row.(v)) flood.All_pairs.dist;
      !e
    in
    let ecc = List.map (fun v -> (v, ecc_of v)) members in
    let first = List.hd members in
    let _, cc =
      Congest.Tree.convergecast topo tree
        ~values:(Array.map (fun row -> row.(first)) flood.All_pairs.dist)
        ~combine:max
        ~size_words:(fun _ -> 1)
    in
    let rounds =
      flood.All_pairs.trace.Congest.Engine.rounds
      + cc.Congest.Engine.rounds
      + (List.length members - 1)
    in
    Some { ecc; rounds }
  in
  let triple =
    Dqo.Framework.make
      ~name:(match direction with Maximize -> "wwy-ecc-max" | Minimize -> "wwy-ecc-min")
      ~direction ~compare
      ~setup:(fun () ->
        {
          Dqo.Framework.weights = Array.make groups 1.0;
          values;
          rho = 1.0 /. float_of_int groups;
          init_rounds = tree_trace.Congest.Engine.rounds;
        })
      ~evaluate
      ~eval_rounds:(fun e -> e.rounds)
      ~setup_cost:(fun _ -> tree.Congest.Tree.depth + 1)
      ~finalize:(Congest.Tree.broadcast_rounds topo tree) ()
  in
  let o = Dqo.Framework.run ~rng ~delta ~c triple in
  let ecc_known =
    List.concat_map (fun (_, e) -> e.ecc) o.Dqo.Framework.evals
    |> List.sort_uniq compare
  in
  let ecc_ok = List.for_all (fun (v, e) -> e = model_ecc.(v)) ecc_known in
  let ledger = o.Dqo.Framework.ledger in
  {
    extremal = o.Dqo.Framework.best_value;
    exact;
    correct = o.Dqo.Framework.best_value = exact;
    rounds = o.Dqo.Framework.rounds;
    group_size = x;
    groups;
    outer_iterations = ledger.Dqo.Cost.grover_iterations;
    outer_measurements = ledger.Dqo.Cost.measurements;
    t_eval_bound = o.Dqo.Framework.t_eval_bound;
    ecc_known;
    coverage = List.length ecc_known;
    ecc_ok;
  }

let max_eccentricity g ~rng ?delta ?c () =
  run g ~rng ?delta ?c ~direction:Dqo.Optimize.Maximize ()

let min_eccentricity g ~rng ?delta ?c () =
  run g ~rng ?delta ?c ~direction:Dqo.Optimize.Minimize ()
