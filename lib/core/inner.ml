type objective = Dqo.Optimize.direction = Maximize | Minimize

type eval = {
  value : float;
  best_s : int;
  t0 : int;
  t1 : int;
  t2 : int;
  search_rounds : int;
  total_rounds : int;
  inner_iterations : int;
  inner_measurements : int;
  congestion_ok : bool;
}

type prepared = {
  emb : Nanongkai.Approx.embedded;
  source_values : float array;
  t0 : int;
  t1 : int;
  t2 : int;
  congestion_ok : bool;
}

let worst_value = function Maximize -> Float.neg_infinity | Minimize -> Float.infinity

let prepare ~ctx ~s =
  match s with
  | [] -> None
  | _ ->
    let emb = Nanongkai.Approx.initialize ctx ~s in
    (* All sources evaluated through the real pipeline; the quantum
       search below charges only what it touches. *)
    let evals = Nanongkai.Approx.eval_all emb in
    let source_values = Array.map (fun e -> e.Nanongkai.Approx.approx_ecc) evals in
    let t1 =
      Array.fold_left
        (fun acc e -> max acc e.Nanongkai.Approx.setup_trace.Congest.Engine.rounds)
        0 evals
    in
    let t2 =
      Array.fold_left
        (fun acc e -> max acc e.Nanongkai.Approx.eval_trace.Congest.Engine.rounds)
        0 evals
    in
    Some
      {
        emb;
        source_values;
        t0 = emb.Nanongkai.Approx.init_rounds;
        t1;
        t2;
        congestion_ok = emb.Nanongkai.Approx.congestion_ok;
      }

let search prep ~objective ~delta ~c ~rng =
  let b = Array.length prep.source_values in
  let cost = { Dqo.Cost.setup_rounds = prep.t1; eval_rounds = prep.t2 } in
  let weights = Array.make b 1.0 in
  let rho = 1.0 /. float_of_int b in
  let report =
    Dqo.Optimize.search ~direction:objective ~rng ~weights ~values:prep.source_values ~compare
      ~rho ~delta ~c ~cost ()
  in
  let ledger = report.Dqo.Optimize.ledger in
  {
    value = report.Dqo.Optimize.best_value;
    best_s = prep.emb.Nanongkai.Approx.s_nodes.(report.Dqo.Optimize.best_idx);
    t0 = prep.t0;
    t1 = prep.t1;
    t2 = prep.t2;
    search_rounds = ledger.Dqo.Cost.search_rounds;
    total_rounds = prep.t0 + ledger.Dqo.Cost.search_rounds;
    inner_iterations = ledger.Dqo.Cost.grover_iterations;
    inner_measurements = ledger.Dqo.Cost.measurements;
    congestion_ok = prep.congestion_ok;
  }

(* The table is made by the partial application [eval_centralized g
   ~params ~k], so every set priced through one such closure shares it. *)
let eval_centralized g ~params ~k =
  let table = Graphlib.Reweight.table g params in
  fun ~objective ~s ->
    match s with
    | [] -> None
    | _ ->
      let sk = Graphlib.Skeleton.build table ~s ~k in
      let nodes = Graphlib.Skeleton.s_nodes sk in
      let best = ref (worst_value objective) in
      Array.iter
        (fun sn ->
          let e = Graphlib.Skeleton.approx_eccentricity sk ~s:sn in
          match objective with
          | Maximize -> if e > !best then best := e
          | Minimize -> if e < !best then best := e)
        nodes;
      Some !best
