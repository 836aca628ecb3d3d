type ctx = {
  g : Graphlib.Wgraph.t;
  tree : Congest.Tree.t;
  params : Graphlib.Reweight.params;
  k : int;
  rng : Util.Rng.t;
}

type embedded = {
  ctx : ctx;
  s_nodes : int array;
  dtilde_ell : float array array;
  overlay : Overlay.t;
  init_trace : Congest.Engine.trace;
  init_rounds : int;
  congestion_ok : bool;
}

type source_eval = {
  s : int;
  s_idx : int;
  approx_dist : float array;
  approx_ecc : float;
  setup_trace : Congest.Engine.trace;
  eval_trace : Congest.Engine.trace;
}

let initialize ctx ~s =
  let s_nodes = Array.of_list (List.sort_uniq compare s) in
  if Array.length s_nodes = 0 then invalid_arg "Approx.initialize: empty S";
  let alg3 = Alg3.run ctx.g ~tree:ctx.tree ~sources:s_nodes ~params:ctx.params ~rng:ctx.rng in
  let b = Array.length s_nodes in
  (* Restrict d̃^ℓ to S×S to obtain w'_S; symmetrize (the two directions
     agree up to the scale acceptance tie, take the min). *)
  let w1 =
    Array.init b (fun i ->
        Array.init b (fun j ->
            if i = j then 0.0
            else
              Float.min
                alg3.Alg3.dtilde.(i).(s_nodes.(j))
                alg3.Alg3.dtilde.(j).(s_nodes.(i))))
  in
  let overlay = Overlay.embed ctx.g ~tree:ctx.tree ~s_nodes ~w1 ~k:ctx.k in
  let stretched_concurrent =
    {
      alg3.Alg3.concurrent_trace with
      Congest.Engine.rounds =
        alg3.Alg3.concurrent_trace.Congest.Engine.rounds * alg3.Alg3.stretch;
    }
  in
  let init_trace =
    Congest.Engine.add_traces alg3.Alg3.delay_trace
      (Congest.Engine.add_traces stretched_concurrent overlay.Overlay.trace)
  in
  {
    ctx;
    s_nodes;
    dtilde_ell = alg3.Alg3.dtilde;
    overlay;
    init_trace;
    init_rounds = init_trace.Congest.Engine.rounds;
    congestion_ok = alg3.Alg3.congestion_ok;
  }

let eval_source emb ~s_idx =
  let ctx = emb.ctx in
  let b = Array.length emb.s_nodes in
  if s_idx < 0 || s_idx >= b then invalid_arg "Approx.eval_source";
  let n = Graphlib.Wgraph.n ctx.g in
  (* Setup: the leader collects S (O(D + r)): each member holds its
     own id, the same gather for every source of the set ... *)
  let collect_trace =
    Congest.Tree.gather_trace emb.overlay.Overlay.gathers ctx.g ctx.tree ~holders:emb.s_nodes
  in
  (* ... and Algorithm 5 disseminates the overlay row of s. *)
  let alg5 =
    Alg5.run ctx.g ~tree:ctx.tree ~overlay:emb.overlay ~eps:ctx.params.Graphlib.Reweight.eps
      ~src_idx:s_idx
  in
  let setup_trace = Congest.Engine.add_traces collect_trace alg5.Alg5.trace in
  (* Every node combines locally: no communication. *)
  let approx_dist =
    Array.init n (fun v ->
        let best = ref Float.infinity in
        for j = 0 to b - 1 do
          let cand = alg5.Alg5.row.(j) +. emb.dtilde_ell.(j).(v) in
          if cand < !best then best := cand
        done;
        !best)
  in
  (* Evaluation: convergecast of the maximum (O(D) rounds). *)
  let approx_ecc, eval_trace =
    Congest.Tree.convergecast ctx.g ctx.tree ~values:approx_dist ~combine:Float.max
      ~size_words:(fun _ -> 1)
  in
  { s = emb.s_nodes.(s_idx); s_idx; approx_dist; approx_ecc; setup_trace; eval_trace }

let eval_all emb = Array.init (Array.length emb.s_nodes) (fun s_idx -> eval_source emb ~s_idx)
