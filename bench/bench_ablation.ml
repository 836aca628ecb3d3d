(* Ablations for the design choices DESIGN.md calls out:
   (1) the k-shortcut trade-off that Eq. (1) optimizes, and
   (2) nested two-level quantum search vs the naive strategies §1.1
   rules out. *)

let knn_tradeoff () =
  Bench_common.section
    "ABLATION — k-shortcut trade-off: T0 carries +rk, T1 carries r/(eps*k)*D";
  let g =
    Graphlib.Gen.gnp_connected ~n:40 ~p:0.12
      ~weighting:(Graphlib.Gen.Uniform { max_w = 12 })
      ~rng:(Bench_common.rng 3)
  in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let rng = Bench_common.rng 4 in
  let s = List.sort_uniq compare (0 :: Util.Rng.subset_bernoulli rng ~n:40 ~p:0.3) in
  let params = { Graphlib.Reweight.ell = 30; eps = 0.5 } in
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("k", Util.Table.Right);
          ("T0 (init: alg3+alg4)", Util.Table.Right);
          ("T1 (setup: alg5)", Util.Table.Right);
          ("T2 (eval)", Util.Table.Right);
          ("T0+sqrt(r)(T1+T2)", Util.Table.Right);
          ("overlay hop budget 4b/k", Util.Table.Right);
        ]
  in
  (* Each k gets its own seeded stream (instead of splitting one shared
     rng in loop order) so the per-k embeddings are independent pure
     functions — the precondition for fanning them across domains. *)
  let rows =
    Util.Domain_pool.map_list
      (fun k ->
        let ctx =
          { Nanongkai.Approx.g; tree; params; k; rng = Bench_common.rng (40 + k) }
        in
        let emb = Nanongkai.Approx.initialize ctx ~s in
        let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
        let b = Array.length emb.Nanongkai.Approx.s_nodes in
        let t0 = emb.Nanongkai.Approx.init_rounds in
        let t1 = ev.Nanongkai.Approx.setup_trace.Congest.Engine.rounds in
        let t2 = ev.Nanongkai.Approx.eval_trace.Congest.Engine.rounds in
        let total =
          float_of_int t0 +. (sqrt (float_of_int b) *. float_of_int (t1 + t2))
        in
        [
          string_of_int k;
          string_of_int t0;
          string_of_int t1;
          string_of_int t2;
          Bench_common.fmt_large total;
          string_of_int (Util.Int_math.ceil_div (4 * b) k);
        ])
      [ 1; 2; 4; 8 ]
  in
  List.iter (Util.Table.add_row t) rows;
  Util.Table.print t;
  Bench_common.note
    "Larger k: alg4 broadcasts more shortcut edges (T0 up) but the overlay hop";
  Bench_common.note
    "budget 4|S|/k shrinks so alg5 runs fewer emulated rounds (T1 down) — the";
  Bench_common.note "trade Eq. (1) balances with k = sqrt(D)."

let search_strategies () =
  Bench_common.section
    "ABLATION — search strategy (the Θ(n) trap of §1.1 vs the nested search)";
  let g = Bench_common.ring_of_cliques ~cliques:8 ~clique_size:8 ~max_w:16 ~seed:9 in
  let n = Graphlib.Wgraph.n g in
  let d = Bench_common.d_unweighted g in
  (* (a) Classical exhaustive: evaluate every node's eccentricity via a
     full SSSP wavefront each. *)
  let sssp_rounds =
    let out = Nanongkai.Alg2.run g ~src:0 ~bound:(n * Graphlib.Wgraph.max_weight g) in
    out.Nanongkai.Alg2.trace.Congest.Engine.rounds + 2
  in
  let exhaustive_rounds = n * sssp_rounds in
  (* (b) Naive single-level Grover over nodes: sqrt(n) evaluations of a
     sqrt(n)-ish SSSP each — the paper's Θ(n) observation. *)
  let iters =
    Dqo.Optimize.budget_for ~rho:(1.0 /. float_of_int n) ~delta:0.1 ~c:3.0
  in
  let naive_rounds = (2 * iters * sssp_rounds) + (iters * sssp_rounds / 2) in
  (* (c) The paper's nested two-level search (measured, with the same
     accounting as every other Theorem 1.1 run). *)
  let nested = Core.Algorithm.run g Core.Algorithm.Diameter ~rng:(Bench_common.rng 10) in
  let t =
    Util.Table.create
      ~headers:[ "strategy"; "evaluations/iterations"; "rounds"; "paper's prediction" ]
  in
  Util.Table.add_row t
    [
      "classical exhaustive (n SSSPs)";
      string_of_int n;
      string_of_int exhaustive_rounds;
      "Theta(n * ecc)";
    ];
  Util.Table.add_row t
    [
      "naive 1-level Grover over nodes";
      string_of_int iters;
      string_of_int naive_rounds;
      "Theta(sqrt(n) * sqrt(n)) = Theta(n) — no gain";
    ];
  Util.Table.add_row t
    [
      "nested search over sets (this work)";
      Printf.sprintf "%d outer + %d inner" nested.Core.Algorithm.outer_iterations
        nested.Core.Algorithm.inner_iterations_total;
      string_of_int nested.Core.Algorithm.rounds;
      "Õ(n^{9/10} D^{3/10})";
    ];
  Util.Table.print t;
  Bench_common.note "n = %d, D_G = %d. The nested structure's win is asymptotic; what the" n d;
  Bench_common.note
    "table shows concretely is the iteration accounting: sqrt(n/r) outer x sqrt(r)";
  Bench_common.note "inner evaluations instead of n classical ones."

let random_delays () =
  Bench_common.section
    "ABLATION — Algorithm 3's random delays (the Lemma A.2 congestion mechanism)";
  (* A star network is the worst case: every instance's traffic crosses
     the hub. Compare peak per-edge load with and without delays. *)
  let g = Graphlib.Gen.star ~n:48 ~weighting:Graphlib.Gen.Unit ~rng:(Bench_common.rng 1) in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let params = { Graphlib.Reweight.ell = 24; eps = 0.5 } in
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("sources b", Util.Table.Right);
          ("lambda", Util.Table.Right);
          ("peak load, zero delays", Util.Table.Right);
          ("peak load, random delays", Util.Table.Right);
          ("violations @ lambda (zero)", Util.Table.Right);
          ("violations @ lambda (random)", Util.Table.Right);
        ]
  in
  (* Already seeded per b — safe to fan the four source counts out. *)
  let rows =
    Util.Domain_pool.map_list
      (fun b ->
        let sources = Array.init b (fun i -> i + 1) in
        let rng = Bench_common.rng (b * 5) in
        let zero =
          Nanongkai.Alg3.run ~delays_override:(Array.make b 0) g ~tree ~sources ~params ~rng
        in
        let rnd = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
        [
          string_of_int b;
          string_of_int rnd.Nanongkai.Alg3.stretch;
          string_of_int zero.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load;
          string_of_int rnd.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load;
          string_of_int zero.Nanongkai.Alg3.concurrent_trace.Congest.Engine.congestion_violations;
          string_of_int rnd.Nanongkai.Alg3.concurrent_trace.Congest.Engine.congestion_violations;
        ])
      [ 4; 8; 16; 32 ]
  in
  List.iter (Util.Table.add_row t) rows;
  Util.Table.print t;
  Bench_common.note
    "Zero delays synchronize every instance's per-scale broadcasts onto the same";
  Bench_common.note
    "rounds (peak load ~ b); random delays in [0, b*lambda] spread them out, keeping";
  Bench_common.note "the peak within the lambda = ceil(log2 n) words the model allows."

let run () =
  knn_tradeoff ();
  random_delays ();
  search_strategies ()
