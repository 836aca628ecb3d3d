(* Theorem 1.1 benches: measured round scaling vs n (the headline
   Õ(n^{9/10} D^{3/10}) shape), approximation quality, and the
   quantum-vs-classical crossover in D. *)

module J = Telemetry.Json

let scaling () =
  Bench_common.section
    "THEOREM 1.1 — scaling: measured rounds vs n at (near-)fixed D (sweep harness)";
  (* This section is the harness's thm11-scaling sweep: jobs run over
     the domain pool, every result is checkpointed under the artifact
     dir (re-running the bench resumes instead of recomputing), and
     the fit comes from the same Harness.Fit path the CI gate uses. *)
  let spec = Harness.Spec.thm11_scaling in
  let store =
    Harness.Store.load
      ~path:(Filename.concat (Bench_common.artifact_dir ()) "thm11_scaling.jsonl") ()
  in
  let executed, failures = Harness.Runner.run spec store in
  Bench_common.note "sweep %s: %d jobs executed (%d resumed from checkpoint), %d failed"
    spec.Harness.Spec.name executed
    (Harness.Store.count store - executed)
    failures;
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("n", Util.Table.Right);
          ("D_G", Util.Table.Right);
          ("median measured rounds (3 seeds)", Util.Table.Right);
          ("formula n^.9 D^.3", Util.Table.Right);
          ("worst ratio", Util.Table.Right);
          ("all within guar.", Util.Table.Left);
        ]
  in
  let row_of_job j =
    Option.bind (Harness.Store.find store j.Harness.Spec.id) (fun raw ->
        Result.to_option (J.parse raw))
  in
  let num field v = Option.bind (J.member field v) J.to_float_opt in
  let fpoints = ref [] in
  List.iter
    (fun n_target ->
      let cell =
        List.filter
          (fun j -> j.Harness.Spec.n = n_target)
          (Harness.Spec.jobs spec)
      in
      let rows = List.filter_map row_of_job cell in
      let g = Harness.Runner.make_graph spec ~n:n_target ~seed:(List.hd spec.Harness.Spec.seeds) in
      let n = Graphlib.Wgraph.n g in
      let d = Bench_common.d_unweighted g in
      let rounds_med =
        Util.Stats.median (List.filter_map (num "rounds") rows)
      in
      let worst_ratio = Util.Stats.maxf (List.filter_map (num "ratio") rows) in
      let all_guar = List.for_all (fun v -> J.member "within" v = Some (J.Bool true)) rows in
      let formula = Core.Params.theorem_1_1_rounds ~n ~d in
      fpoints := (float_of_int n, formula) :: !fpoints;
      Util.Table.add_row t
        [
          string_of_int n;
          string_of_int d;
          Bench_common.fmt_large rounds_med;
          Bench_common.fmt_large formula;
          Printf.sprintf "%.3f" worst_ratio;
          Util.Table.cell_bool all_guar;
        ])
    spec.Harness.Spec.sizes;
  Util.Table.print t;
  let series = Harness.Runner.series_points spec store in
  let points = Option.value ~default:[] (List.assoc_opt "thm11-diameter" series) in
  let slope, r2 = Bench_common.fit_exponent points in
  let fslope, _ = Bench_common.fit_exponent (List.rev !fpoints) in
  Bench_common.note "measured log-log slope vs n: %.3f (r^2 = %.3f)" slope r2;
  Bench_common.note "formula slope on same points:  %.3f (paper: 9/10 = 0.9 at fixed D)" fslope;
  let verdict = Harness.Fit.evaluate spec.Harness.Spec.gates ~series in
  List.iter
    (fun (c : Harness.Fit.check) ->
      Bench_common.note "gate %s: %s — %s" c.Harness.Fit.series
        (if c.Harness.Fit.pass then "pass" else "FAIL")
        c.Harness.Fit.reason)
    verdict.Harness.Fit.checks;
  Bench_common.note "wrote %s"
    (Telemetry.Export.write_artifact ~name:"thm11_scaling.sweep.json"
       (J.print (Harness.Runner.report spec store)));
  Bench_common.note
    "At these n the paper's parameters are degenerate (l = n log n / r clamps to n,";
  Bench_common.note
    "since r > log n only for n >~ 1000), so the end-to-end constants swamp the";
  Bench_common.note
    "trend; the decomposition below isolates the Lemma 3.5 shape at larger n."

(* Part B: Lemma 3.5 cost decomposition at scale. One pipeline run per
   n measures T0 (Initialization), T1 (Setup) and T2 (Evaluation) for a
   Good-Scale-sized set; composing them with the verified iteration
   counts sqrt(n/r) and sqrt(r) gives the algorithm's round complexity
   and lets us compare the measured terms against the paper's analytic
   expressions term by term. *)
let decomposition () =
  Bench_common.section
    "THEOREM 1.1 — Lemma 3.5 cost decomposition (measured terms vs analytic)";
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("n", Util.Table.Right);
          ("D_G", Util.Table.Right);
          ("|S|", Util.Table.Right);
          ("T0 meas", Util.Table.Right);
          ("T0 model", Util.Table.Right);
          ("ratio", Util.Table.Right);
          ("T1 meas", Util.Table.Right);
          ("T1 model", Util.Table.Right);
          ("ratio", Util.Table.Right);
          ("T2 meas", Util.Table.Right);
          ("total = sqrt(n/r)(D+T0+sqrt(r)(T1+T2))", Util.Table.Right);
          ("model total", Util.Table.Right);
        ]
  in
  let mpoints = ref [] and apoints = ref [] in
  List.iter
    (fun clique_size ->
      let g =
        Bench_common.ring_of_cliques ~cliques:8 ~clique_size ~max_w:16 ~seed:(clique_size * 13)
      in
      let n = Graphlib.Wgraph.n g in
      let d = Bench_common.d_unweighted g in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let params =
        Core.Params.of_graph_params ~eps_override:0.5 ~n
          ~d_hat:(max 1 (2 * tree.Congest.Tree.depth))
          ()
      in
      let rng = Bench_common.rng (n + 3) in
      (* A Good-Scale set: exactly round(r) uniform nodes. *)
      let b = max 2 (int_of_float (Float.round params.Core.Params.r)) in
      let s = Util.Rng.sample_without_replacement rng ~k:b ~n in
      let ctx =
        {
          Nanongkai.Approx.g;
          tree;
          params = Core.Params.reweight_params params;
          k = params.Core.Params.k;
          rng;
        }
      in
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
      let t0 = emb.Nanongkai.Approx.init_rounds in
      let t1 = ev.Nanongkai.Approx.setup_trace.Congest.Engine.rounds in
      let t2 = ev.Nanongkai.Approx.eval_trace.Congest.Engine.rounds in
      let a0, a1, a2 =
        Core.Params.lemma_3_5_terms_with_logs params ~max_w:(Graphlib.Wgraph.max_weight g)
      in
      let r = params.Core.Params.r in
      let total =
        sqrt (float_of_int n /. r)
        *. (float_of_int d +. float_of_int t0 +. (sqrt r *. float_of_int (t1 + t2)))
      in
      let model =
        sqrt (float_of_int n /. r) *. (float_of_int d +. a0 +. (sqrt r *. (a1 +. a2)))
      in
      mpoints := (float_of_int n, total) :: !mpoints;
      apoints := (float_of_int n, model) :: !apoints;
      Util.Table.add_row t
        [
          string_of_int n;
          string_of_int d;
          string_of_int b;
          string_of_int t0;
          Bench_common.fmt_large a0;
          Printf.sprintf "%.2f" (float_of_int t0 /. a0);
          string_of_int t1;
          Bench_common.fmt_large a1;
          Printf.sprintf "%.2f" (float_of_int t1 /. a1);
          string_of_int t2;
          Bench_common.fmt_large total;
          Bench_common.fmt_large model;
        ])
    [ 8; 16; 32; 64 ];
  Util.Table.print t;
  let mslope, mr2 = Bench_common.fit_exponent (List.rev !mpoints) in
  let aslope, ar2 = Bench_common.fit_exponent (List.rev !apoints) in
  Bench_common.note "measured-total log-log slope vs n:   %.3f (r^2 = %.3f)" mslope mr2;
  Bench_common.note "explicit-log model slope, same pts:  %.3f (r^2 = %.3f)" aslope ar2;
  let asym =
    List.map
      (fun n -> (float_of_int n, Core.Params.theorem_1_1_rounds ~n ~d:9))
      [ 64; 128; 256; 512 ]
  in
  let aslope2, _ = Bench_common.fit_exponent asym in
  Bench_common.note "log-free asymptotic n^{9/10}D^{3/10} slope: %.3f" aslope2;
  Bench_common.note
    "The measured terms track the explicit-log model (near-constant ratios),";
  Bench_common.note
    "validating that the implementation pays exactly the Lemma 3.5 costs; the gap";
  Bench_common.note
    "between both slopes and 0.9 is the polylog the O~() hides (l = n log n / r";
  Bench_common.note "times scales x lambda ~ log^2), which dominates until n >> 10^3."

let quality () =
  Bench_common.section "THEOREM 1.1 — approximation quality across graph families";
  let t =
    Util.Table.create
      ~headers:
        [ "family"; "objective"; "n"; "D_G"; "estimate"; "exact"; "ratio"; "(1+eps)^2 cap";
          "within"; "good-scale"; "congestion ok" ]
  in
  let families =
    [
      ("ring-of-cliques", fun seed -> Bench_common.ring_of_cliques ~cliques:6 ~clique_size:8 ~max_w:20 ~seed);
      ( "gnp(48,0.12)",
        fun seed ->
          Graphlib.Gen.gnp_connected ~n:48 ~p:0.12
            ~weighting:(Graphlib.Gen.Uniform { max_w = 25 })
            ~rng:(Bench_common.rng seed) );
      ( "grid 6x8",
        fun seed ->
          Graphlib.Gen.grid ~rows:6 ~cols:8
            ~weighting:(Graphlib.Gen.Uniform { max_w = 9 })
            ~rng:(Bench_common.rng seed) );
      ( "weighted-hard(48)",
        fun seed ->
          Graphlib.Gen.weighted_hard_diameter ~n:48 ~heavy:500 ~rng:(Bench_common.rng seed) );
    ]
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun (objective, oname) ->
          let g = make 11 in
          let r = Core.Algorithm.run g objective ~rng:(Bench_common.rng 12) in
          Util.Table.add_row t
            [
              name;
              oname;
              string_of_int (Graphlib.Wgraph.n g);
              string_of_int r.Core.Algorithm.d_unweighted;
              Printf.sprintf "%.1f" r.Core.Algorithm.estimate;
              string_of_int r.Core.Algorithm.exact;
              Printf.sprintf "%.4f" r.Core.Algorithm.ratio;
              Printf.sprintf "%.4f" ((1.0 +. r.Core.Algorithm.params.Core.Params.eps) ** 2.0);
              Util.Table.cell_bool r.Core.Algorithm.within_guarantee;
              Util.Table.cell_bool r.Core.Algorithm.good_scale;
              Util.Table.cell_bool r.Core.Algorithm.congestion_ok;
            ])
        [ (Core.Algorithm.Diameter, "diameter"); (Core.Algorithm.Radius, "radius") ])
    families;
  Util.Table.print t

let crossover () =
  Bench_common.section
    "CROSSOVER — quantum advantage iff D = o(n^{1/3}) (fix n, sweep D)";
  let n_target = 96 in
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("cliques", Util.Table.Right);
          ("n", Util.Table.Right);
          ("D_G", Util.Table.Right);
          ("quantum formula", Util.Table.Right);
          ("classical formula (n)", Util.Table.Right);
          ("quantum wins (formula)", Util.Table.Left);
          ("measured quantum (median)", Util.Table.Right);
          ("measured classical APSP", Util.Table.Right);
        ]
  in
  List.iter
    (fun cliques ->
      let clique_size = n_target / cliques in
      let g = Bench_common.chain_of_cliques ~cliques ~clique_size ~max_w:16 ~seed:(cliques * 3) in
      let n = Graphlib.Wgraph.n g in
      let d = Bench_common.d_unweighted g in
      let qrounds =
        Util.Stats.median
          (Util.Domain_pool.map_list
             (fun i ->
               let q =
                 Core.Algorithm.run g Core.Algorithm.Diameter
                   ~rng:(Bench_common.rng (cliques + 50 + i))
               in
               float_of_int q.Core.Algorithm.rounds)
             [ 0; 1; 2 ])
      in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let c = Baselines.All_pairs.diameter g ~tree in
      let qf = Core.Params.theorem_1_1_rounds ~n ~d in
      Util.Table.add_row t
        [
          string_of_int cliques;
          string_of_int n;
          string_of_int d;
          Bench_common.fmt_large qf;
          string_of_int n;
          Util.Table.cell_bool (qf < float_of_int n);
          Bench_common.fmt_large qrounds;
          string_of_int c.Baselines.All_pairs.rounds;
        ])
    [ 1; 2; 4; 8; 16; 24 ];
  Util.Table.print t;
  Bench_common.note "formula crossover at D = n^{1/3} = %.1f for n = %d"
    (Baselines.Table1.crossover_d ~n:n_target) n_target;
  Bench_common.note
    "Measured quantum rounds carry the algorithm's large polylog constants (the";
  Bench_common.note
    "paper hides them in the tilde); the formula column shows the asymptotic shape,";
  Bench_common.note "and the measured column shows its monotone growth in D."

let run () =
  scaling ();
  decomposition ();
  quality ();
  crossover ()
