(* Tests for lib/baselines: the classical APSP protocols, the
   Le Gall-Magniez-style unweighted quantum diameter, and Table 1. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let random_graph ?(max_n = 24) ?(max_w = 6) seed =
  let rng = Util.Rng.create ~seed in
  let n = 3 + Util.Rng.int rng (max_n - 2) in
  Graphlib.Gen.gnp_connected ~n ~p:0.2 ~weighting:(Graphlib.Gen.Uniform { max_w }) ~rng

(* ---------------------------- All pairs ---------------------------- *)

let prop_apsp_exact =
  QCheck.Test.make ~name:"token-flood APSP = Dijkstra" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graphlib.Wgraph.n g in
      let out = Baselines.All_pairs.run g ~sources:(List.init n (fun i -> i)) in
      let ok = ref true in
      for s = 0 to n - 1 do
        let reference = Graphlib.Dijkstra.distances g ~src:s in
        for v = 0 to n - 1 do
          if out.Baselines.All_pairs.dist.(v).(s) <> reference.(v) then ok := false
        done
      done;
      !ok)

(* Group floods, as WWY eccentricities, Le Gall-Magniez and the
   3/2-approximation run them: a random subset of sources, listed out
   of order and with one member repeated. *)
let prop_group_flood_exact =
  QCheck.Test.make ~name:"group token flood = Dijkstra on its columns, inf elsewhere" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graphlib.Wgraph.n g in
      let rng = Util.Rng.create ~seed:(seed + 1) in
      let k = 1 + Util.Rng.int rng n in
      let members = Util.Rng.sample_without_replacement rng ~k ~n in
      let order = Array.of_list members in
      Util.Rng.shuffle rng order;
      let sources = Array.to_list order @ [ order.(Util.Rng.int rng k) ] in
      let out = Baselines.All_pairs.run g ~sources in
      List.for_all
        (fun s ->
          let column = Array.map (fun row -> row.(s)) out.Baselines.All_pairs.dist in
          if List.mem s members then column = Graphlib.Dijkstra.distances g ~src:s
          else Array.for_all Graphlib.Dist.is_inf column)
        (List.init n Fun.id))

let prop_apsp_respects_bandwidth =
  QCheck.Test.make ~name:"token flood stays within unit bandwidth" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graphlib.Wgraph.n g in
      let out = Baselines.All_pairs.run g ~sources:(List.init n (fun i -> i)) in
      out.Baselines.All_pairs.trace.Congest.Engine.congestion_violations = 0)

let test_apsp_single_source () =
  let g = random_graph 3 in
  let out = Baselines.All_pairs.run g ~sources:[ 0 ] in
  let reference = Graphlib.Dijkstra.distances g ~src:0 in
  Array.iteri (fun v row -> check "dist" reference.(v) row.(0)) out.Baselines.All_pairs.dist

let test_diameter_radius_exact () =
  let g = random_graph 4 in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let d = Baselines.All_pairs.diameter g ~tree in
  let r = Baselines.All_pairs.radius g ~tree in
  check "diameter" (Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g))
    d.Baselines.All_pairs.value;
  check "radius" (Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_radius g))
    r.Baselines.All_pairs.value;
  checkb "rounds positive" true (d.Baselines.All_pairs.rounds > 0)

let test_apsp_unweighted_rounds_linearish () =
  (* On unweighted cliques-cycle graphs, rounds should be O(n + D)-ish
     — certainly well below n·D. *)
  let rng = Util.Rng.create ~seed:5 in
  let g = Graphlib.Gen.cliques_cycle ~cliques:6 ~clique_size:6 ~weighting:Graphlib.Gen.Unit ~rng in
  let n = Graphlib.Wgraph.n g in
  let out = Baselines.All_pairs.run g ~sources:(List.init n (fun i -> i)) in
  checkb "subquadratic rounds" true
    (out.Baselines.All_pairs.trace.Congest.Engine.rounds < 6 * n)

(* Trace-level golden of the flood itself: every trace field,
   [tokens_sent] and a digest of the whole distance table, from all
   sources, from one unsorted group with a repeated member and from one
   source, on the ci-smoke family at n = 48, 64 and 80. The port and
   CLI goldens pin only the flood's total rounds. *)
let flood_trace_lines () =
  List.concat_map
    (fun n ->
      let g = Harness.Runner.make_graph Harness.Spec.ci_smoke ~n ~seed:1 in
      let n = Graphlib.Wgraph.n g in
      let group = List.init 8 (fun j -> ((13 * j) + 5) mod n) @ [ 5 ] in
      List.map
        (fun (label, sources) ->
          let out = Baselines.All_pairs.run g ~sources in
          let dist =
            String.concat "\n"
              (Array.to_list
                 (Array.map
                    (fun row -> String.concat " " (Array.to_list (Array.map string_of_int row)))
                    out.Baselines.All_pairs.dist))
          in
          Printf.sprintf "n=%d %s %s tokens=%d dist=%s" n label
            (Telemetry.Json.print (Congest.Engine.trace_to_json out.Baselines.All_pairs.trace))
            out.Baselines.All_pairs.tokens_sent
            (Digest.to_hex (Digest.string dist)))
        [ ("all", List.init n Fun.id); ("group", group); ("one", [ n - 1 ]) ])
    [ 48; 64; 80 ]

let test_flood_trace_golden () =
  Alcotest.(check (list string))
    "flood traces"
    [
      {|n=48 all {"rounds":93,"messages":20289,"words":20289,"max_edge_load":1,"congestion_violations":0,"activations":4139,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=3805 dist=e03f2e324db15936b6ca4bdfdb5d41d9|};
      {|n=48 group {"rounds":24,"messages":4150,"words":4150,"max_edge_load":1,"congestion_violations":0,"activations":1046,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=778 dist=2ffed12b3022485c897e462aaf73c37d|};
      {|n=48 one {"rounds":15,"messages":684,"words":684,"max_edge_load":1,"congestion_violations":0,"activations":292,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=128 dist=6742ddc7d6fd611794e06908ea07265a|};
      {|n=64 all {"rounds":115,"messages":44113,"words":44113,"max_edge_load":1,"congestion_violations":0,"activations":6705,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=6092 dist=fdb1763f63bc21f38373584748012590|};
      {|n=64 group {"rounds":26,"messages":7566,"words":7566,"max_edge_load":1,"congestion_violations":0,"activations":1406,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=1044 dist=0b0165a0805db0e47bb651e04cb3cdea|};
      {|n=64 one {"rounds":13,"messages":1128,"words":1128,"max_edge_load":1,"congestion_violations":0,"activations":361,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=156 dist=0df583ff386705ae8baefcbd3850edbf|};
      {|n=80 all {"rounds":196,"messages":104466,"words":104466,"max_edge_load":1,"congestion_violations":0,"activations":12649,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=11362 dist=4622e5f5af4e06974199088a7bcb8463|};
      {|n=80 group {"rounds":32,"messages":14518,"words":14518,"max_edge_load":1,"congestion_violations":0,"activations":2115,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=1579 dist=af047c5027a32668ac13d6d0b6cb2077|};
      {|n=80 one {"rounds":14,"messages":1384,"words":1384,"max_edge_load":1,"congestion_violations":0,"activations":419,"dropped":0,"delayed":0,"duplicated":0,"crashed":0} tokens=151 dist=ecbab18c8243d08f07a1b4c459265e93|};
    ]
    (flood_trace_lines ())

(* -------------------------- Le Gall-Magniez ------------------------ *)

let test_lm_diameter_correct () =
  let rng = Util.Rng.create ~seed:6 in
  let g = Graphlib.Gen.cliques_cycle ~cliques:8 ~clique_size:4 ~weighting:Graphlib.Gen.Unit ~rng in
  let ok = ref 0 in
  for _ = 1 to 10 do
    let r = Baselines.Legall_magniez.diameter g ~rng () in
    if r.Baselines.Legall_magniez.correct then incr ok
  done;
  checkb "mostly correct" true (!ok >= 8)

let test_lm_port_goldens () =
  (* Bit-identity pins for the Dqo.Framework port of the
     Le Gall-Magniez baseline, captured from the pre-framework
     implementation on the ci-smoke harness instance. *)
  let open Baselines.Legall_magniez in
  let golden seed ~drounds ~dom ~rrounds =
    let g = Harness.Runner.make_graph Harness.Spec.ci_smoke ~n:48 ~seed in
    let d = diameter g ~rng:(Util.Rng.create ~seed:(seed * 77)) () in
    check "D value" 9 d.value;
    check "D exact" 9 d.exact;
    checkb "D correct" true d.correct;
    check "D rounds" drounds d.rounds;
    check "D group size" 16 d.group_size;
    check "D groups" 3 d.groups;
    check "D outer iterations" 10 d.outer_iterations;
    check "D outer measurements" dom d.outer_measurements;
    check "D eval bound" 32 d.t_eval_bound;
    let r = radius g ~rng:(Util.Rng.create ~seed:(seed * 78)) () in
    check "R value" 8 r.value;
    check "R exact" 8 r.exact;
    checkb "R correct" true r.correct;
    check "R rounds" rrounds r.rounds
  in
  golden 1 ~drounds:1624 ~dom:19 ~rrounds:1952;
  golden 3 ~drounds:1747 ~dom:22 ~rrounds:1747

let test_lm_radius_correct () =
  let rng = Util.Rng.create ~seed:7 in
  let g = Graphlib.Gen.grid ~rows:5 ~cols:5 ~weighting:Graphlib.Gen.Unit ~rng in
  let r = Baselines.Legall_magniez.radius g ~rng () in
  check "exact radius" (Graphlib.Dist.to_int_exn (Graphlib.Bfs.radius g))
    r.Baselines.Legall_magniez.exact;
  checkb "groups cover" true
    (r.Baselines.Legall_magniez.groups * r.Baselines.Legall_magniez.group_size
    >= Graphlib.Wgraph.n g)

let test_lm_weights_ignored () =
  let rng = Util.Rng.create ~seed:8 in
  let g =
    Graphlib.Gen.cliques_cycle ~cliques:6 ~clique_size:4
      ~weighting:(Graphlib.Gen.Uniform { max_w = 50 })
      ~rng
  in
  let r = Baselines.Legall_magniez.diameter g ~rng () in
  check "unweighted exact" (Graphlib.Dist.to_int_exn (Graphlib.Bfs.diameter g))
    r.Baselines.Legall_magniez.exact

(* ----------------------- Wang–Wu–Yao (2206.02766) ------------------ *)

let test_wwy_ecc_measured_match_oracle () =
  let rng = Util.Rng.create ~seed:12 in
  let g =
    Graphlib.Gen.cliques_cycle ~cliques:8 ~clique_size:4
      ~weighting:(Graphlib.Gen.Uniform { max_w = 30 })
      ~rng
  in
  let ok = ref 0 in
  for _ = 1 to 8 do
    let r = Baselines.Wwy_ecc.max_eccentricity g ~rng () in
    checkb "every measured ecc equals BFS" true r.Baselines.Wwy_ecc.ecc_ok;
    checkb "coverage positive" true (r.Baselines.Wwy_ecc.coverage > 0);
    check "exact = hop diameter (weights ignored)"
      (Graphlib.Dist.to_int_exn (Graphlib.Bfs.diameter g))
      r.Baselines.Wwy_ecc.exact;
    if r.Baselines.Wwy_ecc.correct then incr ok
  done;
  checkb "agreement with exhaustive reference >= 1-delta" true (!ok >= 6)

let test_wwy_ecc_bracket () =
  let rng = Util.Rng.create ~seed:14 in
  let g = Graphlib.Gen.grid ~rows:5 ~cols:5 ~weighting:Graphlib.Gen.Unit ~rng in
  let rmax = Baselines.Wwy_ecc.max_eccentricity g ~rng () in
  let rmin = Baselines.Wwy_ecc.min_eccentricity g ~rng () in
  check "min exact = hop radius"
    (Graphlib.Dist.to_int_exn (Graphlib.Bfs.radius g))
    rmin.Baselines.Wwy_ecc.exact;
  checkb "R <= D <= 2R" true
    (rmin.Baselines.Wwy_ecc.exact <= rmax.Baselines.Wwy_ecc.exact
    && rmax.Baselines.Wwy_ecc.exact <= 2 * rmin.Baselines.Wwy_ecc.exact);
  checkb "groups cover" true
    (rmax.Baselines.Wwy_ecc.groups * rmax.Baselines.Wwy_ecc.group_size
    >= Graphlib.Wgraph.n g)

let test_wwy_apsp_exact_and_conserved () =
  let rng = Util.Rng.create ~seed:16 in
  let g =
    Graphlib.Gen.cliques_cycle ~cliques:6 ~clique_size:4
      ~weighting:(Graphlib.Gen.Uniform { max_w = 9 })
      ~rng
  in
  let ok = ref 0 in
  for _ = 1 to 6 do
    let r = Baselines.Wwy_apsp.run g ~rng () in
    checkb "flood matrix = Dijkstra" true r.Baselines.Wwy_apsp.dist_ok;
    check "exact = weighted diameter"
      (Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g))
      r.Baselines.Wwy_apsp.exact;
    checkb "flood measured" true (r.Baselines.Wwy_apsp.apsp_rounds > 0);
    (* rounds = (tree + flood) + search + answer, so the total strictly
       contains the flood + search split. *)
    checkb "rounds contain flood + search" true
      (r.Baselines.Wwy_apsp.rounds
      > r.Baselines.Wwy_apsp.apsp_rounds + r.Baselines.Wwy_apsp.search_rounds);
    if r.Baselines.Wwy_apsp.correct then incr ok
  done;
  checkb "agreement with exhaustive reference >= 1-delta" true (!ok >= 4)

(* --------------------------- SSSP 2-approx ------------------------- *)

let prop_sssp_two_approx =
  QCheck.Test.make ~name:"single-sweep estimates 2-approximate D and R" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let d = Baselines.Sssp_approx.diameter ~double_sweep:false g ~tree in
      let r = Baselines.Sssp_approx.radius g ~tree in
      d.Baselines.Sssp_approx.within_factor_two && r.Baselines.Sssp_approx.within_factor_two)

let test_sssp_double_sweep_improves () =
  let rng = Util.Rng.create ~seed:17 in
  let g = Graphlib.Gen.path ~n:30 ~weighting:(Graphlib.Gen.Uniform { max_w = 9 }) ~rng in
  let tree, _ = Congest.Tree.build g ~root:0 in
  (* Root of a path is an endpoint: the double sweep is exact there;
     start from the middle instead to see the improvement. *)
  let tree_mid, _ = Congest.Tree.build g ~root:15 in
  let single = Baselines.Sssp_approx.diameter ~double_sweep:false g ~tree:tree_mid in
  let double = Baselines.Sssp_approx.diameter ~double_sweep:true g ~tree:tree_mid in
  checkb "double >= single" true
    (double.Baselines.Sssp_approx.estimate >= single.Baselines.Sssp_approx.estimate);
  checkb "double exact on path" true
    (double.Baselines.Sssp_approx.estimate = double.Baselines.Sssp_approx.exact);
  ignore tree

let test_sssp_rounds_scale_with_ecc () =
  let rng = Util.Rng.create ~seed:18 in
  let g = Graphlib.Gen.path ~n:20 ~weighting:(Graphlib.Gen.Uniform { max_w = 5 }) ~rng in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let d = Baselines.Sssp_approx.diameter ~double_sweep:false g ~tree in
  (* The wavefront takes ecc(root)+O(depth) rounds. *)
  checkb "rounds ~ ecc" true
    (d.Baselines.Sssp_approx.rounds
    <= Graphlib.Dist.to_int_exn (Graphlib.Dijkstra.eccentricity g ~src:0) + 25)

(* ------------------------- (1+eps)-approx APSP --------------------- *)

let prop_approx_apsp_guarantee =
  QCheck.Test.make ~name:"Nanongkai'14 APSP: (1+eps) on every pair, D and R" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph ~max_n:16 seed in
      let n = Graphlib.Wgraph.n g in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let out = Baselines.Approx_apsp.run ~eps:0.5 g ~tree ~rng:(Util.Rng.create ~seed) in
      let ok = ref out.Baselines.Approx_apsp.within_guarantee in
      for u = 0 to n - 1 do
        let exact = Graphlib.Dijkstra.distances g ~src:u in
        for v = 0 to n - 1 do
          if Graphlib.Dist.is_finite exact.(v) then begin
            let e = float_of_int exact.(v) in
            let a = out.Baselines.Approx_apsp.dtilde.(u).(v) in
            if a < e -. 1e-6 || a > (1.5 *. e) +. 1e-6 then ok := false
          end
        done
      done;
      !ok)

let test_approx_apsp_weight_independent () =
  (* The point of the baseline: rounds depend on W only through the
     log W scale count, unlike exact wavefront APSP whose rounds scale
     with the distances themselves. *)
  let make max_w =
    let rng = Util.Rng.create ~seed:20 in
    Graphlib.Gen.cliques_cycle ~cliques:4 ~clique_size:6
      ~weighting:(Graphlib.Gen.Uniform { max_w })
      ~rng
  in
  let run g =
    let tree, _ = Congest.Tree.build g ~root:0 in
    let out = Baselines.Approx_apsp.run ~eps:0.5 g ~tree ~rng:(Util.Rng.create ~seed:21) in
    checkb "guarantee" true out.Baselines.Approx_apsp.within_guarantee;
    out.Baselines.Approx_apsp.rounds
  in
  let light = run (make 10) in
  let heavy = run (make 10_000) in
  (* 1000x heavier weights: only ~2x more scale phases (log factor). *)
  checkb "weight dependence is logarithmic" true (heavy < 3 * light)

(* ------------------------- 3/2-approx diameter --------------------- *)

let prop_three_halves_bounds =
  QCheck.Test.make ~name:"3/2-approx: estimate in [2D/3, D]" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let out = Baselines.Three_halves.diameter g ~tree ~rng:(Util.Rng.create ~seed) in
      out.Baselines.Three_halves.within_three_halves)

let test_three_halves_on_path () =
  (* On a path the estimator is a true eccentricity <= D and the 2D/3
     bound holds; the witness is near an end or a sample gap's middle. *)
  let rng = Util.Rng.create ~seed:21 in
  let g = Graphlib.Gen.path ~n:40 ~weighting:Graphlib.Gen.Unit ~rng in
  let tree, _ = Congest.Tree.build g ~root:20 in
  let out = Baselines.Three_halves.diameter g ~tree ~rng in
  checkb "never overestimates" true
    (out.Baselines.Three_halves.estimate <= out.Baselines.Three_halves.exact);
  checkb "within 3/2" true out.Baselines.Three_halves.within_three_halves

let test_three_halves_rounds () =
  let rng = Util.Rng.create ~seed:22 in
  let g = Graphlib.Gen.cliques_cycle ~cliques:5 ~clique_size:10 ~weighting:Graphlib.Gen.Unit ~rng in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let out = Baselines.Three_halves.diameter g ~tree ~rng in
  let n = Graphlib.Wgraph.n g in
  (* Õ(√n + D): generous cap far below the APSP cost ~ n. *)
  checkb "sublinear-ish rounds" true (out.Baselines.Three_halves.rounds < n * 3);
  checkb "sample ~ sqrt n" true
    (out.Baselines.Three_halves.sample_size <= Util.Int_math.isqrt n + 1)

(* ------------------------------ Table 1 ---------------------------- *)

let test_table1_shape () =
  check "13 paper rows + 2 WWY rows" 15 (List.length Baselines.Table1.rows);
  check "WWY ecc row" 1
    (List.length
       (List.filter
          (fun r -> r.Baselines.Table1.problem = Baselines.Table1.Eccentricities)
          Baselines.Table1.rows));
  check "WWY apsp row" 1
    (List.length
       (List.filter
          (fun r -> r.Baselines.Table1.problem = Baselines.Table1.Apsp)
          Baselines.Table1.rows));
  let this_work =
    List.filter (fun r -> r.Baselines.Table1.this_work) Baselines.Table1.rows
  in
  check "two this-work rows" 2 (List.length this_work);
  List.iter
    (fun r ->
      checkb "this-work rows are (1,3/2) weighted" true
        (r.Baselines.Table1.approx = Baselines.Table1.Range_one_to_three_halves
        && r.Baselines.Table1.weighted))
    this_work

let test_table1_formulas () =
  let find problem weighted approx =
    List.find
      (fun r ->
        r.Baselines.Table1.problem = problem
        && r.Baselines.Table1.weighted = weighted
        && r.Baselines.Table1.approx = approx)
      Baselines.Table1.rows
  in
  let tw = find Baselines.Table1.Diameter true Baselines.Table1.Range_one_to_three_halves in
  (match tw.Baselines.Table1.quantum_ub with
  | Some c ->
    (* At n = 10^6, D = 10: min{10^{5.4}·10^{0.3}, 10^6} ≈ 5·10^5 < n. *)
    let v = c.Baselines.Table1.value ~n:1_000_000 ~d:10 in
    checkb "sublinear below crossover" true (v < 1_000_000.0);
    let v2 = c.Baselines.Table1.value ~n:1_000_000 ~d:10_000 in
    checkb "capped above crossover" true (v2 = 1_000_000.0)
  | None -> Alcotest.fail "missing quantum UB");
  (match tw.Baselines.Table1.quantum_lb with
  | Some c ->
    checkb "lb = n^{2/3}" true
      (abs_float (c.Baselines.Table1.value ~n:1_000_000 ~d:10 -. 10_000.0) < 1e-6)
  | None -> Alcotest.fail "missing quantum LB")

let test_table1_open_cells () =
  (* The 3/2 and 2-approximation rows have open lower bounds. *)
  List.iter
    (fun r ->
      if
        r.Baselines.Table1.approx = Baselines.Table1.Three_halves
        || r.Baselines.Table1.approx = Baselines.Table1.Two
      then begin
        checkb "clb open" true (r.Baselines.Table1.classical_lb = None);
        checkb "qlb open" true (r.Baselines.Table1.quantum_lb = None)
      end)
    Baselines.Table1.rows

let test_crossover () =
  checkb "crossover at n^{1/3}" true
    (abs_float (Baselines.Table1.crossover_d ~n:1_000_000 -. 100.0) < 1e-6);
  checkb "advantage exists" true (Baselines.Table1.quantum_advantage_region ~n:1000)

let test_table1_strings () =
  Alcotest.(check string) "approx" "(1,3/2)"
    (Baselines.Table1.approx_to_string Baselines.Table1.Range_one_to_three_halves);
  Alcotest.(check string) "problem" "radius"
    (Baselines.Table1.problem_to_string Baselines.Table1.Radius)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_apsp_exact;
      prop_group_flood_exact;
      prop_apsp_respects_bandwidth;
      prop_sssp_two_approx;
      prop_approx_apsp_guarantee;
      prop_three_halves_bounds;
    ]

let () =
  Alcotest.run "baselines"
    [
      ( "all_pairs",
        [
          Alcotest.test_case "single source" `Quick test_apsp_single_source;
          Alcotest.test_case "diameter/radius exact" `Quick test_diameter_radius_exact;
          Alcotest.test_case "rounds subquadratic" `Quick test_apsp_unweighted_rounds_linearish;
          Alcotest.test_case "flood trace golden" `Quick test_flood_trace_golden;
        ] );
      ( "sssp_approx",
        [
          Alcotest.test_case "double sweep improves" `Quick test_sssp_double_sweep_improves;
          Alcotest.test_case "rounds scale with ecc" `Quick test_sssp_rounds_scale_with_ecc;
        ] );
      ( "legall_magniez",
        [
          Alcotest.test_case "diameter correct" `Quick test_lm_diameter_correct;
          Alcotest.test_case "radius correct" `Quick test_lm_radius_correct;
          Alcotest.test_case "weights ignored" `Quick test_lm_weights_ignored;
          Alcotest.test_case "port goldens" `Quick test_lm_port_goldens;
        ] );
      ( "wwy",
        [
          Alcotest.test_case "ecc measured = oracle" `Quick test_wwy_ecc_measured_match_oracle;
          Alcotest.test_case "ecc bracket" `Quick test_wwy_ecc_bracket;
          Alcotest.test_case "apsp exact + conserved" `Quick test_wwy_apsp_exact_and_conserved;
        ] );
      ( "approx_apsp",
        [
          Alcotest.test_case "weight-independent rounds" `Quick
            test_approx_apsp_weight_independent;
        ] );
      ( "three_halves",
        [
          Alcotest.test_case "path bounds" `Quick test_three_halves_on_path;
          Alcotest.test_case "rounds sublinear" `Quick test_three_halves_rounds;
        ] );
      ( "table1",
        [
          Alcotest.test_case "shape" `Quick test_table1_shape;
          Alcotest.test_case "formulas" `Quick test_table1_formulas;
          Alcotest.test_case "open cells" `Quick test_table1_open_cells;
          Alcotest.test_case "crossover" `Quick test_crossover;
          Alcotest.test_case "strings" `Quick test_table1_strings;
        ] );
      ("properties", qsuite);
    ]
