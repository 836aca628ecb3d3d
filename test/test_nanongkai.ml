(* Tests for lib/nanongkai: Algorithms 1-5 against the centralized
   references from lib/graph. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let random_graph ?(max_n = 24) ?(max_w = 8) seed =
  let rng = Util.Rng.create ~seed in
  let n = 4 + Util.Rng.int rng (max_n - 3) in
  Graphlib.Gen.gnp_connected ~n ~p:0.15 ~weighting:(Graphlib.Gen.Uniform { max_w }) ~rng

let float_eq a b =
  (a = Float.infinity && b = Float.infinity) || Float.abs (a -. b) <= 1e-9

(* ------------------------------ Alg 2 ------------------------------ *)

let prop_alg2_exact =
  QCheck.Test.make ~name:"Alg2 = bounded Dijkstra" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 40))
    (fun (seed, bound) ->
      let g = random_graph seed in
      let out = Nanongkai.Alg2.run g ~src:0 ~bound in
      out.Nanongkai.Alg2.dist = Graphlib.Dijkstra.distances_bounded g ~src:0 ~bound)

let test_alg2_rounds_bound () =
  let g = random_graph 11 in
  let out = Nanongkai.Alg2.run g ~src:0 ~bound:15 in
  checkb "rounds <= bound+1" true (out.Nanongkai.Alg2.trace.Congest.Engine.rounds <= 16);
  check "no congestion" 0 out.Nanongkai.Alg2.trace.Congest.Engine.congestion_violations

let test_alg2_zero_bound () =
  let g = random_graph 12 in
  let out = Nanongkai.Alg2.run g ~src:3 ~bound:0 in
  Array.iteri
    (fun v d ->
      if v = 3 then check "src 0" 0 d else checkb "rest inf" true (Graphlib.Dist.is_inf d))
    out.Nanongkai.Alg2.dist

(* ------------------------------ Alg 1 ------------------------------ *)

let prop_alg1_matches_centralized =
  QCheck.Test.make ~name:"Alg1 = centralized Lemma 3.2 values" ~count:15
    QCheck.(triple (int_range 0 10_000) (int_range 2 15) (int_range 1 3))
    (fun (seed, ell, e) ->
      let g = random_graph ~max_n:16 ~max_w:6 seed in
      let params = { Graphlib.Reweight.ell; eps = 1.0 /. float_of_int e } in
      let out = Nanongkai.Alg1.run g ~src:1 ~params in
      let reference = Graphlib.Reweight.approx_from g params ~src:1 in
      Array.for_all2 float_eq out.Nanongkai.Alg1.dtilde reference)

let test_alg1_broadcast_budget () =
  (* Lemma A.1: each node broadcasts O(log) messages — at most one per
     scale. *)
  let g = random_graph 21 in
  let params = { Graphlib.Reweight.ell = 8; eps = 0.5 } in
  let out = Nanongkai.Alg1.run g ~src:0 ~params in
  let scales =
    Graphlib.Reweight.num_scales ~n:(Graphlib.Wgraph.n g)
      ~max_w:(Graphlib.Wgraph.max_weight g) ~eps:0.5
  in
  Array.iter
    (fun b -> checkb "one broadcast per scale" true (b <= scales))
    out.Nanongkai.Alg1.broadcasts_per_node;
  check "unit bandwidth ok" 0 out.Nanongkai.Alg1.trace.Congest.Engine.congestion_violations

let test_alg1_rounds_budget () =
  let g = random_graph 22 in
  let params = { Graphlib.Reweight.ell = 8; eps = 0.5 } in
  let out = Nanongkai.Alg1.run g ~src:0 ~params in
  let scales =
    Graphlib.Reweight.num_scales ~n:(Graphlib.Wgraph.n g)
      ~max_w:(Graphlib.Wgraph.max_weight g) ~eps:0.5
  in
  let phase_len = Graphlib.Reweight.hop_budget params + 2 in
  checkb "rounds <= scales*(L+2)" true
    (out.Nanongkai.Alg1.trace.Congest.Engine.rounds <= scales * phase_len)

(* ------------------------------ Alg 3 ------------------------------ *)

let with_pipeline seed f =
  let g = random_graph ~max_n:20 seed in
  let n = Graphlib.Wgraph.n g in
  let rng = Util.Rng.create ~seed:(seed * 13 + 1) in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let sources =
    Array.of_list (List.sort_uniq compare (0 :: Util.Rng.subset_bernoulli rng ~n ~p:0.3))
  in
  let params = { Graphlib.Reweight.ell = max 2 (n / 2); eps = 0.5 } in
  f g tree sources params rng

let prop_alg3_matches_alg1 =
  QCheck.Test.make ~name:"Alg3 rows = per-source centralized values" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      with_pipeline seed (fun g tree sources params rng ->
          let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
          let ok = ref true in
          Array.iteri
            (fun j src ->
              let reference = Graphlib.Reweight.approx_from g params ~src in
              if not (Array.for_all2 float_eq out.Nanongkai.Alg3.dtilde.(j) reference) then
                ok := false)
            sources;
          !ok))

let test_alg3_congestion () =
  with_pipeline 31 (fun g tree sources params rng ->
      let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
      checkb "congestion within lambda" true out.Nanongkai.Alg3.congestion_ok;
      checkb "stretch = ceil log2 n" true
        (out.Nanongkai.Alg3.stretch = Util.Int_math.ilog2_ceil (max 2 (Graphlib.Wgraph.n g)));
      checkb "charged >= concurrent" true
        (out.Nanongkai.Alg3.charged_rounds
        >= out.Nanongkai.Alg3.concurrent_trace.Congest.Engine.rounds))

let test_alg3_zero_delays_still_correct () =
  (* Failure injection: all-zero delays break the w.h.p. congestion
     bound (on a busy instance) but never correctness — the messages
     still carry explicit distances. *)
  with_pipeline 33 (fun g tree sources params rng ->
      let delays = Array.make (Array.length sources) 0 in
      let out = Nanongkai.Alg3.run ~delays_override:delays g ~tree ~sources ~params ~rng in
      let ok = ref true in
      Array.iteri
        (fun j src ->
          let reference = Graphlib.Reweight.approx_from g params ~src in
          if not (Array.for_all2 float_eq out.Nanongkai.Alg3.dtilde.(j) reference) then
            ok := false)
        sources;
      checkb "correct despite no delays" true !ok)

let test_alg3_zero_delays_congest_more () =
  (* With many concurrent sources and no delays, peak load must be at
     least as bad as with random delays. *)
  let g =
    Graphlib.Gen.star ~n:24 ~weighting:Graphlib.Gen.Unit ~rng:(Util.Rng.create ~seed:3)
  in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let sources = Array.init 12 (fun i -> i + 1) in
  let params = { Graphlib.Reweight.ell = 12; eps = 0.5 } in
  let rng = Util.Rng.create ~seed:4 in
  let zero =
    Nanongkai.Alg3.run ~delays_override:(Array.make 12 0) g ~tree ~sources ~params ~rng
  in
  let random = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
  checkb "zero-delay load >= random-delay load" true
    (zero.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load
    >= random.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load)

let test_alg3_delays_in_range () =
  with_pipeline 32 (fun g tree sources params rng ->
      ignore g;
      ignore tree;
      let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
      let b = Array.length sources in
      let lambda = out.Nanongkai.Alg3.stretch in
      Array.iter
        (fun d -> checkb "delay range" true (d >= 0 && d <= b * lambda))
        out.Nanongkai.Alg3.delays)

(* --------------------------- Alg 4 / Alg 5 ------------------------- *)

let skeleton_setup seed =
  let g = random_graph ~max_n:18 seed in
  let n = Graphlib.Wgraph.n g in
  let rng = Util.Rng.create ~seed:(seed + 3) in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let s = List.sort_uniq compare (0 :: 1 :: Util.Rng.subset_bernoulli rng ~n ~p:0.3) in
  let params = { Graphlib.Reweight.ell = n; eps = 0.5 } in
  let k = 2 in
  let ctx = { Nanongkai.Approx.g; tree; params; k; rng } in
  (g, s, params, k, ctx)

let prop_overlay_matches_skeleton =
  QCheck.Test.make ~name:"Alg4 w''/knn = centralized skeleton (Obs. 3.12)" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, k, ctx = skeleton_setup seed in
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let sk = Graphlib.Skeleton.build (Graphlib.Reweight.table g params) ~s ~k in
      let w2c = Graphlib.Skeleton.w_dprime sk in
      let w2d = emb.Nanongkai.Approx.overlay.Nanongkai.Overlay.w2 in
      let ok = ref true in
      Array.iteri
        (fun i row -> Array.iteri (fun j x -> if not (float_eq x w2c.(i).(j)) then ok := false) row)
        w2d;
      !ok)

let prop_alg5_matches_skeleton =
  QCheck.Test.make ~name:"Alg5 row = centralized overlay bounded-hop values" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, k, ctx = skeleton_setup seed in
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let sk = Graphlib.Skeleton.build (Graphlib.Reweight.table g params) ~s ~k in
      let out =
        Nanongkai.Alg5.run g ~tree:ctx.Nanongkai.Approx.tree
          ~overlay:emb.Nanongkai.Approx.overlay ~eps:params.Graphlib.Reweight.eps ~src_idx:0
      in
      let nodes = Graphlib.Skeleton.s_nodes sk in
      let ok = ref true in
      Array.iteri
        (fun j u ->
          let reference = Graphlib.Skeleton.overlay_approx sk ~s:nodes.(0) ~u in
          if not (float_eq out.Nanongkai.Alg5.row.(j) reference) then ok := false)
        nodes;
      !ok)

let prop_pipeline_guarantee =
  QCheck.Test.make ~name:"pipeline distances within [d, (1+eps)^2 d]" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, _k, ctx = skeleton_setup seed in
      ignore s;
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
      let exact = Graphlib.Dijkstra.distances g ~src:ev.Nanongkai.Approx.s in
      let eps = params.Graphlib.Reweight.eps in
      let ok = ref true in
      Array.iteri
        (fun v d ->
          if Graphlib.Dist.is_finite d then begin
            let a = ev.Nanongkai.Approx.approx_dist.(v) in
            let fd = float_of_int d in
            if a < fd -. 1e-6 then ok := false;
            if a > (((1.0 +. eps) ** 2.0) *. fd) +. 1e-6 then ok := false
          end)
        exact;
      !ok)

let test_pipeline_ecc_consistency () =
  let _g, _s, _params, _k, ctx = skeleton_setup 99 in
  let emb = Nanongkai.Approx.initialize ctx ~s:_s in
  let evals = Nanongkai.Approx.eval_all emb in
  Array.iter
    (fun (e : Nanongkai.Approx.source_eval) ->
      let m = Array.fold_left Float.max 0.0 e.Nanongkai.Approx.approx_dist in
      checkb "ecc = max approx dist" true (float_eq m e.Nanongkai.Approx.approx_ecc))
    evals

let test_pipeline_t2_small () =
  (* Evaluation_i is a convergecast: O(depth) rounds. *)
  let _g, _s, _params, _k, ctx = skeleton_setup 100 in
  let emb = Nanongkai.Approx.initialize ctx ~s:_s in
  let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
  checkb "T2 <= depth+1" true
    (ev.Nanongkai.Approx.eval_trace.Congest.Engine.rounds
    <= ctx.Nanongkai.Approx.tree.Congest.Tree.depth + 1)

let test_overlay_tokens_bound () =
  let _g, s, _params, k, ctx = skeleton_setup 101 in
  let emb = Nanongkai.Approx.initialize ctx ~s in
  let b = Array.length emb.Nanongkai.Approx.s_nodes in
  checkb "<= b*k distinct overlay edges" true
    (emb.Nanongkai.Approx.overlay.Nanongkai.Overlay.tokens_broadcast <= b * k)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_alg2_exact;
      prop_alg1_matches_centralized;
      prop_alg3_matches_alg1;
      prop_overlay_matches_skeleton;
      prop_alg5_matches_skeleton;
      prop_pipeline_guarantee;
    ]

let () =
  Alcotest.run "nanongkai"
    [
      ( "alg2",
        [
          Alcotest.test_case "round budget" `Quick test_alg2_rounds_bound;
          Alcotest.test_case "zero bound" `Quick test_alg2_zero_bound;
        ] );
      ( "alg1",
        [
          Alcotest.test_case "broadcast budget (Lemma A.1)" `Quick test_alg1_broadcast_budget;
          Alcotest.test_case "round budget" `Quick test_alg1_rounds_budget;
        ] );
      ( "alg3",
        [
          Alcotest.test_case "congestion within stretch" `Quick test_alg3_congestion;
          Alcotest.test_case "delays in range" `Quick test_alg3_delays_in_range;
          Alcotest.test_case "zero delays: still correct" `Quick
            test_alg3_zero_delays_still_correct;
          Alcotest.test_case "zero delays: more congestion" `Quick
            test_alg3_zero_delays_congest_more;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ecc = max approx dist" `Quick test_pipeline_ecc_consistency;
          Alcotest.test_case "T2 is O(depth)" `Quick test_pipeline_t2_small;
          Alcotest.test_case "overlay token bound" `Quick test_overlay_tokens_bound;
        ] );
      ("properties", qsuite);
    ]
