(* Tests for lib/core: Eq. (1) parameters, the random sets and good
   events, the inner Lemma 3.5 evaluation, and the end-to-end
   Theorem 1.1 algorithm. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

(* ------------------------------ Params ----------------------------- *)

let test_params_eq1 () =
  let p = Core.Params.of_graph_params ~n:1024 ~d_hat:16 () in
  (* r = n^{2/5} D^{-1/5} = 1024^0.4 / 16^0.2 = 16/1.74... *)
  checkb "r value" true (abs_float (p.Core.Params.r -. (1024.0 ** 0.4 /. (16.0 ** 0.2))) < 1e-6);
  check "k = sqrt D" 4 p.Core.Params.k;
  checkb "eps = 1/log n" true (abs_float (p.Core.Params.eps -. 0.1) < 1e-9);
  check "num_sets = n" 1024 p.Core.Params.num_sets;
  (* ell = n log n / r, clamped to n. *)
  checkb "ell clamp" true (p.Core.Params.ell <= 1024 && p.Core.Params.ell >= 1)

let test_params_overrides () =
  let p = Core.Params.of_graph_params ~eps_override:0.5 ~num_sets:10 ~n:100 ~d_hat:4 () in
  checkb "eps override" true (p.Core.Params.eps = 0.5);
  check "num_sets override" 10 p.Core.Params.num_sets;
  checkb "rate in (0,1]" true
    (Core.Params.sample_rate p > 0.0 && Core.Params.sample_rate p <= 1.0)

let test_params_errors () =
  checkb "n<1" true
    (try ignore (Core.Params.of_graph_params ~n:0 ~d_hat:1 ()); false
     with Invalid_argument _ -> true);
  checkb "bad eps" true
    (try ignore (Core.Params.of_graph_params ~eps_override:1.5 ~n:10 ~d_hat:1 ()); false
     with Invalid_argument _ -> true)

let test_theorem_formula_crossover () =
  (* n^{9/10} D^{3/10} < n iff D < n^{1/3}. *)
  let n = 1_000_000 in
  let below = Core.Params.theorem_1_1_rounds ~n ~d:50 in
  let above = Core.Params.theorem_1_1_rounds ~n ~d:1000 in
  checkb "below crossover sublinear" true (below < float_of_int n);
  checkb "above crossover capped at n" true (above = float_of_int n);
  (* Monotone in D until the cap. *)
  checkb "monotone" true
    (Core.Params.theorem_1_1_rounds ~n ~d:10 < Core.Params.theorem_1_1_rounds ~n ~d:40)

let test_lemma_3_5_terms () =
  let p = Core.Params.of_graph_params ~eps_override:0.5 ~n:100 ~d_hat:9 () in
  let t0, t1, t2 = Core.Params.lemma_3_5_terms p in
  checkb "t0 positive" true (t0 > 0.0);
  checkb "t1 positive" true (t1 > 0.0);
  checkb "t2 = D" true (t2 = 9.0);
  checkb "lemma rounds combines" true
    (abs_float (Core.Params.lemma_3_5_rounds p -. (t0 +. (sqrt p.Core.Params.r *. (t1 +. t2))))
    < 1e-9)

(* ------------------------------- Sets ------------------------------ *)

let test_sets_sampling () =
  let rng = Util.Rng.create ~seed:1 in
  let p = Core.Params.of_graph_params ~eps_override:0.5 ~num_sets:200 ~n:100 ~d_hat:4 () in
  let sets = Core.Sets.sample ~rng ~n:100 ~params:p in
  check "count" 200 (Array.length sets.Core.Sets.sets);
  (* Mean size near r. *)
  let mean =
    float_of_int (Array.fold_left (fun a s -> a + List.length s) 0 sets.Core.Sets.sets) /. 200.0
  in
  checkb "mean near r" true (abs_float (mean -. sets.Core.Sets.expected_size) < 1.5);
  (* Members sorted and in range. *)
  Array.iter
    (fun s ->
      checkb "sorted" true (List.sort compare s = s);
      List.iter (fun v -> checkb "range" true (v >= 0 && v < 100)) s)
    sets.Core.Sets.sets

let test_good_scale () =
  let rng = Util.Rng.create ~seed:2 in
  let p = Core.Params.of_graph_params ~eps_override:0.5 ~num_sets:400 ~n:64 ~d_hat:4 () in
  let sets = Core.Sets.sample ~rng ~n:64 ~params:p in
  let report = Core.Sets.check_good_scale sets ~vstar:7 in
  checkb "beta near m*rate" true
    (float_of_int report.Core.Sets.vstar_memberships
    > 0.3 *. (400.0 *. sets.Core.Sets.rate));
  checkb "sizes recorded" true (Array.length report.Core.Sets.sizes = 400)

let test_membership_sets () =
  let sets =
    { Core.Sets.sets = [| [ 1; 2 ]; [ 3 ]; [ 2; 5 ] |]; rate = 0.1; expected_size = 2.0 }
  in
  Alcotest.(check (list int)) "memberships" [ 0; 2 ] (Core.Sets.membership_sets sets ~v:2)

(* ------------------------------- Inner ----------------------------- *)

let inner_ctx seed =
  let rng = Util.Rng.create ~seed in
  let g = Graphlib.Gen.gnp_connected ~n:16 ~p:0.25 ~weighting:(Graphlib.Gen.Uniform { max_w = 6 }) ~rng in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let params = { Graphlib.Reweight.ell = 16; eps = 0.5 } in
  (g, { Nanongkai.Approx.g; tree; params; k = 2; rng })

let inner_search prep objective ctx =
  Core.Inner.search prep ~objective ~delta:0.1 ~c:3.0 ~rng:ctx.Nanongkai.Approx.rng

let test_inner_distributed_matches_centralized () =
  let g, ctx = inner_ctx 3 in
  let cent = Core.Inner.eval_centralized g ~params:ctx.Nanongkai.Approx.params ~k:2 in
  (* The real pipeline's per-source values against the centralized
     skeleton on every set of one sampled family (the sets the outer
     search would price), in both directions. No search is involved:
     the extremum is read off [source_values] directly. *)
  let params = Core.Params.of_graph_params ~eps_override:0.5 ~n:16 ~d_hat:4 () in
  let sets = Core.Sets.sample ~rng:(Util.Rng.create ~seed:30) ~n:16 ~params in
  let compared = ref 0 in
  Array.iter
    (fun s ->
      match Core.Inner.prepare ~ctx ~s with
      | None -> checkb "only an empty set has no pipeline" true (s = [])
      | Some prep ->
        List.iter
          (fun (objective, pick) ->
            let dist =
              Array.fold_left pick (Core.Inner.worst_value objective)
                prep.Core.Inner.source_values
            in
            match cent ~objective ~s with
            | Some c ->
              incr compared;
              checkb "values equal" true (abs_float (dist -. c) < 1e-9)
            | None -> Alcotest.fail "centralized None on a non-empty set")
          [ (Core.Inner.Maximize, Float.max); (Core.Inner.Minimize, Float.min) ])
    sets.Core.Sets.sets;
  let nonempty =
    Array.fold_left (fun a s -> if s = [] then a else a + 1) 0 sets.Core.Sets.sets
  in
  checkb "family not degenerate" true (nonempty >= 8);
  check "every non-empty set, both directions" (2 * nonempty) !compared;
  (* The inner search's ledger on a hand-picked set. *)
  match Core.Inner.prepare ~ctx ~s:[ 0; 3; 7 ] with
  | Some prep ->
    let d = inner_search prep Core.Inner.Maximize ctx in
    checkb "t0 positive" true (d.Core.Inner.t0 > 0);
    checkb "t1 positive" true (d.Core.Inner.t1 > 0);
    checkb "total = t0+search" true
      (d.Core.Inner.total_rounds = d.Core.Inner.t0 + d.Core.Inner.search_rounds)
  | None -> Alcotest.fail "unexpected None"

let test_inner_minimize_leq_maximize () =
  let _, ctx = inner_ctx 4 in
  match Core.Inner.prepare ~ctx ~s:[ 0; 3; 7; 9 ] with
  | Some prep ->
    let mx = inner_search prep Core.Inner.Maximize ctx in
    let mn = inner_search prep Core.Inner.Minimize ctx in
    checkb "min <= max" true (mn.Core.Inner.value <= mx.Core.Inner.value +. 1e-9)
  | None -> Alcotest.fail "unexpected None"

let test_inner_empty_set () =
  let _, ctx = inner_ctx 5 in
  checkb "empty -> None" true (Option.is_none (Core.Inner.prepare ~ctx ~s:[]));
  checkb "worst max" true (Core.Inner.worst_value Core.Inner.Maximize = Float.neg_infinity);
  checkb "worst min" true (Core.Inner.worst_value Core.Inner.Minimize = Float.infinity)

(* ----------------------------- Algorithm --------------------------- *)

let run_algorithm seed objective g =
  let rng = Util.Rng.create ~seed in
  Core.Algorithm.run g objective ~rng

let family seed =
  let rng = Util.Rng.create ~seed in
  Graphlib.Gen.cliques_cycle ~cliques:5 ~clique_size:6
    ~weighting:(Graphlib.Gen.Uniform { max_w = 12 })
    ~rng

let test_algorithm_diameter_guarantee () =
  let g = family 10 in
  let r = run_algorithm 11 Core.Algorithm.Diameter g in
  checkb "within guarantee" true r.Core.Algorithm.within_guarantee;
  checkb "ratio >= 1" true (r.Core.Algorithm.ratio >= 1.0 -. 1e-9);
  checkb "values consistent" true (r.Core.Algorithm.value_discrepancy < 1e-9);
  checkb "positive rounds" true (r.Core.Algorithm.rounds > 0)

let test_algorithm_radius_guarantee () =
  let g = family 12 in
  let r = run_algorithm 13 Core.Algorithm.Radius g in
  checkb "within guarantee" true r.Core.Algorithm.within_guarantee;
  checkb "radius <= diameter est" true
    (r.Core.Algorithm.estimate
    <= float_of_int (Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g)) +. 1e-6)

let test_algorithm_success_rate () =
  (* Repeat on random instances; the 1-delta success must hold amply. *)
  let ok = ref 0 in
  let trials = 12 in
  for t = 1 to trials do
    let rng = Util.Rng.create ~seed:(100 + t) in
    let g =
      Graphlib.Gen.gnp_connected ~n:24 ~p:0.2
        ~weighting:(Graphlib.Gen.Uniform { max_w = 10 })
        ~rng
    in
    let r = Core.Algorithm.run g Core.Algorithm.Diameter ~rng in
    if r.Core.Algorithm.within_guarantee then incr ok
  done;
  checkb "success on >= 10/12" true (!ok >= 10)

let test_algorithm_breakdown () =
  let g = family 18 in
  let r = run_algorithm 19 Core.Algorithm.Diameter g in
  checkb "breakdown non-empty" true (r.Core.Algorithm.breakdown <> []);
  let total_named = List.map fst r.Core.Algorithm.breakdown in
  checkb "has tree phase" true (List.mem "bfs-tree" total_named);
  checkb "touched non-empty" true (r.Core.Algorithm.touched_sets <> [])

let test_algorithm_ledger_conservation () =
  (* The Framework invariant on the Theorem 1.1 instance: the charged
     search rounds follow exactly from the outer counters and the
     measured per-call costs, and the total is the breakdown's sum. *)
  let g = family 22 in
  let r = run_algorithm 23 Core.Algorithm.Diameter g in
  let part name = List.assoc name r.Core.Algorithm.breakdown in
  let per = r.Core.Algorithm.t_setup_outer + r.Core.Algorithm.t_eval_bound in
  check "search = iterations*2*per + measurements*per"
    ((r.Core.Algorithm.outer_iterations * 2 * per)
    + (r.Core.Algorithm.outer_measurements * per))
    (part "outer-search");
  check "rounds = tree + search + answer"
    (part "bfs-tree" + part "outer-search" + part "answer-broadcast")
    r.Core.Algorithm.rounds

let test_algorithm_port_goldens () =
  (* Bit-identity pins for the Dqo.Framework port: these exact values
     were captured from the pre-framework implementation on the
     ci-smoke harness instance. Any drift in RNG stream consumption,
     operation order, touched-index bookkeeping or round accounting
     shows up here before anywhere else. *)
  let open Core.Algorithm in
  let g = Harness.Runner.make_graph Harness.Spec.ci_smoke ~n:48 ~seed:1 in
  let d = run g Diameter ~rng:(Util.Rng.create ~seed:1005) in
  Alcotest.(check (float 1e-9)) "D estimate" 85.0 d.estimate;
  check "D exact" 84 d.exact;
  check "D rounds" 37_805_262 d.rounds;
  check "D outer iterations" 36 d.outer_iterations;
  check "D outer measurements" 27 d.outer_measurements;
  check "D inner iterations" 211 d.inner_iterations_total;
  check "D setup cost" 8 d.t_setup_outer;
  check "D eval bound" 381_863 d.t_eval_bound;
  check "D best set" 39 d.best_set;
  Alcotest.(check (list int)) "D touched order"
    [ 33; 13; 42; 6; 44; 30; 26; 43; 46; 39; 1; 8; 40; 37; 18; 21; 28; 22; 9; 35; 27 ]
    d.touched_sets;
  let r = run g Radius ~rng:(Util.Rng.create ~seed:1006) in
  Alcotest.(check (float 1e-9)) "R estimate" 69.0 r.estimate;
  check "R exact" 69 r.exact;
  check "R rounds" 59_926_443 r.rounds;
  check "R outer iterations" 36 r.outer_iterations;
  check "R outer measurements" 22 r.outer_measurements;
  check "R inner iterations" 173 r.inner_iterations_total;
  check "R eval bound" 637_507 r.t_eval_bound;
  check "R best set" 35 r.best_set

let test_algorithm_rejects_bad_input () =
  let g = Graphlib.Wgraph.make ~n:3 [ { Graphlib.Wgraph.u = 0; v = 1; w = 1 } ] in
  checkb "disconnected rejected" true
    (try
       ignore (run_algorithm 1 Core.Algorithm.Diameter g);
       false
     with Invalid_argument _ -> true)

(* The random instance and objective of one seed, shared by the
   property below and [test_algorithm_bracket_sides]. *)
let random_run seed =
  let rng = Util.Rng.create ~seed in
  let n = 10 + Util.Rng.int rng 20 in
  let g =
    Graphlib.Gen.gnp_connected ~n ~p:0.25
      ~weighting:(Graphlib.Gen.Uniform { max_w = 1 + Util.Rng.int rng 30 })
      ~rng
  in
  let obj = if seed mod 2 = 0 then Core.Algorithm.Diameter else Core.Algorithm.Radius in
  Core.Algorithm.run g obj ~rng

let test_algorithm_bracket_sides () =
  (* The two sides of [R <= estimate] / [estimate <= (1+eps)^2 D] that
     no sampling outcome can break. Lemma 3.2 rounds scaled weights
     up, so d~ >= d and a radius estimate is never below R; every
     approximate eccentricity is at most (1+eps)^2 times the true one,
     so a diameter estimate is never above (1+eps)^2 D. A diameter run
     may still fall below D when the sets miss the extremal node
     (seed 454 does), which delta = 0.1 allows, so that side is not
     asserted. *)
  for seed = 448 to 511 do
    let r = random_run seed in
    let ex = float_of_int r.Core.Algorithm.exact in
    match r.Core.Algorithm.objective with
    | Core.Algorithm.Radius ->
      checkb (Printf.sprintf "seed %d: radius estimate >= R" seed) true
        (r.Core.Algorithm.estimate >= ex -. 1e-6)
    | Core.Algorithm.Diameter ->
      let ub = ((1.0 +. r.Core.Algorithm.params.Core.Params.eps) ** 2.0) *. ex in
      checkb (Printf.sprintf "seed %d: diameter estimate <= (1+eps)^2 D" seed) true
        (r.Core.Algorithm.estimate <= ub +. 1e-6)
  done

let prop_end_to_end_guarantee =
  QCheck.Test.make ~name:"Theorem 1.1 guarantee across random instances" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = random_run seed in
      (* δ = 0.1; a property over 10 instances should basically always
         hold, but tolerate the allowed failure rate by accepting runs
         that are merely never *below* the true value. *)
      r.Core.Algorithm.within_guarantee
      || r.Core.Algorithm.estimate >= float_of_int r.Core.Algorithm.exact -. 1e-6)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_end_to_end_guarantee ]

let () =
  Alcotest.run "core"
    [
      ( "params (Eq. 1)",
        [
          Alcotest.test_case "eq1 values" `Quick test_params_eq1;
          Alcotest.test_case "overrides" `Quick test_params_overrides;
          Alcotest.test_case "errors" `Quick test_params_errors;
          Alcotest.test_case "theorem formula crossover" `Quick test_theorem_formula_crossover;
          Alcotest.test_case "lemma 3.5 terms" `Quick test_lemma_3_5_terms;
        ] );
      ( "sets",
        [
          Alcotest.test_case "sampling stats" `Quick test_sets_sampling;
          Alcotest.test_case "good scale" `Quick test_good_scale;
          Alcotest.test_case "membership" `Quick test_membership_sets;
        ] );
      ( "inner (Lemma 3.5)",
        [
          Alcotest.test_case "distributed = centralized" `Quick
            test_inner_distributed_matches_centralized;
          Alcotest.test_case "min <= max" `Quick test_inner_minimize_leq_maximize;
          Alcotest.test_case "empty set" `Quick test_inner_empty_set;
        ] );
      ( "algorithm (Theorem 1.1)",
        [
          Alcotest.test_case "diameter guarantee" `Quick test_algorithm_diameter_guarantee;
          Alcotest.test_case "radius guarantee" `Quick test_algorithm_radius_guarantee;
          Alcotest.test_case "success rate" `Slow test_algorithm_success_rate;
          Alcotest.test_case "breakdown" `Quick test_algorithm_breakdown;
          Alcotest.test_case "ledger conservation" `Quick test_algorithm_ledger_conservation;
          Alcotest.test_case "port goldens" `Quick test_algorithm_port_goldens;
          Alcotest.test_case "rejects bad input" `Quick test_algorithm_rejects_bad_input;
          Alcotest.test_case "bracket sides" `Quick test_algorithm_bracket_sides;
        ] );
      ("properties", qsuite);
    ]
