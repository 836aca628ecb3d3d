(* Tests for lib/dqo: the closed-form amplification model and the
   Lemma 3.1 optimizer with its round ledger. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ----------------------------- Amplify ----------------------------- *)

let test_amplify_basics () =
  let sp = Dqo.Amplify.create [| 1.0; 1.0; 2.0 |] in
  check "size" 3 (Dqo.Amplify.size sp);
  checkf "weight normalized" 0.5 (Dqo.Amplify.weight sp 2);
  checkf "mass" 0.5 (Dqo.Amplify.mass sp ~marked:(fun i -> i < 2))

let test_amplify_errors () =
  checkb "zero total" true
    (try
       ignore (Dqo.Amplify.create [| 0.0 |]);
       false
     with Invalid_argument _ -> true);
  checkb "negative" true
    (try
       ignore (Dqo.Amplify.create [| 1.0; -0.5 |]);
       false
     with Invalid_argument _ -> true)

let test_success_probability_vs_qsim () =
  (* The dqo closed form must agree with a real state-vector Grover. *)
  let w = [| 0.5; 1.5; 2.0; 1.0; 3.0 |] in
  let sp = Dqo.Amplify.create w in
  let marked i = i = 1 || i = 4 in
  for j = 0 to 6 do
    let p_model = Dqo.Amplify.success_probability sp ~marked ~iterations:j in
    let init = Qsim.State.of_weights w in
    let final = Qsim.Grover.run ~init ~marked ~iterations:j in
    checkf "agrees with statevector" (Qsim.State.mass final ~marked) p_model
  done

let test_measure_after_distribution () =
  (* Empirical frequency of marked outcomes must match the closed form,
     and conditional distribution within the marked set must stay
     proportional to the weights. *)
  let rng = Util.Rng.create ~seed:3 in
  let w = [| 1.0; 2.0; 3.0; 4.0 |] in
  let sp = Dqo.Amplify.create w in
  let marked i = i >= 2 in
  let iterations = 1 in
  let p = Dqo.Amplify.success_probability sp ~marked ~iterations in
  let trials = 4000 in
  let marked_hits = ref 0 and hit2 = ref 0 and hit3 = ref 0 in
  for _ = 1 to trials do
    let x = Dqo.Amplify.measure_after sp ~rng ~marked ~iterations in
    if marked x then incr marked_hits;
    if x = 2 then incr hit2;
    if x = 3 then incr hit3
  done;
  let freq = float_of_int !marked_hits /. float_of_int trials in
  checkb "marked frequency matches closed form" true (abs_float (freq -. p) < 0.03);
  (* Within marked: 3:4 ratio. *)
  let ratio = float_of_int !hit3 /. float_of_int (max 1 !hit2) in
  checkb "conditional ratio ~ 4/3" true (abs_float (ratio -. (4.0 /. 3.0)) < 0.25)

let test_measure_after_extremes () =
  let rng = Util.Rng.create ~seed:4 in
  let sp = Dqo.Amplify.create [| 1.0; 1.0 |] in
  (* No marked: must sample from the bare distribution. *)
  let x = Dqo.Amplify.measure_after sp ~rng ~marked:(fun _ -> false) ~iterations:5 in
  checkb "in range" true (x = 0 || x = 1);
  (* All marked: always returns a marked element. *)
  let y = Dqo.Amplify.measure_after sp ~rng ~marked:(fun _ -> true) ~iterations:5 in
  checkb "marked" true (y = 0 || y = 1)

(* ------------------------------ Cost ------------------------------- *)

let test_cost_ledger () =
  let c = { Dqo.Cost.setup_rounds = 10; eval_rounds = 5 } in
  let l = Dqo.Cost.with_init 100 in
  let l = Dqo.Cost.charge_iterations l c 3 in
  let l = Dqo.Cost.charge_measurement l c in
  check "iterations" 3 l.Dqo.Cost.grover_iterations;
  check "measurements" 1 l.Dqo.Cost.measurements;
  (* 3 iterations × 2×(10+5) + 1 measurement × (10+5) = 105. *)
  check "search rounds" 105 l.Dqo.Cost.search_rounds;
  check "total" 205 (Dqo.Cost.total_rounds l);
  let m = Dqo.Cost.merge l l in
  check "merge total" 410 (Dqo.Cost.total_rounds m)

(* ----------------------------- Optimize ---------------------------- *)

let test_budget_formula () =
  let b = Dqo.Optimize.budget_for ~rho:0.01 ~delta:0.1 ~c:3.0 in
  (* 3·√(ln(e/0.1)/0.01) = 3·√(330.2…) ≈ 54.5 → 55. *)
  check "budget" 55 b;
  checkb "rho error" true
    (try
       ignore (Dqo.Optimize.budget_for ~rho:0.0 ~delta:0.1 ~c:3.0);
       false
     with Invalid_argument _ -> true)

let success_rate ~direction ~n ~trials ~seed =
  let rng = Util.Rng.create ~seed in
  let ok = ref 0 in
  let cost = { Dqo.Cost.setup_rounds = 1; eval_rounds = 1 } in
  for _ = 1 to trials do
    let values = Array.init n (fun _ -> Util.Rng.int rng 1_000_000) in
    let weights = Array.make n 1.0 in
    let rho = 1.0 /. float_of_int n in
    let r =
      Dqo.Optimize.search ~direction ~rng ~weights ~values ~compare ~rho ~delta:0.1 ~cost ()
    in
    let truth =
      match direction with
      | Dqo.Optimize.Maximize -> Array.fold_left max min_int values
      | Dqo.Optimize.Minimize -> Array.fold_left min max_int values
    in
    if r.Dqo.Optimize.best_value = truth then incr ok
  done;
  float_of_int !ok /. float_of_int trials

let test_maximize_success () =
  checkb "maximize >= 1-delta" true
    (success_rate ~direction:Dqo.Optimize.Maximize ~n:100 ~trials:150 ~seed:5 >= 0.9)

let test_minimize_success () =
  checkb "minimize >= 1-delta" true
    (success_rate ~direction:Dqo.Optimize.Minimize ~n:100 ~trials:150 ~seed:6 >= 0.9)

let test_quantum_speedup_vs_exhaustive () =
  (* The whole point: far fewer evaluations than exhaustive search. *)
  let rng = Util.Rng.create ~seed:7 in
  let n = 400 in
  let cost = { Dqo.Cost.setup_rounds = 100; eval_rounds = 50 } in
  let total_iters = ref 0 in
  let trials = 30 in
  for _ = 1 to trials do
    let values = Array.init n (fun _ -> Util.Rng.int rng 1_000_000) in
    let r =
      Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights:(Array.make n 1.0)
        ~values ~compare ~rho:(1.0 /. float_of_int n) ~delta:0.1 ~cost ()
    in
    total_iters := !total_iters + r.Dqo.Optimize.ledger.Dqo.Cost.grover_iterations
  done;
  let avg = float_of_int !total_iters /. float_of_int trials in
  let exhaustive =
    Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Maximize ~values:(Array.make n 0) ~compare
      ~cost
  in
  checkb "iterations << n" true (avg < float_of_int n /. 2.0);
  check "exhaustive touches all" n (List.length exhaustive.Dqo.Optimize.touched);
  check "exhaustive rounds" (n * 150) (Dqo.Cost.total_rounds exhaustive.Dqo.Optimize.ledger)

let test_rho_promise_scaling () =
  (* A larger promised mass means a smaller budget: with many
     maximizers the search stops earlier. *)
  let b_small = Dqo.Optimize.budget_for ~rho:0.001 ~delta:0.1 ~c:3.0 in
  let b_large = Dqo.Optimize.budget_for ~rho:0.25 ~delta:0.1 ~c:3.0 in
  checkb "budget shrinks with rho" true (b_large * 5 < b_small)

let test_touched_tracks_measurements () =
  let rng = Util.Rng.create ~seed:8 in
  let values = Array.init 50 (fun i -> i) in
  let r =
    Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights:(Array.make 50 1.0)
      ~values ~compare ~rho:0.02 ~delta:0.1
      ~cost:{ Dqo.Cost.setup_rounds = 1; eval_rounds = 1 }
      ()
  in
  checkb "touched non-empty" true (r.Dqo.Optimize.touched <> []);
  checkb "touched distinct" true
    (List.length r.Dqo.Optimize.touched
    = List.length (List.sort_uniq compare r.Dqo.Optimize.touched));
  checkb "best in touched" true (List.mem r.Dqo.Optimize.best_idx r.Dqo.Optimize.touched)

let test_weighted_search () =
  (* Heavily-weighted maximizer: found almost immediately. *)
  let rng = Util.Rng.create ~seed:9 in
  let n = 100 in
  let values = Array.init n (fun i -> i) in
  let weights = Array.init n (fun i -> if i = n - 1 then 1000.0 else 1.0) in
  let ok = ref 0 in
  for _ = 1 to 50 do
    let r =
      Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights ~values ~compare
        ~rho:0.9 ~delta:0.1
        ~cost:{ Dqo.Cost.setup_rounds = 1; eval_rounds = 1 }
        ()
    in
    if r.Dqo.Optimize.best_idx = n - 1 then incr ok
  done;
  checkb "dominant weight wins" true (!ok >= 45)

(* ------------------- accounting regressions ------------------------ *)

let test_measurement_cap_matches_ledger () =
  (* rho = 1 with all-equal values is the pure stall case: the marked
     set is empty, every iteration draw is j = 0, and the measurement
     cap is the only exit. The opening measurement is charged to the
     ledger, so it must count against the cap too: the loop admits
     exactly 2*budget+10 further measurements, for a ledger total of
     2*budget+11. Before the fix the cap counter started at 0 while
     the ledger already held the opening charge, admitting one extra
     measurement (2*budget+12). *)
  let rng = Util.Rng.create ~seed:11 in
  let n = 8 in
  let r =
    Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights:(Array.make n 1.0)
      ~values:(Array.make n 0) ~compare ~rho:1.0 ~delta:0.1
      ~cost:{ Dqo.Cost.setup_rounds = 1; eval_rounds = 1 }
      ()
  in
  check "stall budget" 6 r.Dqo.Optimize.budget;
  check "stall consumes no iterations" 0 r.Dqo.Optimize.ledger.Dqo.Cost.grover_iterations;
  check "cap and ledger agree"
    ((2 * r.Dqo.Optimize.budget) + 11)
    r.Dqo.Optimize.ledger.Dqo.Cost.measurements

let test_touched_dedup_golden () =
  (* Pin for the Hashtbl first-touch dedup: this exact seeded run was
     captured under the original List.mem implementation; the O(1)
     table must reproduce it byte for byte. *)
  let rng = Util.Rng.create ~seed:77 in
  let n = 60 in
  let values = Array.init n (fun i -> i * 37 mod 101) in
  let r =
    Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights:(Array.make n 1.0)
      ~values ~compare ~rho:(1.0 /. float_of_int n) ~delta:0.1
      ~cost:{ Dqo.Cost.setup_rounds = 2; eval_rounds = 3 }
      ()
  in
  Alcotest.(check (list int))
    "first-touch order pinned"
    [ 42; 13; 32; 19; 41; 47; 10; 30; 50; 18; 6; 53; 56; 51; 27; 44; 14; 36 ]
    r.Dqo.Optimize.touched;
  check "best pinned" 30 r.Dqo.Optimize.best_idx;
  check "measurements pinned" 29 r.Dqo.Optimize.ledger.Dqo.Cost.measurements;
  check "iterations pinned" 43 r.Dqo.Optimize.ledger.Dqo.Cost.grover_iterations;
  check "search rounds pinned" 575 r.Dqo.Optimize.ledger.Dqo.Cost.search_rounds

let test_exhaustive_direction () =
  let values = [| 5; 1; 9; 3 |] in
  let cost = { Dqo.Cost.setup_rounds = 0; eval_rounds = 1 } in
  let mx = Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Maximize ~values ~compare ~cost in
  check "explicit maximize" 2 mx.Dqo.Optimize.best_idx;
  let mn = Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Minimize ~values ~compare ~cost in
  check "explicit minimize" 1 mn.Dqo.Optimize.best_idx;
  check "min charges every element" 4 mn.Dqo.Optimize.ledger.Dqo.Cost.measurements;
  (* Strict [better] keeps the first extremum on ties in both
     directions. *)
  let ties = [| 7; 7; 7 |] in
  check "tie keeps first (max)" 0
    (Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Maximize ~values:ties ~compare ~cost)
      .Dqo.Optimize.best_idx;
  check "tie keeps first (min)" 0
    (Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Minimize ~values:ties ~compare ~cost)
      .Dqo.Optimize.best_idx

(* --------------------------- Framework ----------------------------- *)

(* A toy (Setup, Evaluation, predicate) triple with a None hole every
   7th index, exercising calibration filtering. *)
let toy_triple ~direction ~values ~setup_cost =
  let n = Array.length values in
  Dqo.Framework.make ~name:"toy" ~direction ~compare
    ~setup:(fun () ->
      {
        Dqo.Framework.weights = Array.make n 1.0;
        values;
        rho = 1.0 /. float_of_int n;
        init_rounds = 5;
      })
    ~evaluate:(fun i -> if i mod 7 = 6 then None else Some (4 + (i mod 3)))
    ~eval_rounds:(fun r -> r)
    ~setup_cost:(fun _ -> setup_cost)
    ~finalize:(fun _ -> 2) ()

let framework_agreement_prop =
  QCheck.Test.make
    ~name:"framework: amplified = exhaustive reference, ledger conserved" ~count:60
    QCheck.(triple (int_range 2 80) small_int (int_range 0 20))
    (fun (n, seed, setup_cost) ->
      let rng = Util.Rng.create ~seed:(seed + 1) in
      let values = Array.init n (fun _ -> Util.Rng.int rng 1000) in
      let direction =
        if seed mod 2 = 0 then Dqo.Optimize.Maximize else Dqo.Optimize.Minimize
      in
      let a = toy_triple ~direction ~values ~setup_cost in
      (* delta small enough that a guarantee miss across the whole
         QCheck campaign is effectively impossible: the agreement
         check below is the success guarantee, not a coin flip. *)
      let o = Dqo.Framework.run ~rng ~delta:1e-6 a in
      let reference = Dqo.Framework.reference a in
      let conserved = Dqo.Framework.conserved o in
      let agrees = o.Dqo.Framework.best_value = reference.Dqo.Optimize.best_value in
      let touched_distinct =
        List.length o.Dqo.Framework.touched
        = List.length (List.sort_uniq compare o.Dqo.Framework.touched)
      in
      let best_touched = List.mem o.Dqo.Framework.best_idx o.Dqo.Framework.touched in
      let evals_calibrated =
        List.for_all
          (fun (i, r) -> i mod 7 <> 6 && r = 4 + (i mod 3))
          o.Dqo.Framework.evals
      in
      let reference_exhausts =
        List.length reference.Dqo.Optimize.touched = n
        && reference.Dqo.Optimize.ledger.Dqo.Cost.measurements = n
      in
      conserved && agrees && touched_distinct && best_touched && evals_calibrated
      && reference_exhausts)

let test_framework_charges_measured_costs () =
  (* The ledger must be re-charged at the measured per-call cost: with
     evaluations of 4..6 rounds and setup_cost 10, every charged call
     costs 10 + t_eval_bound. *)
  let rng = Util.Rng.create ~seed:21 in
  let values = Array.init 40 (fun i -> (i * 13) mod 97) in
  let a = toy_triple ~direction:Dqo.Optimize.Maximize ~values ~setup_cost:10 in
  let o = Dqo.Framework.run ~rng a in
  check "init rounds" 5 o.Dqo.Framework.ledger.Dqo.Cost.init_rounds;
  check "setup cost measured" 10 o.Dqo.Framework.t_setup;
  checkb "eval bound from measured evals" true
    (o.Dqo.Framework.t_eval_bound >= 4 && o.Dqo.Framework.t_eval_bound <= 6);
  check "answer rounds" 2 o.Dqo.Framework.answer_rounds;
  let l = o.Dqo.Framework.ledger in
  let per = o.Dqo.Framework.t_setup + o.Dqo.Framework.t_eval_bound in
  check "search re-charged at measured cost"
    ((l.Dqo.Cost.grover_iterations * 2 * per) + (l.Dqo.Cost.measurements * per))
    l.Dqo.Cost.search_rounds;
  check "total = init + search + answer"
    (5 + l.Dqo.Cost.search_rounds + 2)
    o.Dqo.Framework.rounds;
  checkb "conserved" true (Dqo.Framework.conserved o)

let () =
  Alcotest.run "dqo"
    [
      ( "amplify",
        [
          Alcotest.test_case "basics" `Quick test_amplify_basics;
          Alcotest.test_case "errors" `Quick test_amplify_errors;
          Alcotest.test_case "closed form vs qsim" `Quick test_success_probability_vs_qsim;
          Alcotest.test_case "measurement distribution" `Quick test_measure_after_distribution;
          Alcotest.test_case "extremes" `Quick test_measure_after_extremes;
        ] );
      ("cost", [ Alcotest.test_case "ledger" `Quick test_cost_ledger ]);
      ( "optimize (Lemma 3.1)",
        [
          Alcotest.test_case "budget formula" `Quick test_budget_formula;
          Alcotest.test_case "maximize success rate" `Quick test_maximize_success;
          Alcotest.test_case "minimize success rate" `Quick test_minimize_success;
          Alcotest.test_case "speedup vs exhaustive" `Quick test_quantum_speedup_vs_exhaustive;
          Alcotest.test_case "rho promise scaling" `Quick test_rho_promise_scaling;
          Alcotest.test_case "touched tracking" `Quick test_touched_tracks_measurements;
          Alcotest.test_case "weighted search" `Quick test_weighted_search;
        ] );
      ( "accounting regressions",
        [
          Alcotest.test_case "measurement cap = ledger" `Quick test_measurement_cap_matches_ledger;
          Alcotest.test_case "touched dedup golden" `Quick test_touched_dedup_golden;
          Alcotest.test_case "exhaustive direction" `Quick test_exhaustive_direction;
        ] );
      ( "framework (Setup, Evaluation, predicate)",
        [
          QCheck_alcotest.to_alcotest framework_agreement_prop;
          Alcotest.test_case "measured cost recharge" `Quick
            test_framework_charges_measured_costs;
        ] );
    ]
