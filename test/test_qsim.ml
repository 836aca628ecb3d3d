(* Tests for lib/qsim: state vectors, Grover iterations, BBHT, and
   Durr-Hoyer optimum finding. *)

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------ State ------------------------------ *)

let test_uniform () =
  let s = Qsim.State.uniform 8 in
  checkf "norm" 1.0 (Qsim.State.norm s);
  for i = 0 to 7 do
    checkf "prob" 0.125 (Qsim.State.probability s i)
  done

let test_of_weights () =
  let s = Qsim.State.of_weights [| 1.0; 3.0 |] in
  checkf "p0" 0.25 (Qsim.State.probability s 0);
  checkf "p1" 0.75 (Qsim.State.probability s 1);
  checkb "zero total rejected" true
    (try
       ignore (Qsim.State.of_weights [| 0.0; 0.0 |]);
       false
     with Invalid_argument _ -> true);
  checkb "negative rejected" true
    (try
       ignore (Qsim.State.of_weights [| 1.0; -1.0 |]);
       false
     with Invalid_argument _ -> true)

let test_measure_distribution () =
  let rng = Util.Rng.create ~seed:1 in
  let s = Qsim.State.of_weights [| 1.0; 9.0 |] in
  let hits = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    if Qsim.State.measure s ~rng = 1 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  checkb "frequency near 0.9" true (abs_float (freq -. 0.9) < 0.03)

let test_mass_and_fidelity () =
  let s = Qsim.State.uniform 10 in
  checkf "mass of half" 0.5 (Qsim.State.mass s ~marked:(fun i -> i < 5));
  checkf "self fidelity" 1.0 (Qsim.State.fidelity s s);
  let t = Qsim.State.of_weights (Array.init 10 (fun i -> if i = 0 then 1.0 else 0.0)) in
  checkf "fidelity uniform-basis" 0.1 (Qsim.State.fidelity s t)

(* ------------------------------ Grover ----------------------------- *)

let prop_closed_form_matches_statevector =
  QCheck.Test.make ~name:"closed-form success prob = state-vector evolution" ~count:60
    QCheck.(triple (int_range 2 128) (int_range 1 32) (int_range 0 10))
    (fun (n, k_raw, j) ->
      let k = min k_raw (n - 1) in
      let marked i = i < k in
      let init = Qsim.State.uniform n in
      let final = Qsim.Grover.run ~init ~marked ~iterations:j in
      let p_sv = Qsim.State.mass final ~marked in
      let p_cf =
        Qsim.Grover.success_probability_closed_form
          ~rho:(float_of_int k /. float_of_int n)
          ~iterations:j
      in
      abs_float (p_sv -. p_cf) < 1e-9)

let prop_closed_form_weighted =
  QCheck.Test.make ~name:"closed form also holds for weighted superpositions" ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 0 8))
    (fun (seed, j) ->
      let rng = Util.Rng.create ~seed in
      let n = 4 + Util.Rng.int rng 60 in
      let w = Array.init n (fun _ -> 0.1 +. Util.Rng.float rng 5.0) in
      let marked i = i mod 3 = 0 in
      let init = Qsim.State.of_weights w in
      let rho = Qsim.State.mass init ~marked in
      let final = Qsim.Grover.run ~init ~marked ~iterations:j in
      abs_float
        (Qsim.State.mass final ~marked
        -. Qsim.Grover.success_probability_closed_form ~rho ~iterations:j)
      < 1e-9)

let test_optimal_iterations_boost () =
  let n = 1024 in
  let rho = 1.0 /. float_of_int n in
  let j = Qsim.Grover.optimal_iterations ~rho in
  checkb "j near (pi/4)sqrt(N)" true (abs (j - 25) <= 1);
  let p = Qsim.Grover.success_probability_closed_form ~rho ~iterations:j in
  checkb "success prob ~1" true (p > 0.99)

let test_unitarity () =
  let init = Qsim.State.uniform 37 in
  let final = Qsim.Grover.run ~init ~marked:(fun i -> i mod 5 = 0) ~iterations:7 in
  checkf "norm preserved" 1.0 (Qsim.State.norm final)

let test_no_marked_is_identity () =
  let init = Qsim.State.uniform 16 in
  let final = Qsim.Grover.run ~init ~marked:(fun _ -> false) ~iterations:5 in
  checkf "fidelity 1" 1.0 (Qsim.State.fidelity init final)

(* ------------------------------ Search ----------------------------- *)

let test_bbht_finds_marked () =
  let rng = Util.Rng.create ~seed:7 in
  let n = 256 in
  let init = Qsim.State.uniform n in
  let found = ref 0 in
  for _ = 1 to 30 do
    let r = Qsim.Search.bbht ~rng ~init ~marked:(fun i -> i = 137) () in
    match r.Qsim.Search.found with
    | Some x when x = 137 -> incr found
    | Some _ -> Alcotest.fail "returned unmarked element"
    | None -> ()
  done;
  checkb "finds almost always" true (!found >= 28)

let test_bbht_no_marked () =
  let rng = Util.Rng.create ~seed:8 in
  let init = Qsim.State.uniform 64 in
  let r = Qsim.Search.bbht ~rng ~init ~marked:(fun _ -> false) () in
  checkb "none" true (r.Qsim.Search.found = None);
  checkb "stopped by budget" true (r.Qsim.Search.oracle_calls >= 9 * 8)

let test_bbht_query_scaling () =
  let rng = Util.Rng.create ~seed:9 in
  let avg n k =
    let init = Qsim.State.uniform n in
    let total = ref 0 in
    for _ = 1 to 40 do
      let r = Qsim.Search.bbht ~rng ~init ~marked:(fun i -> i < k) () in
      total := !total + r.Qsim.Search.oracle_calls
    done;
    float_of_int !total /. 40.0
  in
  let dense = avg 512 128 and sparse = avg 512 1 in
  checkb "sparse needs more" true (sparse > 2.0 *. dense)

let test_durr_hoyer_maximum () =
  let rng = Util.Rng.create ~seed:10 in
  let n = 128 in
  let hits = ref 0 in
  for t = 1 to 25 do
    let values = Array.init n (fun i -> (i * 37 + t * 11) mod 1000) in
    let r = Qsim.Search.maximum ~rng ~n ~value:(fun i -> values.(i)) ~compare () in
    (match r.Qsim.Search.found with
    | Some (_, v) when v = Array.fold_left max 0 values -> incr hits
    | _ -> ());
    checkb "bounded calls" true
      (r.Qsim.Search.oracle_calls <= int_of_float (9.0 *. sqrt 128.0) + 10)
  done;
  checkb "mostly optimal" true (!hits >= 20)

let test_durr_hoyer_minimum () =
  let rng = Util.Rng.create ~seed:11 in
  let n = 64 in
  let values = Array.init n (fun i -> 1000 - i) in
  let r =
    Qsim.Search.minimum ~rng ~n ~value:(fun i -> values.(i)) ~compare ~budget_factor:20.0 ()
  in
  match r.Qsim.Search.found with
  | Some (i, v) ->
    Alcotest.(check int) "argmin" (n - 1) i;
    Alcotest.(check int) "min" (1000 - (n - 1)) v
  | None -> Alcotest.fail "no result"

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_closed_form_matches_statevector; prop_closed_form_weighted ]

let () =
  Alcotest.run "qsim"
    [
      ( "state",
        [
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "of_weights" `Quick test_of_weights;
          Alcotest.test_case "measure distribution" `Quick test_measure_distribution;
          Alcotest.test_case "mass/fidelity" `Quick test_mass_and_fidelity;
        ] );
      ( "grover",
        [
          Alcotest.test_case "optimal iterations boost" `Quick test_optimal_iterations_boost;
          Alcotest.test_case "unitarity" `Quick test_unitarity;
          Alcotest.test_case "no marked = identity" `Quick test_no_marked_is_identity;
        ] );
      ( "search",
        [
          Alcotest.test_case "bbht finds marked" `Quick test_bbht_finds_marked;
          Alcotest.test_case "bbht no marked" `Quick test_bbht_no_marked;
          Alcotest.test_case "bbht query scaling" `Quick test_bbht_query_scaling;
          Alcotest.test_case "durr-hoyer maximum" `Quick test_durr_hoyer_maximum;
          Alcotest.test_case "durr-hoyer minimum" `Quick test_durr_hoyer_minimum;
        ] );
      ("properties", qsuite);
    ]
