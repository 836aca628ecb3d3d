(* Tests for lib/util: integer math, RNG, priority queue, statistics,
   union-find, tables. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------------------- Int_math ---------------------------- *)

let test_ceil_div () =
  check "7/2" 4 (Util.Int_math.ceil_div 7 2);
  check "8/2" 4 (Util.Int_math.ceil_div 8 2);
  check "0/5" 0 (Util.Int_math.ceil_div 0 5);
  check "1/5" 1 (Util.Int_math.ceil_div 1 5);
  Alcotest.check_raises "negative" (Invalid_argument "Int_math.ceil_div") (fun () ->
      ignore (Util.Int_math.ceil_div (-1) 2))

let test_pow () =
  check "2^10" 1024 (Util.Int_math.pow 2 10);
  check "3^0" 1 (Util.Int_math.pow 3 0);
  check "5^3" 125 (Util.Int_math.pow 5 3);
  check "1^100" 1 (Util.Int_math.pow 1 100);
  check "0^3" 0 (Util.Int_math.pow 0 3)

let test_ilog2 () =
  check "ilog2 1" 0 (Util.Int_math.ilog2 1);
  check "ilog2 2" 1 (Util.Int_math.ilog2 2);
  check "ilog2 3" 1 (Util.Int_math.ilog2 3);
  check "ilog2 1024" 10 (Util.Int_math.ilog2 1024);
  check "ilog2 1025" 10 (Util.Int_math.ilog2 1025);
  check "ceil 1" 0 (Util.Int_math.ilog2_ceil 1);
  check "ceil 3" 2 (Util.Int_math.ilog2_ceil 3);
  check "ceil 1024" 10 (Util.Int_math.ilog2_ceil 1024);
  check "ceil 1025" 11 (Util.Int_math.ilog2_ceil 1025)

let prop_ilog2 =
  QCheck.Test.make ~name:"ilog2 brackets n" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let l = Util.Int_math.ilog2 n in
      Util.Int_math.pow 2 l <= n && n < Util.Int_math.pow 2 (l + 1))

let prop_isqrt =
  QCheck.Test.make ~name:"isqrt brackets n" ~count:500
    QCheck.(int_range 0 10_000_000)
    (fun n ->
      let s = Util.Int_math.isqrt n in
      (s * s) <= n && n < (s + 1) * (s + 1))

let test_clamp () =
  check "below" 3 (Util.Int_math.clamp ~lo:3 ~hi:7 1);
  check "above" 7 (Util.Int_math.clamp ~lo:3 ~hi:7 9);
  check "inside" 5 (Util.Int_math.clamp ~lo:3 ~hi:7 5);
  check "even id" 4 (Util.Int_math.round_to_even 4);
  check "odd up" 6 (Util.Int_math.round_to_even 5)

let test_list_aggregates () =
  check "sum" 10 (Util.Int_math.sum [ 1; 2; 3; 4 ]);
  check "max" 9 (Util.Int_math.max_list [ 3; 9; 1 ]);
  check "min" 1 (Util.Int_math.min_list [ 3; 9; 1 ])

(* ------------------------------ Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Util.Rng.create ~seed:5 and b = Util.Rng.create ~seed:5 in
  for _ = 1 to 50 do
    check "same stream" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Util.Rng.create ~seed:5 in
  let child = Util.Rng.split a in
  (* Child consumption must not perturb the parent's determinism
     relative to a parent that also split once. *)
  let b = Util.Rng.create ~seed:5 in
  let _child_b = Util.Rng.split b in
  for _ = 1 to 10 do
    ignore (Util.Rng.int child 100)
  done;
  for _ = 1 to 20 do
    check "parent stream preserved" (Util.Rng.int a 1000) (Util.Rng.int b 1000)
  done

let test_sample_without_replacement () =
  let rng = Util.Rng.create ~seed:1 in
  for _ = 1 to 50 do
    let k = Util.Rng.int rng 20 in
    let l = Util.Rng.sample_without_replacement rng ~k ~n:20 in
    check "size" k (List.length l);
    checkb "distinct" true (List.length (List.sort_uniq compare l) = k);
    checkb "sorted" true (List.sort compare l = l);
    List.iter (fun v -> checkb "in range" true (v >= 0 && v < 20)) l
  done

let test_subset_bernoulli_stats () =
  let rng = Util.Rng.create ~seed:2 in
  let total = ref 0 in
  let trials = 200 and n = 100 and p = 0.3 in
  for _ = 1 to trials do
    total := !total + List.length (Util.Rng.subset_bernoulli rng ~n ~p)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  checkb "mean near np" true (abs_float (mean -. 30.0) < 2.0)

let test_bernoulli_extremes () =
  let rng = Util.Rng.create ~seed:3 in
  checkb "p=0" false (Util.Rng.bernoulli rng ~p:0.0);
  checkb "p=1" true (Util.Rng.bernoulli rng ~p:1.0)

let test_shuffle_permutation () =
  let rng = Util.Rng.create ~seed:4 in
  let a = Array.init 30 (fun i -> i) in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  checkb "permutation" true (sorted = Array.init 30 (fun i -> i))

(* --------------------- Int_heap / Int_pq --------------------------- *)

let test_int_heap_basic () =
  let h = Util.Int_heap.create () in
  checkb "empty" true (Util.Int_heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Util.Int_heap.peek h);
  List.iter (Util.Int_heap.push h) [ 5; 1; 4; 1; 3 ];
  check "size" 5 (Util.Int_heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Util.Int_heap.peek h);
  let rec drain acc =
    match Util.Int_heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  (* Duplicates survive: the calendar relies on lazy deletion. *)
  Alcotest.(check (list int)) "sorted with dups" [ 1; 1; 3; 4; 5 ] (drain []);
  checkb "drained" true (Util.Int_heap.is_empty h);
  Alcotest.check_raises "sort past the end"
    (Invalid_argument "Int_heap.sort: prefix out of range") (fun () ->
      Util.Int_heap.sort [| 1 |] 2)

let prop_int_heap_heapsort =
  QCheck.Test.make ~name:"Int_heap drains in sorted order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range (-1000) 1000))
    (fun xs ->
      let h = Util.Int_heap.create ~capacity:1 () in
      List.iter (Util.Int_heap.push h) xs;
      let rec drain acc =
        match Util.Int_heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_int_heap_sort_prefix =
  (* The engine sorts each round's touched ids with [Int_heap.sort],
     one path at every size: it must agree with [Array.sort] on the
     prefix and leave the suffix alone, whatever the input's order. *)
  let shapes = [| "random"; "sorted"; "reversed"; "constant"; "clustered" |] in
  let gen =
    QCheck.Gen.(
      int_range 0 3000 >>= fun len ->
      int_range 0 len >>= fun k ->
      int_range 0 (Array.length shapes - 1) >>= fun shape ->
      int_range 1 8 >>= fun clusters ->
      array_size (return len) (int_range (-1_000_000) 1_000_000) >|= fun a ->
      (match shapes.(shape) with
      | "sorted" -> Array.sort compare a
      | "reversed" -> Array.sort (fun x y -> compare y x) a
      | "constant" -> Array.fill a 0 len 42
      | "clustered" -> Array.iteri (fun i x -> a.(i) <- 1000 * (abs x mod clusters)) a
      | _ -> ());
      (shapes.(shape), a, k))
  in
  let print (shape, a, k) = Printf.sprintf "%s len=%d k=%d" shape (Array.length a) k in
  QCheck.Test.make ~name:"Int_heap.sort = Array.sort on a prefix" ~count:300
    (QCheck.make ~print gen)
    (fun (_, a, k) ->
      let expect = Array.sub a 0 k in
      Array.sort compare expect;
      let got = Array.copy a in
      Util.Int_heap.sort got k;
      Array.sub got 0 k = expect
      && Array.sub got k (Array.length a - k) = Array.sub a k (Array.length a - k))

let test_int_pq_basic () =
  let q = Util.Int_pq.create ~n:10 in
  checkb "empty" true (Util.Int_pq.is_empty q);
  Util.Int_pq.insert q ~key:3 ~prio:30;
  Util.Int_pq.insert q ~key:1 ~prio:10;
  Util.Int_pq.insert q ~key:2 ~prio:20;
  check "size" 3 (Util.Int_pq.size q);
  checkb "mem" true (Util.Int_pq.mem q 1);
  (match Util.Int_pq.pop_min q with
  | Some (k, p) ->
    check "min key" 1 k;
    check "min prio" 10 p
  | None -> Alcotest.fail "empty");
  Util.Int_pq.insert_or_decrease q ~key:3 ~prio:5;
  (match Util.Int_pq.pop_min q with
  | Some (k, _) -> check "after decrease" 3 k
  | None -> Alcotest.fail "empty");
  checkb "mem gone" false (Util.Int_pq.mem q 3)

let test_int_pq_errors () =
  let q = Util.Int_pq.create ~n:4 in
  Util.Int_pq.insert q ~key:0 ~prio:1;
  Alcotest.check_raises "dup" (Invalid_argument "Int_pq.insert: key present") (fun () ->
      Util.Int_pq.insert q ~key:0 ~prio:2)

let prop_pqueue_heapsort =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 1000))
    (fun prios ->
      let q = Util.Int_pq.create ~n:(List.length prios + 1) in
      List.iteri (fun i p -> Util.Int_pq.insert q ~key:i ~prio:p) prios;
      let rec drain acc =
        match Util.Int_pq.pop_min q with None -> List.rev acc | Some (_, p) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let prop_pqueue_insert_or_decrease =
  QCheck.Test.make ~name:"insert_or_decrease keeps minimum" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 9) (int_range 0 1000)))
    (fun ops ->
      let q = Util.Int_pq.create ~n:10 in
      let best = Hashtbl.create 10 in
      List.iter
        (fun (k, p) ->
          Util.Int_pq.insert_or_decrease q ~key:k ~prio:p;
          match Hashtbl.find_opt best k with
          | Some b when b <= p -> ()
          | _ -> Hashtbl.replace best k p)
        ops;
      Hashtbl.fold
        (fun k p acc -> acc && Util.Int_pq.priority q k = Some p)
        best true)

(* --------------------------- Domain_pool --------------------------- *)

let test_domain_pool_inline () =
  let calls = ref [] in
  let out = Util.Domain_pool.run ~jobs:1 5 (fun i -> calls := i :: !calls; i * i) in
  Alcotest.(check (array int)) "inline run" [| 0; 1; 4; 9; 16 |] out;
  Alcotest.(check (list int)) "inline order" [ 0; 1; 2; 3; 4 ] (List.rev !calls);
  Alcotest.(check (array int)) "empty" [||] (Util.Domain_pool.run ~jobs:4 0 (fun i -> i))

let test_domain_pool_jobs_invariant () =
  (* The determinism contract: results are indexed like Array.init
     regardless of the worker count. *)
  let f i = (i * 17) mod 101 in
  let serial = Array.init 37 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        serial
        (Util.Domain_pool.run ~jobs 37 f))
    [ 1; 2; 3; 4; 8; 64 ];
  Alcotest.(check (list int)) "map_list" [ 2; 4; 6 ]
    (Util.Domain_pool.map_list ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "map_list jobs=2" [ 1; 4; 9 ]
    (Util.Domain_pool.map_list ~jobs:2 (fun x -> x * x) [ 1; 2; 3 ])

let prop_domain_pool_matches_serial =
  QCheck.Test.make ~name:"Domain_pool.run = Array.init at any job count" ~count:50
    QCheck.(pair (int_range 0 200) (int_range 1 8))
    (fun (n, jobs) ->
      Util.Domain_pool.run ~jobs n (fun i -> (i * 31) lxor n) = Array.init n (fun i -> (i * 31) lxor n))

let test_domain_pool_default_jobs () =
  checkb "default >= 1" true (Util.Domain_pool.default_jobs () >= 1);
  Alcotest.(check string) "env var name" "QCONGEST_JOBS" Util.Domain_pool.env_var;
  Alcotest.check_raises "set_default_jobs rejects 0"
    (Invalid_argument "Domain_pool.set_default_jobs: jobs < 1") (fun () ->
      Util.Domain_pool.set_default_jobs 0)

(* ----------------------------- Stats ------------------------------ *)

let test_stats_basic () =
  checkf "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  checkf "median odd" 2.0 (Util.Stats.median [ 3.0; 1.0; 2.0 ]);
  checkf "median even" 2.5 (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  checkf "stddev const" 0.0 (Util.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  checkf "min" 1.0 (Util.Stats.minf [ 3.0; 1.0 ]);
  checkf "max" 3.0 (Util.Stats.maxf [ 3.0; 1.0 ])

let test_linear_fit_exact () =
  let pts = List.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let fit = Util.Stats.linear_fit pts in
  checkf "slope" 3.0 fit.Util.Stats.slope;
  checkf "intercept" 1.0 fit.Util.Stats.intercept;
  checkf "r2" 1.0 fit.Util.Stats.r2

let test_loglog_fit_power_law () =
  (* y = 7·x^{2.5} must fit slope 2.5 exactly. *)
  let pts = List.init 8 (fun i -> let x = float_of_int (i + 2) in (x, 7.0 *. (x ** 2.5))) in
  let fit = Util.Stats.loglog_fit pts in
  Alcotest.(check (float 1e-6)) "exponent" 2.5 fit.Util.Stats.slope

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50" 50.0 (Util.Stats.percentile xs ~p:50.0);
  checkf "p100" 100.0 (Util.Stats.percentile xs ~p:100.0)

let test_percentile_edges () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p0" 1.0 (Util.Stats.percentile xs ~p:0.0);
  checkf "p1" 1.0 (Util.Stats.percentile xs ~p:1.0);
  checkf "singleton p0" 7.0 (Util.Stats.percentile [ 7.0 ] ~p:0.0);
  checkf "singleton p50" 7.0 (Util.Stats.percentile [ 7.0 ] ~p:50.0);
  checkf "singleton p100" 7.0 (Util.Stats.percentile [ 7.0 ] ~p:100.0);
  Alcotest.check_raises "NaN input" (Invalid_argument "Stats.percentile: NaN input")
    (fun () -> ignore (Util.Stats.percentile [ 1.0; Float.nan ] ~p:50.0));
  Alcotest.check_raises "NaN p" (Invalid_argument "Stats.percentile") (fun () ->
      ignore (Util.Stats.percentile xs ~p:Float.nan));
  Alcotest.check_raises "p > 100" (Invalid_argument "Stats.percentile") (fun () ->
      ignore (Util.Stats.percentile xs ~p:100.5));
  Alcotest.check_raises "median NaN" (Invalid_argument "Stats.median: NaN input")
    (fun () -> ignore (Util.Stats.median [ Float.nan ]))

(* Pins the population-vs-sample convention: [stddev] divides by n (the
   measured runs ARE the population being summarized), [stddev_sample]
   applies Bessel's n-1. *)
let test_stddev_conventions () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checkf "population" 2.0 (Util.Stats.stddev xs);
  checkf "sample (Bessel)" (sqrt (32.0 /. 7.0)) (Util.Stats.stddev_sample xs);
  checkf "sample singleton" 0.0 (Util.Stats.stddev_sample [ 3.0 ]);
  checkf "population singleton" 0.0 (Util.Stats.stddev [ 3.0 ])

(* The extrema use [Float.compare]'s total order (NaN below every
   real): [maxf] of a NaN-polluted list is still the real maximum,
   while [minf] surfaces the NaN instead of silently skipping it. *)
let test_extrema_total_order () =
  checkf "maxf sees through nan" 3.0 (Util.Stats.maxf [ 1.0; Float.nan; 3.0 ]);
  checkf "maxf leading nan" 3.0 (Util.Stats.maxf [ Float.nan; 3.0 ]);
  checkb "minf surfaces nan" true (Float.is_nan (Util.Stats.minf [ 1.0; Float.nan; 3.0 ]));
  checkf "minf clean" 1.0 (Util.Stats.minf [ 3.0; 1.0; 2.0 ])

(* ------------------------------- Lp -------------------------------- *)

let test_lp_basic () =
  match
    Util.Lp.solve ~c:[| -1.0; -1.0 |]
      ~a:[| [| 1.0; 1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |]
      ~b:[| 4.0; 2.0; 3.0 |]
  with
  | Util.Lp.Optimal { objective; solution } ->
    checkf "objective" (-4.0) objective;
    checkf "x+y=4" 4.0 (solution.(0) +. solution.(1))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  checkb "x<=-1,x>=0 infeasible" true
    (Util.Lp.solve ~c:[| 1.0 |] ~a:[| [| 1.0 |] |] ~b:[| -1.0 |] = Util.Lp.Infeasible)

let test_lp_unbounded () =
  checkb "min -x, -x<=1 unbounded" true
    (Util.Lp.solve ~c:[| -1.0 |] ~a:[| [| -1.0 |] |] ~b:[| 1.0 |] = Util.Lp.Unbounded)

let test_lp_negative_rhs () =
  (* min x s.t. x >= 1 (written -x <= -1): needs phase 1. *)
  match Util.Lp.solve ~c:[| 1.0 |] ~a:[| [| -1.0 |] |] ~b:[| -1.0 |] with
  | Util.Lp.Optimal { objective; _ } -> checkf "min is 1" 1.0 objective
  | _ -> Alcotest.fail "expected optimal"

let test_minimax_interpolation () =
  (* Degree >= points-1 interpolates exactly. *)
  let e, coeffs = Util.Lp.minimax_fit ~degree:2 ~points:[ (0.0, 1.0); (1.0, 3.0); (2.0, 2.0) ] in
  checkb "eps ~ 0" true (e < 1e-7);
  checkf "hits middle point" 3.0 (Util.Lp.eval_minimax ~coeffs ~lo:0.0 ~hi:2.0 1.0)

let test_minimax_constant () =
  let e, _ = Util.Lp.minimax_fit ~degree:0 ~points:[ (0.0, 0.0); (1.0, 4.0) ] in
  checkf "best constant error" 2.0 e

let prop_minimax_monotone_in_degree =
  QCheck.Test.make ~name:"minimax error decreases with degree" ~count:40
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Util.Rng.create ~seed in
      let k = 3 + Util.Rng.int rng 5 in
      let points =
        List.init (k + 1) (fun i -> (float_of_int i, Util.Rng.float rng 4.0))
      in
      let errs = List.init (k + 1) (fun d -> fst (Util.Lp.minimax_fit ~degree:d ~points)) in
      let rec mono = function
        | a :: (b :: _ as rest) -> a >= b -. 1e-7 && mono rest
        | _ -> true
      in
      mono errs && List.nth errs k < 1e-6)

(* --------------------------- Union_find --------------------------- *)

let test_union_find () =
  let uf = Util.Union_find.create 10 in
  check "classes" 10 (Util.Union_find.count_classes uf);
  Util.Union_find.union uf 0 1;
  Util.Union_find.union uf 1 2;
  checkb "same" true (Util.Union_find.same uf 0 2);
  checkb "diff" false (Util.Union_find.same uf 0 3);
  check "classes after" 8 (Util.Union_find.count_classes uf);
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (Util.Union_find.class_members uf 1)

(* ----------------------------- Table ------------------------------ *)

let test_table_render () =
  let t = Util.Table.create ~headers:[ "a"; "bb" ] in
  Util.Table.add_row t [ "x"; "y" ];
  Util.Table.add_row t [ "long-cell"; "z" ];
  let s = Util.Table.render t in
  checkb "contains header" true (String.length s > 0);
  checkb "has rule" true (String.contains s '+');
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Util.Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "bool" "yes" (Util.Table.cell_bool true)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_ilog2; prop_isqrt; prop_pqueue_heapsort; prop_pqueue_insert_or_decrease;
      prop_int_heap_heapsort; prop_int_heap_sort_prefix; prop_domain_pool_matches_serial;
      prop_minimax_monotone_in_degree ]

let () =
  Alcotest.run "util"
    [
      ( "int_math",
        [
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "ilog2" `Quick test_ilog2;
          Alcotest.test_case "clamp/round" `Quick test_clamp;
          Alcotest.test_case "list aggregates" `Quick test_list_aggregates;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "subset bernoulli stats" `Quick test_subset_bernoulli_stats;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "int_heap",
        [ Alcotest.test_case "basic" `Quick test_int_heap_basic ] );
      ( "int_pq",
        [
          Alcotest.test_case "basic" `Quick test_int_pq_basic;
          Alcotest.test_case "errors" `Quick test_int_pq_errors;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "inline" `Quick test_domain_pool_inline;
          Alcotest.test_case "jobs invariant" `Quick test_domain_pool_jobs_invariant;
          Alcotest.test_case "default jobs" `Quick test_domain_pool_default_jobs;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "linear fit" `Quick test_linear_fit_exact;
          Alcotest.test_case "loglog fit" `Quick test_loglog_fit_power_law;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "stddev conventions" `Quick test_stddev_conventions;
          Alcotest.test_case "extrema total order" `Quick test_extrema_total_order;
        ] );
      ( "lp",
        [
          Alcotest.test_case "basic optimum" `Quick test_lp_basic;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "negative rhs (phase 1)" `Quick test_lp_negative_rhs;
          Alcotest.test_case "minimax interpolation" `Quick test_minimax_interpolation;
          Alcotest.test_case "minimax constant" `Quick test_minimax_constant;
        ] );
      ("union_find", [ Alcotest.test_case "ops" `Quick test_union_find ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ("properties", qsuite);
    ]
