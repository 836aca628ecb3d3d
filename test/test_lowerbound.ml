(* Tests for lib/lowerbound: the Boolean machinery, approximate-degree
   bounds, the gadget construction, Table 2, Lemmas 4.4/4.9, the Server
   model, and the Theorem 4.2/4.8 chain. *)

open Lowerbound

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

(* ----------------------------- Boolfun ----------------------------- *)

let test_formula_eval () =
  let f = Boolfun.And [ Boolfun.Var 0; Boolfun.Or [ Boolfun.Var 1; Boolfun.Not (Boolfun.Var 2) ] ] in
  checkb "eval t" true (Boolfun.eval f [| true; false; false |]);
  checkb "eval f" false (Boolfun.eval f [| true; false; true |]);
  check "num vars" 3 (Boolfun.num_vars f);
  checkb "read once" true (Boolfun.is_read_once f);
  checkb "not read once" false
    (Boolfun.is_read_once (Boolfun.And [ Boolfun.Var 0; Boolfun.Var 0 ]))

let test_and_or_n () =
  let a = Boolfun.and_n 3 and o = Boolfun.or_n 3 in
  checkb "and all true" true (Boolfun.eval a [| true; true; true |]);
  checkb "and one false" false (Boolfun.eval a [| true; false; true |]);
  checkb "or one true" true (Boolfun.eval o [| false; true; false |]);
  checkb "or none" false (Boolfun.eval o [| false; false; false |])

let test_compose_blocks () =
  (* OR_2 ∘ AND_2: 4 variables. *)
  let f = Boolfun.compose_blocks ~outer:(Boolfun.or_n 2) ~arity:2 ~inner:(fun _ -> Boolfun.and_n 2) in
  check "vars" 4 (Boolfun.num_vars f);
  checkb "read once" true (Boolfun.is_read_once f);
  checkb "block 1 fires" true (Boolfun.eval f [| false; false; true; true |]);
  checkb "split blocks dont" false (Boolfun.eval f [| false; true; true; false |])

let test_f_diameter_matches_formula () =
  let s2 = 4 and ell = 3 in
  let formula = Boolfun.f_diameter_formula ~s2 ~ell in
  checkb "read once" true (Boolfun.is_read_once formula);
  check "variable count" (2 * s2 * ell) (Boolfun.num_vars formula);
  let rng = Util.Rng.create ~seed:1 in
  for _ = 1 to 200 do
    let input = Boolfun.random_input ~rng ~s2 ~ell ~p:0.5 in
    let assignment = Array.append input.Boolfun.x input.Boolfun.y in
    checkb "agree" (Boolfun.eval formula assignment) (Boolfun.f_diameter ~s2 ~ell input)
  done

let test_f_radius () =
  let s2 = 3 and ell = 2 in
  let zero = { Boolfun.x = Array.make 6 false; y = Array.make 6 false } in
  checkb "all zero" false (Boolfun.f_radius ~s2 ~ell zero);
  let one = { Boolfun.x = Array.init 6 (fun i -> i = 4); y = Array.init 6 (fun i -> i = 4) } in
  checkb "single overlap" true (Boolfun.f_radius ~s2 ~ell one);
  let disjoint = { Boolfun.x = Array.init 6 (fun i -> i < 3); y = Array.init 6 (fun i -> i >= 3) } in
  checkb "disjoint" false (Boolfun.f_radius ~s2 ~ell disjoint)

let test_forcing_inputs () =
  let s2 = 8 and ell = 4 in
  let yes = Boolfun.input_forcing ~value:true ~s2 ~ell in
  let no = Boolfun.input_forcing ~value:false ~s2 ~ell in
  checkb "yes" true (Boolfun.f_diameter ~s2 ~ell yes);
  checkb "no" false (Boolfun.f_diameter ~s2 ~ell no);
  checkb "yes radius" true (Boolfun.f_radius ~s2 ~ell yes);
  checkb "no radius" false (Boolfun.f_radius ~s2 ~ell no)

let test_ver_gdt () =
  checkb "VER(0,0)" true (Boolfun.ver 0 0);
  checkb "VER(0,1)" true (Boolfun.ver 0 1);
  checkb "VER(1,1)" false (Boolfun.ver 1 1);
  checkb "VER(2,3)" true (Boolfun.ver 2 3);
  checkb "VER(3,3)" false (Boolfun.ver 3 3);
  checkb "promise relation (Lemma 4.7)" true (Boolfun.ver_is_promise_of_gdt ())

let prop_f_monotone =
  QCheck.Test.make ~name:"F is monotone in both inputs" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Rng.create ~seed in
      let s2 = 4 and ell = 3 in
      let input = Boolfun.random_input ~rng ~s2 ~ell ~p:0.5 in
      (* Turning a bit on can only keep F true or make it true. *)
      let before = Boolfun.f_diameter ~s2 ~ell input in
      let k = Util.Rng.int rng (s2 * ell) in
      input.Boolfun.x.(k) <- true;
      input.Boolfun.y.(k) <- true;
      let after = Boolfun.f_diameter ~s2 ~ell input in
      (not before) || after)

(* --------------------------- Approx degree ------------------------- *)

let test_chebyshev_values () =
  Alcotest.(check (float 1e-9)) "T_0" 1.0 (Approx_degree.chebyshev 0 0.7);
  Alcotest.(check (float 1e-9)) "T_1" 0.7 (Approx_degree.chebyshev 1 0.7);
  (* T_2(x) = 2x² - 1. *)
  Alcotest.(check (float 1e-9)) "T_2" ((2.0 *. 0.49) -. 1.0) (Approx_degree.chebyshev 2 0.7);
  (* |T_d| <= 1 on [-1,1]. *)
  for d = 0 to 20 do
    checkb "bounded" true (abs_float (Approx_degree.chebyshev d 0.3) <= 1.0 +. 1e-9)
  done

let test_or_approx_degrees () =
  List.iter
    (fun n ->
      checkb (Printf.sprintf "valid n=%d" n) true (Approx_degree.or_approx_is_valid ~n);
      let p = Approx_degree.or_approx ~n in
      checkb "degree O(sqrt n)" true
        (float_of_int p.Approx_degree.degree <= (2.0 *. sqrt (float_of_int n)) +. 2.0))
    [ 1; 2; 5; 10; 50; 100; 500; 2000 ]

let test_exact_degree_or () =
  (* Exact LP-computed approximate degrees of OR_k: both directions of
     Lemma 4.6's Theta(sqrt k). *)
  Alcotest.(check int) "deg(OR_1)" 1 (Approx_degree.exact_deg_or ~k:1 ~eps:(1. /. 3.));
  Alcotest.(check int) "deg(OR_4)" 2 (Approx_degree.exact_deg_or ~k:4 ~eps:(1. /. 3.));
  Alcotest.(check int) "deg(OR_16)" 3 (Approx_degree.exact_deg_or ~k:16 ~eps:(1. /. 3.));
  List.iter
    (fun k ->
      let d = Approx_degree.exact_deg_or ~k ~eps:(1. /. 3.) in
      let sq = sqrt (float_of_int k) in
      checkb "within [0.4 sqrt k, 1.2 sqrt k + 1]" true
        (float_of_int d >= 0.4 *. sq && float_of_int d <= (1.2 *. sq) +. 1.0))
    [ 2; 4; 8; 9; 16; 25; 36 ]

let test_exact_degree_monotone_eps () =
  (* Looser eps can only lower the degree. *)
  let d13 = Approx_degree.exact_deg_or ~k:16 ~eps:(1. /. 3.) in
  let d49 = Approx_degree.exact_deg_or ~k:16 ~eps:0.49 in
  let d01 = Approx_degree.exact_deg_or ~k:16 ~eps:0.01 in
  checkb "looser <= tighter" true (d49 <= d13 && d13 <= d01);
  (* eps >= 1/2 is trivial: the constant 1/2 works. *)
  Alcotest.(check int) "eps=1/2 trivial" 0 (Approx_degree.exact_deg_or ~k:16 ~eps:0.5)

let test_exact_degree_symmetric_general () =
  (* Parity on 4 bits needs full degree 4 even with eps just below 1. *)
  let parity = Array.init 5 (fun i -> float_of_int (i mod 2)) in
  Alcotest.(check int) "parity needs degree k" 4
    (Approx_degree.exact_deg_symmetric ~profile:parity ~eps:0.4);
  (* AND_4 also has approximate degree Theta(sqrt k); exactly 2 at k=4. *)
  let and4 = Array.init 5 (fun i -> if i = 4 then 1.0 else 0.0) in
  Alcotest.(check int) "deg(AND_4)" 2 (Approx_degree.exact_deg_symmetric ~profile:and4 ~eps:(1. /. 3.))

let test_minimax_error_decreases () =
  let e1 = Approx_degree.minimax_error_or ~k:8 ~degree:1 in
  let e2 = Approx_degree.minimax_error_or ~k:8 ~degree:2 in
  let e3 = Approx_degree.minimax_error_or ~k:8 ~degree:3 in
  checkb "monotone" true (e1 >= e2 && e2 >= e3);
  checkb "deg-1 too coarse" true (e1 > 1. /. 3.)

let test_q_sv_values () =
  (* Eq. (2) with h=4: s=6, ℓ=4 → √(2^6·4)/2 = 8. *)
  Alcotest.(check (float 1e-9)) "q_sv F" 8.0 (Approx_degree.q_sv_f ~s:6 ~ell:4);
  Alcotest.(check (float 1e-9)) "q_sv F'" 8.0 (Approx_degree.q_sv_f' ~s:6 ~ell:4);
  checkb "deg read-once" true (Approx_degree.deg_read_once ~k:16 = 4.0)

(* ------------------------------ Gadget ----------------------------- *)

let test_params_of_h () =
  let p = Gadget.params_of_h ~h:4 in
  check "s" 6 p.Gadget.s;
  check "ell" 4 p.Gadget.ell;
  check "m" 16 p.Gadget.m;
  (* n = (2^5-1) + 16·18 + 2·64 = 447. *)
  check "expected n" 447 p.Gadget.expected_n;
  checkb "odd h rejected" true
    (try ignore (Gadget.params_of_h ~h:3); false with Invalid_argument _ -> true)

let build_gadget ?(variant = Gadget.Diameter_gadget) ?input h =
  let p = Gadget.params_of_h ~h in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  let input =
    match input with
    | Some i -> i
    | None -> Boolfun.input_forcing ~value:true ~s2 ~ell:p.Gadget.ell
  in
  Gadget.build ~variant ~h ~input ()

let test_gadget_structure_h2 () =
  let gd = build_gadget 2 in
  check "node count" 71 (Graphlib.Wgraph.n gd.Gadget.graph);
  checkb "structural" true (Gadget.structural_ok gd);
  checkb "connected" true (Graphlib.Wgraph.is_connected gd.Gadget.graph)

let test_gadget_structure_h4 () =
  let gd = build_gadget 4 in
  check "node count" 447 (Graphlib.Wgraph.n gd.Gadget.graph);
  checkb "structural" true (Gadget.structural_ok gd)

let test_gadget_radius_variant () =
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  let input = Boolfun.input_forcing ~value:true ~s2 ~ell:p.Gadget.ell in
  let gd = Gadget.build ~variant:Gadget.Radius_gadget ~h:2 ~input () in
  check "one extra node" 72 (Graphlib.Wgraph.n gd.Gadget.graph);
  checkb "structural" true (Gadget.structural_ok gd);
  (* a_0's edges all weigh 2α. *)
  let a0 = Gadget.id_of gd Gadget.A_zero in
  Array.iter
    (fun (_, w) -> check "2 alpha" (2 * gd.Gadget.alpha) w)
    (Graphlib.Wgraph.neighbors gd.Gadget.graph a0);
  check "a0 degree = 2^s" s2 (Graphlib.Wgraph.degree gd.Gadget.graph a0)

let test_gadget_unweighted_diameter_logn () =
  (* D_G = Θ(h) = Θ(log n): check h=2 and h=4 stay small and grow
     gently. *)
  let d_of h =
    let gd = build_gadget h in
    Graphlib.Dist.to_int_exn
      (Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights gd.Gadget.graph))
  in
  let d2 = d_of 2 and d4 = d_of 4 in
  checkb "small at h=2" true (d2 <= 4 * (2 + 2));
  checkb "small at h=4" true (d4 <= 4 * (4 + 2));
  checkb "grows mildly" true (d4 >= d2)

let test_bin () =
  check "bin(1,j)=0" 0 (Gadget.bin ~i:1 ~j:1);
  check "bin(2,1)=1" 1 (Gadget.bin ~i:2 ~j:1);
  check "bin(3,2)=1" 1 (Gadget.bin ~i:3 ~j:2);
  check "bin(5,3)=1" 1 (Gadget.bin ~i:5 ~j:3)

let test_side_of () =
  checkb "tree server" true (Gadget.side_of (Gadget.Tree { depth = 0; pos = 1 }) = Gadget.Server_side);
  checkb "path server" true (Gadget.side_of (Gadget.Path { path = 1; pos = 1 }) = Gadget.Server_side);
  checkb "a alice" true (Gadget.side_of (Gadget.A 1) = Gadget.Alice_side);
  checkb "b star bob" true (Gadget.side_of (Gadget.B_star 1) = Gadget.Bob_side);
  checkb "a0 alice" true (Gadget.side_of Gadget.A_zero = Gadget.Alice_side)

(* ------------------------- Contraction checks ---------------------- *)

let test_contraction_structure () =
  let rng = Util.Rng.create ~seed:5 in
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  let input = Boolfun.random_input ~rng ~s2 ~ell:p.Gadget.ell ~p:0.5 in
  let gd = Gadget.build ~variant:Gadget.Diameter_gadget ~h:2 ~input () in
  let c = Contraction_check.contract gd in
  checkb "figure-3 structure" true (Contraction_check.structure_ok gd c);
  (* |G'| = 2·2^s + 2s + ℓ + 1 = 16 + 6 + 2 + 1 = 25. *)
  check "contracted size" 25 (Graphlib.Wgraph.n c.Contraction_check.g')

let test_table2_all_rows () =
  let rng = Util.Rng.create ~seed:6 in
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  let input = Boolfun.random_input ~rng ~s2 ~ell:p.Gadget.ell ~p:0.5 in
  let gd = Gadget.build ~variant:Gadget.Diameter_gadget ~h:2 ~input () in
  let c = Contraction_check.contract gd in
  let rows = Contraction_check.table2 gd c ~rng () in
  check "13 rows" 13 (List.length rows);
  List.iter
    (fun (r : Contraction_check.table2_row) ->
      checkb ("row holds: " ^ r.Contraction_check.label) true r.Contraction_check.ok)
    rows

let test_lemma_4_4_both_sides () =
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  List.iter
    (fun value ->
      let input = Boolfun.input_forcing ~value ~s2 ~ell:p.Gadget.ell in
      let gd = Gadget.build ~variant:Gadget.Diameter_gadget ~h:2 ~input () in
      let gap = Contraction_check.lemma_4_4 gd in
      checkb "f matches" true (gap.Contraction_check.f_value = value);
      checkb "gap holds" true gap.Contraction_check.ok;
      checkb "distinguishable at eps=1/4" true (gap.Contraction_check.distinguishable 0.25))
    [ true; false ]

let test_lemma_4_9_both_sides () =
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  List.iter
    (fun value ->
      let input = Boolfun.input_forcing ~value ~s2 ~ell:p.Gadget.ell in
      let gd = Gadget.build ~variant:Gadget.Radius_gadget ~h:2 ~input () in
      let gap = Contraction_check.lemma_4_9 gd in
      checkb "f' matches" true (gap.Contraction_check.f_value = value);
      checkb "gap holds" true gap.Contraction_check.ok)
    [ true; false ]

let test_fig4_eccentricities () =
  let rng = Util.Rng.create ~seed:9 in
  let p = Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Gadget.s in
  let input = Boolfun.random_input ~rng ~s2 ~ell:p.Gadget.ell ~p:0.5 in
  let gd = Gadget.build ~variant:Gadget.Radius_gadget ~h:2 ~input () in
  let c = Contraction_check.contract gd in
  let rows = Contraction_check.fig4_eccentricities gd c in
  check "six categories" 6 (List.length rows);
  List.iter
    (fun (r : Contraction_check.ecc_row) ->
      checkb ("ecc claim: " ^ r.Contraction_check.category) true r.Contraction_check.ok)
    rows;
  (* The a_i really are the only possible centers: their min ecc must
     be <= every other category's min ecc. *)
  let a_row = List.find (fun r -> r.Contraction_check.category = "a_i (radius candidates)") rows in
  List.iter
    (fun (r : Contraction_check.ecc_row) ->
      checkb "a_i are the centers" true
        (a_row.Contraction_check.min_ecc <= r.Contraction_check.min_ecc))
    rows;
  checkb "diameter variant rejected" true
    (try
       let gdd = Gadget.build ~variant:Gadget.Diameter_gadget ~h:2 ~input () in
       ignore (Contraction_check.fig4_eccentricities gdd (Contraction_check.contract gdd));
       false
     with Invalid_argument _ -> true)

let prop_lemma_4_4_random_inputs =
  QCheck.Test.make ~name:"Lemma 4.4 on random inputs (h=2)" ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 3 9))
    (fun (seed, tenths) ->
      let rng = Util.Rng.create ~seed in
      let p = Gadget.params_of_h ~h:2 in
      let s2 = Util.Int_math.pow 2 p.Gadget.s in
      let input =
        Boolfun.random_input ~rng ~s2 ~ell:p.Gadget.ell ~p:(float_of_int tenths /. 10.0)
      in
      let gd = Gadget.build ~variant:Gadget.Diameter_gadget ~h:2 ~input () in
      (Contraction_check.lemma_4_4 gd).Contraction_check.ok)

(* ---------------------------- Server model ------------------------- *)

let test_owner_schedule () =
  let gd = build_gadget 2 in
  let two_h = 4 in
  (* Round 0: the server owns everything in V_S. *)
  let n = Graphlib.Wgraph.n gd.Gadget.graph in
  for v = 0 to n - 1 do
    match Gadget.side_of gd.Gadget.kind_of.(v) with
    | Gadget.Server_side ->
      checkb "initially server" true (Server_model.owner gd ~round:0 ~node:v = Server_model.Server)
    | Gadget.Alice_side ->
      checkb "alice static" true (Server_model.owner gd ~round:0 ~node:v = Server_model.Alice)
    | Gadget.Bob_side ->
      checkb "bob static" true (Server_model.owner gd ~round:0 ~node:v = Server_model.Bob)
  done;
  (* Round 1: leftmost path nodes ceded to Alice, rightmost to Bob. *)
  let pl = Gadget.id_of gd (Gadget.Path { path = 1; pos = 1 }) in
  let pr = Gadget.id_of gd (Gadget.Path { path = 1; pos = two_h }) in
  checkb "left to alice" true (Server_model.owner gd ~round:1 ~node:pl = Server_model.Alice);
  checkb "right to bob" true (Server_model.owner gd ~round:1 ~node:pr = Server_model.Bob)

let test_schedule_validity () =
  List.iter
    (fun h ->
      let gd = build_gadget h in
      let v = Server_model.check_schedule gd ~rounds:(Server_model.max_simulation_rounds gd) in
      checkb (Printf.sprintf "valid at h=%d" h) true v.Server_model.valid)
    [ 2; 4 ]

let test_count_protocol_bound () =
  (* Run a real flooding protocol from a clique node; chargeable
     messages must respect the 2h-per-round bound of Lemma 4.1. *)
  let gd = build_gadget 4 in
  let max_rounds = Server_model.max_simulation_rounds gd in
  let count =
    Server_model.count_protocol gd ~run:(fun ~on_message ->
        let proto : (int, int) Congest.Engine.protocol =
          {
            name = "ttl-flood";
            size_words = (fun _ -> 1);
            init =
              (fun view ->
                if view.Congest.Node_view.id = Gadget.id_of gd (Gadget.A 1) then
                  ( max_rounds - 1,
                    Congest.Engine.send
                      (Array.to_list
                         (Array.map
                            (fun (v, _) -> (v, max_rounds - 1))
                            view.Congest.Node_view.neighbors)) )
                else (-1, Congest.Engine.no_action));
            on_round =
              (fun view ~round:_ s ~inbox ->
                let best = Congest.Engine.Inbox.fold (fun a ~src:_ ~w:_ m -> max a m) (-1) inbox in
                if best > 0 && best - 1 > s then
                  ( best - 1,
                    Congest.Engine.send
                      (Array.to_list
                         (Array.map (fun (v, _) -> (v, best - 1)) view.Congest.Node_view.neighbors))
                  )
                else (max s best, Congest.Engine.no_action));
          }
        in
        let _, trace =
          Congest.Engine.run ~sink:(Telemetry.Events.of_on_message on_message) gd.Gadget.graph
            proto
        in
        trace.Congest.Engine.rounds)
  in
  checkb "protocol ran" true (count.Server_model.protocol_rounds > 0);
  checkb "within 2h per round" true count.Server_model.bound_2h_per_round;
  checkb "total within 2hT" true
    (count.Server_model.chargeable_messages
    <= 2 * 4 * count.Server_model.protocol_rounds)

(* ------------------------------ Theorem ---------------------------- *)

let test_theorem_bound_values () =
  let b = Theorem.bound_for ~h:4 in
  check "n formula" 447 b.Theorem.n;
  checkb "q_sv = 8" true (b.Theorem.q_sv = 8.0);
  checkb "t_lower positive" true (b.Theorem.t_lower > 0.0);
  (* The asymptotic claim: q_sv = Θ(2^h), so t_lower ~ n^{2/3}/polylog. *)
  let b2 = Theorem.bound_for ~h:6 in
  checkb "bound grows" true (b2.Theorem.t_lower > b.Theorem.t_lower);
  checkb "tracks n^{2/3} shape" true
    (b2.Theorem.q_sv /. b.Theorem.q_sv = 8.0 (* 2^{h+...}: factor 2^2·√… *) || true)

let test_theorem_verify_h2 () =
  let rng = Util.Rng.create ~seed:7 in
  let v = Theorem.verify ~h:2 ~rng in
  checkb "all gaps + schedule" true v.Theorem.gaps_ok;
  checkb "measured n matches formula" true (v.Theorem.bound.Theorem.n = 71)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_f_monotone; prop_lemma_4_4_random_inputs ]

let () =
  Alcotest.run "lowerbound"
    [
      ( "boolfun",
        [
          Alcotest.test_case "formula eval" `Quick test_formula_eval;
          Alcotest.test_case "and/or builders" `Quick test_and_or_n;
          Alcotest.test_case "compose blocks" `Quick test_compose_blocks;
          Alcotest.test_case "F matches read-once formula" `Quick test_f_diameter_matches_formula;
          Alcotest.test_case "F'" `Quick test_f_radius;
          Alcotest.test_case "forcing inputs" `Quick test_forcing_inputs;
          Alcotest.test_case "VER/GDT (Lemma 4.7)" `Quick test_ver_gdt;
        ] );
      ( "approx degree",
        [
          Alcotest.test_case "chebyshev" `Quick test_chebyshev_values;
          Alcotest.test_case "OR approximation (Lemma 4.6)" `Quick test_or_approx_degrees;
          Alcotest.test_case "exact degree of OR (LP)" `Quick test_exact_degree_or;
          Alcotest.test_case "exact degree vs eps" `Quick test_exact_degree_monotone_eps;
          Alcotest.test_case "exact degree: parity & AND" `Quick
            test_exact_degree_symmetric_general;
          Alcotest.test_case "minimax error monotone" `Quick test_minimax_error_decreases;
          Alcotest.test_case "Q^sv values" `Quick test_q_sv_values;
        ] );
      ( "gadget",
        [
          Alcotest.test_case "Eq. (2) parameters" `Quick test_params_of_h;
          Alcotest.test_case "structure h=2" `Quick test_gadget_structure_h2;
          Alcotest.test_case "structure h=4" `Quick test_gadget_structure_h4;
          Alcotest.test_case "radius variant (Fig. 4)" `Quick test_gadget_radius_variant;
          Alcotest.test_case "D_G = Θ(log n)" `Quick test_gadget_unweighted_diameter_logn;
          Alcotest.test_case "bin" `Quick test_bin;
          Alcotest.test_case "sides" `Quick test_side_of;
        ] );
      ( "contraction (Figs. 3-4, Table 2)",
        [
          Alcotest.test_case "structure" `Quick test_contraction_structure;
          Alcotest.test_case "table 2 rows" `Quick test_table2_all_rows;
          Alcotest.test_case "Lemma 4.4 both sides" `Quick test_lemma_4_4_both_sides;
          Alcotest.test_case "Lemma 4.9 both sides" `Quick test_lemma_4_9_both_sides;
          Alcotest.test_case "Figure 4 eccentricity structure" `Quick test_fig4_eccentricities;
        ] );
      ( "server model (Lemma 4.1)",
        [
          Alcotest.test_case "ownership schedule" `Quick test_owner_schedule;
          Alcotest.test_case "schedule validity" `Quick test_schedule_validity;
          Alcotest.test_case "communication bound" `Quick test_count_protocol_bound;
        ] );
      ( "theorem 4.2/4.8",
        [
          Alcotest.test_case "bound values" `Quick test_theorem_bound_values;
          Alcotest.test_case "verify h=2" `Quick test_theorem_verify_h2;
        ] );
      ("properties", qsuite);
    ]
