(* Tests for lib/check: the report algebra and exit-code contract,
   every certifier's positive path on a healthy instance, and every
   certifier's negative control (the proof each one can reject). *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let graph ~seed =
  Graphlib.Gen.cliques_cycle ~cliques:3 ~clique_size:4
    ~weighting:(Graphlib.Gen.Uniform { max_w = 8 })
    ~rng:(Util.Rng.create ~seed)

let has_code code (c : Check.Report.certificate) =
  List.exists (fun (v : Check.Report.violation) -> v.Check.Report.code = code)
    c.Check.Report.violations

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Check.Report.status_name s))
    (fun a b -> a = b)

(* ------------------------------ report ----------------------------- *)

let test_report_status () =
  let pass = Check.Report.certificate ~name:"a" ~claim:"c" ~checked:1 [] in
  let fail =
    Check.Report.certificate ~name:"b" ~claim:"c" ~checked:1
      [ Check.Report.violation ~code:"x" "boom" ]
  in
  let inconclusive = Check.Report.certificate ~name:"d" ~claim:"c" ~checked:0 [] in
  Alcotest.check status "pass" Check.Report.Pass pass.Check.Report.status;
  Alcotest.check status "fail" Check.Report.Fail fail.Check.Report.status;
  Alcotest.check status "inconclusive" Check.Report.Inconclusive
    inconclusive.Check.Report.status;
  (* A violation dominates even with checked = 0. *)
  let failed_empty = Check.Report.certificate ~name:"e" ~claim:"c" ~checked:0
      [ Check.Report.violation ~code:"x" "boom" ] in
  Alcotest.check status "fail at checked=0" Check.Report.Fail
    failed_empty.Check.Report.status;
  check "exit pass" 0 (Check.Report.exit_code { Check.Report.certificates = [ pass ] });
  check "exit fail" 1
    (Check.Report.exit_code { Check.Report.certificates = [ pass; fail ] });
  check "exit inconclusive" 3
    (Check.Report.exit_code { Check.Report.certificates = [ pass; inconclusive ] });
  check "fail beats inconclusive" 1
    (Check.Report.exit_code { Check.Report.certificates = [ inconclusive; fail ] });
  check "empty report inconclusive" 3
    (Check.Report.exit_code { Check.Report.certificates = [] })

let test_report_json () =
  let report =
    {
      Check.Report.certificates =
        [
          Check.Report.certificate ~name:"a" ~claim:"the claim" ~checked:2
            ~notes:[ ("n", Telemetry.Json.int 5) ]
            [ Check.Report.violation ~code:"x" "boom" ~data:[ ("k", Telemetry.Json.int 1) ] ];
        ];
    }
  in
  let v = Telemetry.Json.(parse_exn (print (Check.Report.to_json report))) in
  let member f = Telemetry.Json.member f v in
  checkb "schema" true (member "schema" = Some (Telemetry.Json.Str "qcongest-check/v1"));
  checkb "pass" true (member "pass" = Some (Telemetry.Json.Bool false));
  checks "status" "fail"
    (Option.get (Option.bind (member "status") Telemetry.Json.to_string_opt));
  let certs = Option.get (Option.bind (member "certificates") Telemetry.Json.to_list_opt) in
  check "one certificate" 1 (List.length certs);
  let c = List.hd certs in
  let vs =
    Option.get (Option.bind (Telemetry.Json.member "violations" c) Telemetry.Json.to_list_opt)
  in
  check "one violation" 1 (List.length vs);
  checkb "violation code" true
    (Telemetry.Json.member "code" (List.hd vs) = Some (Telemetry.Json.Str "x"))

(* ----------------------------- congest ----------------------------- *)

let collect_tree g =
  let sink, drain = Telemetry.Events.collector () in
  let _tree, trace = Congest.Tree.build g ~root:0 ~sink in
  (trace, drain ())

let test_congest_clean () =
  let g = graph ~seed:3 in
  let trace, events = collect_tree g in
  let c = Check.Congest_audit.audit_events ~trace ~graph:g events in
  Alcotest.check status "clean stream passes" Check.Report.Pass c.Check.Report.status

let test_congest_non_edge () =
  let g = graph ~seed:3 in
  let trace, events = collect_tree g in
  (* Nodes 0 and 6 live in different cliques of the 3-cycle with only
     border nodes linked; a self-message is illegal regardless. *)
  let forged = events @ [ Telemetry.Events.Message { round = 1; src = 0; dst = 0; words = 1 } ] in
  let c = Check.Congest_audit.audit_events ~trace ~graph:g forged in
  Alcotest.check status "forged message fails" Check.Report.Fail c.Check.Report.status;
  checkb "non-edge-message reported" true (has_code "non-edge-message" c);
  checkb "replay mismatch reported" true (has_code "replay-mismatch" c)

let test_congest_overload () =
  let g = graph ~seed:4 in
  let _trace, events = collect_tree g in
  (* Find a real message and duplicate it far beyond any bandwidth. *)
  let dup =
    List.find_map
      (function
        | Telemetry.Events.Message m -> Some (Telemetry.Events.Message { m with words = 10_000 })
        | _ -> None)
      events
  in
  let c =
    Check.Congest_audit.audit_events ~graph:g (events @ [ Option.get dup ])
  in
  checkb "edge overload reported" true (has_code "edge-overload" c)

let test_congest_inconclusive () =
  let g = graph ~seed:3 in
  let c = Check.Congest_audit.audit_events ~graph:g [] in
  Alcotest.check status "empty stream inconclusive" Check.Report.Inconclusive
    c.Check.Report.status

(* ------------------------------ approx ----------------------------- *)

let test_approx_thm11 () =
  let g = graph ~seed:5 in
  let ok =
    Check.Approx_audit.thm11 g Core.Algorithm.Diameter ~rng:(Util.Rng.create ~seed:6)
  in
  Alcotest.check status "healthy run certifies" Check.Report.Pass ok.Check.Report.status;
  let bad =
    Check.Approx_audit.thm11 ~tamper:10.0 g Core.Algorithm.Diameter
      ~rng:(Util.Rng.create ~seed:6)
  in
  Alcotest.check status "tampered estimate fails" Check.Report.Fail bad.Check.Report.status;
  checkb "ratio-bound reported" true (has_code "ratio-bound" bad)

let test_approx_three_halves () =
  let g = graph ~seed:7 in
  let ok = Check.Approx_audit.three_halves g ~rng:(Util.Rng.create ~seed:8) in
  Alcotest.check status "baseline certifies" Check.Report.Pass ok.Check.Report.status;
  let bad = Check.Approx_audit.three_halves ~tamper:10.0 g ~rng:(Util.Rng.create ~seed:8) in
  Alcotest.check status "tampered baseline fails" Check.Report.Fail bad.Check.Report.status

(* The bracket's lower end is the ceiling: on a 5-node path D = 4, so
   an estimate must be at least ceil(8/3) = 3, and a halved estimate
   is reported against [3, 4] (the floor would print [2, 4]). *)
let test_approx_three_halves_lower_end () =
  let g =
    Graphlib.Gen.path ~n:5 ~weighting:Graphlib.Gen.Unit ~rng:(Util.Rng.create ~seed:1)
  in
  let c = Check.Approx_audit.three_halves ~tamper:0.5 g ~rng:(Util.Rng.create ~seed:8) in
  checkb "claim states the ceiling" true
    (String.ends_with ~suffix:"within [ceil(2D/3), D]" c.Check.Report.claim);
  match
    List.find_opt
      (fun (v : Check.Report.violation) -> v.Check.Report.code = "ratio-bound")
      c.Check.Report.violations
  with
  | Some v ->
    checkb
      (Printf.sprintf "detail %S names [3, 4]" v.Check.Report.detail)
      true
      (String.ends_with ~suffix:"outside [3, 4]" v.Check.Report.detail)
  | None -> Alcotest.fail "halved estimate not reported as ratio-bound"

(* ------------------------------ gadget ----------------------------- *)

let test_gadget () =
  let ok = Check.Gadget_audit.certify ~seed:9 () in
  Alcotest.check status "gadget certifies" Check.Report.Pass ok.Check.Report.status;
  let bad = Check.Gadget_audit.certify ~flip_f:true ~seed:9 () in
  Alcotest.check status "misclassified instance fails" Check.Report.Fail
    bad.Check.Report.status;
  checkb "gap violation reported" true (has_code "gap" bad)

(* ---------------------------- determinism --------------------------- *)

(* The pinned determinism-audit regression: same seed twice is
   bit-identical, and value-level outputs are invariant under a seeded
   relabeling of the node ids (i.e. of the scheduler's within-round
   evaluation order). *)
let test_determinism () =
  let g = graph ~seed:10 in
  let ok = Check.Determinism_audit.certify g ~seed:11 in
  Alcotest.check status "deterministic stack certifies" Check.Report.Pass
    ok.Check.Report.status;
  let bad = Check.Determinism_audit.certify ~tamper:true g ~seed:11 in
  Alcotest.check status "shifted permuted diameter fails" Check.Report.Fail
    bad.Check.Report.status;
  checkb "permutation-mismatch reported" true (has_code "permutation-mismatch" bad)

let test_permute_preserves_graph () =
  let g = graph ~seed:12 in
  let g', pi = Check.Determinism_audit.permute g ~seed:13 in
  check "same n" (Graphlib.Wgraph.n g) (Graphlib.Wgraph.n g');
  check "same m" (Graphlib.Wgraph.m g) (Graphlib.Wgraph.m g');
  (* pi is a permutation: sorted image = identity. *)
  let image = Array.copy pi in
  Array.sort compare image;
  checkb "pi is a permutation" true
    (Array.to_list image = List.init (Graphlib.Wgraph.n g) Fun.id);
  (* Edge weights carried through the relabeling. *)
  List.iter
    (fun (e : Graphlib.Wgraph.edge) ->
      checkb "edge survives" true
        (Graphlib.Wgraph.weight g' pi.(e.Graphlib.Wgraph.u) pi.(e.Graphlib.Wgraph.v)
        = Some e.Graphlib.Wgraph.w))
    (Graphlib.Wgraph.edges g)

(* ----------------------------- amplify ----------------------------- *)

let test_amplify () =
  let ok = Check.Amplify_audit.certify ~trials:100 ~seed:14 () in
  Alcotest.check status "amplification certifies" Check.Report.Pass ok.Check.Report.status;
  let bad = Check.Amplify_audit.certify ~trials:100 ~sabotage:true ~seed:14 () in
  Alcotest.check status "unamplified sampling fails" Check.Report.Fail
    bad.Check.Report.status;
  checkb "frequency violation reported" true (has_code "frequency" bad);
  let none = Check.Amplify_audit.certify ~trials:0 ~seed:14 () in
  Alcotest.check status "zero trials inconclusive" Check.Report.Inconclusive
    none.Check.Report.status

(* ------------------------------ sweep ------------------------------ *)

(* Two sizes x two seeds, and on every instance two rows of each
   oracle kind (weighted APSP and hop BFS eccentricities). *)
let sweep_spec =
  Harness.Spec.make ~name:"check-test"
    ~algos:
      [
        Harness.Spec.Classical_diameter; Harness.Spec.Classical_radius;
        Harness.Spec.Three_halves; Harness.Spec.Lm_unweighted;
      ]
    ~family:(Harness.Spec.Ring { cliques = 3 })
    ~sizes:[ 12; 15 ] ~seeds:[ 1; 2 ] ()

let temp_store () =
  let path = Filename.temp_file "qcongest_check" ".jsonl" in
  Sys.remove path;
  Harness.Store.load ~path ()

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let replace ~sub ~by row =
  match find_sub row sub with
  | None -> row
  | Some i ->
    let k = i + String.length sub in
    String.sub row 0 i ^ by ^ String.sub row k (String.length row - k)

(* [row] with the number stored under [key] replaced by [by]. *)
let set_number key by row =
  let key = Printf.sprintf "\"%s\":" key in
  match find_sub row key with
  | None -> row
  | Some i ->
    let j = ref (i + String.length key) in
    while
      !j < String.length row
      && match row.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr j
    done;
    String.sub row 0 i ^ key ^ by ^ String.sub row !j (String.length row - !j)

(* The forged row of the negative control: an estimate ten times the
   exact value, a consistent ratio of 10, and [within] left true. *)
let forge_within row =
  let v = Telemetry.Json.parse_exn row in
  let exact =
    Option.get (Option.bind (Telemetry.Json.member "exact" v) Telemetry.Json.to_int_opt)
  in
  row |> set_number "estimate" (string_of_int (10 * exact)) |> set_number "ratio" "10"

let bend_exact = set_number "exact" "99999"
let fail_row = replace ~sub:"\"status\":\"ok\"" ~by:"\"status\":\"failed\""
let corrupt_row = replace ~sub:"\"within\":true" ~by:"\"within\":\"yes\""

(* A copy of [store] with [edit] applied to the row of the [i]-th job;
   rows [edit] maps to [None] are left out. *)
let copy_store store edit =
  let copy = temp_store () in
  List.iteri
    (fun i (j : Harness.Spec.job) ->
      let row = Option.get (Harness.Store.find store j.Harness.Spec.id) in
      Option.iter (Harness.Store.append copy ~id:j.Harness.Spec.id) (edit i row))
    (Harness.Spec.jobs sweep_spec);
  copy

(* What auditing each stored row alone, on a fresh build, reports. *)
let per_row_violations store =
  List.concat_map
    (fun (j : Harness.Spec.job) ->
      match Harness.Store.find store j.Harness.Spec.id with
      | None -> []
      | Some raw -> Check.Sweep_audit.audit_row sweep_spec j raw)
    (Harness.Spec.jobs sweep_spec)

(* [audit_store] through counting hooks; [count what (n, seed)] is how
   often that instance was built ("build") or had an oracle kind
   computed on it ("weighted" / "hop"). *)
let counted_audit store =
  let calls = ref [] and built = ref [] in
  let graph_of_job spec (j : Harness.Spec.job) =
    let cell = (j.Harness.Spec.n, j.Harness.Spec.seed) in
    let g = Harness.Runner.make_graph spec ~n:(fst cell) ~seed:(snd cell) in
    calls := ("build", cell) :: !calls;
    built := (g, cell) :: !built;
    g
  in
  let counted what f g =
    calls := (what, List.assq g !built) :: !calls;
    f g
  in
  let direct = Check.Oracle.direct in
  let oracle =
    {
      Check.Oracle.weighted_ecc = counted "weighted" direct.Check.Oracle.weighted_ecc;
      hop_ecc = counted "hop" direct.Check.Oracle.hop_ecc;
    }
  in
  let cert = Check.Sweep_audit.audit_store ~oracle ~graph_of_job sweep_spec store in
  (cert, fun what cell -> List.length (List.filter (( = ) (what, cell)) !calls))

let each_instance f =
  List.iter (fun n -> List.iter (f n) sweep_spec.Harness.Spec.seeds) sweep_spec.Harness.Spec.sizes

let rows = List.length (Harness.Spec.jobs sweep_spec)

(* Tamper: one failed row, one corrupt row, every other exact bent. *)
let tamper i row =
  Some (match i with 1 -> fail_row row | 6 -> corrupt_row row | _ -> bend_exact row)

let remove_store s =
  Harness.Store.close s;
  try Sys.remove (Harness.Store.path s) with Sys_error _ -> ()

(* Runs [f] on a store freshly swept over [sweep_spec], then removes it
   and every store [f] returns. *)
let with_swept_store f =
  let store = temp_store () in
  let _executed, failed = Harness.Runner.run sweep_spec store in
  check "no failed jobs" 0 failed;
  List.iter remove_store (store :: f store)

let test_sweep_audit () =
  with_swept_store (fun store ->
      let c = Check.Sweep_audit.audit_store sweep_spec store in
      Alcotest.check status "fresh store certifies" Check.Report.Pass c.Check.Report.status;
      check "every row audited" rows c.Check.Report.checked;
      let tampered = copy_store store tamper in
      let bad = Check.Sweep_audit.audit_store sweep_spec tampered in
      Alcotest.check status "bent rows fail" Check.Report.Fail bad.Check.Report.status;
      checkb "oracle-mismatch reported" true (has_code "oracle-mismatch" bad);
      checkb "corrupt-row reported" true (has_code "corrupt-row" bad);
      check "the failed row is skipped" (rows - 1) bad.Check.Report.checked;
      (* Empty store: nothing to certify. *)
      let empty = temp_store () in
      let none = Check.Sweep_audit.audit_store sweep_spec empty in
      Alcotest.check status "empty store inconclusive" Check.Report.Inconclusive
        none.Check.Report.status;
      [ tampered; empty ])

let test_sweep_forged_within () =
  with_swept_store (fun store ->
      (* Every row forged ten times over its exact value, its ratio kept
         consistent and its own flag left true: only re-deriving the
         guarantee can tell, and it must flag every row, each once. *)
      let forged = copy_store store (fun _ row -> Some (forge_within row)) in
      let c = Check.Sweep_audit.audit_store sweep_spec forged in
      Alcotest.check status "forged rows fail" Check.Report.Fail c.Check.Report.status;
      check "one within-drift per row" rows
        (List.length
           (List.filter
              (fun (v : Check.Report.violation) -> v.Check.Report.code = "within-drift")
              c.Check.Report.violations));
      check "nothing else flagged" rows (List.length c.Check.Report.violations);
      [ forged ])

let all_algos =
  Harness.Spec.
    [ Thm11_diameter; Thm11_radius; Classical_diameter; Classical_radius; Lm_unweighted;
      Approx_apsp; Three_halves; Sssp_two_approx; Bfs_reliable; Wwy_ecc; Wwy_apsp ]

let test_guarantee_predicates () =
  let holds algo estimate exact = Harness.Spec.guarantee algo ~estimate ~exact in
  let open Harness.Spec in
  List.iter
    (fun algo ->
      checkb (algo_name algo ^ ": exact answer holds") true (holds algo 75.0 75);
      checkb (algo_name algo ^ ": ten times over fails") false (holds algo 750.0 75))
    all_algos;
  List.iter
    (fun (what, algo, estimate, exact, expect) ->
      checkb what expect (holds algo estimate exact))
    [
      ("thm11 at the 2.25 cap", Thm11_diameter, 225.0, 100, true);
      ("thm11 past the cap", Thm11_radius, 225.1, 100, false);
      ("thm11 below exact", Thm11_diameter, 99.9, 100, false);
      ("approx-apsp within 1e-6", Approx_apsp, 99.9999995, 100, true);
      ("2-approx at half", Sssp_two_approx, 50.0, 100, true);
      ("2-approx below half", Sssp_two_approx, 49.0, 100, false);
      ("2-approx above exact", Sssp_two_approx, 101.0, 100, false);
      ("3/2-approx at two thirds", Three_halves, 2.0, 3, true);
      ("3/2-approx below two thirds", Three_halves, 1.0, 3, false);
      ("3/2-approx above exact", Three_halves, 4.0, 3, false);
      ("exact algorithm one off", Wwy_ecc, 76.0, 75, false);
      ("exact algorithm one under", Bfs_reliable, 8.0, 9, false);
    ]

(* Every algorithm on one n = 12 instance of every family, under a
   fault profile that bfs-reliable meets: each row is audited, and the
   only violation allowed is a run's own recorded miss ([guarantee]),
   which is the algorithm's to explain, not the audit's. *)
let test_sweep_every_family () =
  let open Harness.Spec in
  let faults = { drop = 0.1; delay = 1; duplicate = 0.05; fault_seed = 3 } in
  List.iter
    (fun family ->
      let name = family_name family in
      let spec =
        make ~name:("every-algo-" ^ name) ~algos:all_algos ~family ~sizes:[ 12 ] ~seeds:[ 1 ]
          ~faults ()
      in
      let store = temp_store () in
      let _executed, failed = Harness.Runner.run spec store in
      check (name ^ ": no failed jobs") 0 failed;
      let c = Check.Sweep_audit.audit_store spec store in
      check (name ^ ": every row audited") (List.length all_algos) c.Check.Report.checked;
      List.iter
        (fun (v : Check.Report.violation) ->
          Alcotest.(check string) (name ^ ": " ^ v.Check.Report.detail) "guarantee"
            v.Check.Report.code)
        c.Check.Report.violations;
      remove_store store)
    [ Ring { cliques = 3 }; Chain { cliques = 1 }; Chain { cliques = 3 }; Gnp { p = 0.3 };
      Grid; Hard; Random_tree ]

let test_sweep_one_build_per_instance () =
  with_swept_store (fun store ->
      (* The rows of an instance share one build and one call per oracle
         kind. *)
      let _, count = counted_audit store in
      each_instance (fun n seed ->
          List.iter
            (fun what ->
              check
                (Printf.sprintf "%s calls on n=%d seed=%d" what n seed)
                1 (count what (n, seed)))
            [ "build"; "weighted"; "hop" ]);
      (* Failed and corrupt rows force no build. *)
      let broken =
        copy_store store (fun i row ->
            match i with 1 -> Some (fail_row row) | 6 -> Some (corrupt_row row) | _ -> None)
      in
      let _, count = counted_audit broken in
      each_instance (fun n seed ->
          check (Printf.sprintf "no build of n=%d seed=%d" n seed) 0 (count "build" (n, seed)));
      [ broken ])

let test_sweep_hooked_audit_identical () =
  with_swept_store (fun store ->
      (* The injected hooks change no byte of the certificate, clean or
         tampered. *)
      let tampered = copy_store store tamper in
      List.iter
        (fun (what, s) ->
          let counted, _ = counted_audit s in
          checks
            (what ^ ": hooked certificate identical")
            (Telemetry.Json.print
               (Check.Report.certificate_to_json (Check.Sweep_audit.audit_store sweep_spec s)))
            (Telemetry.Json.print (Check.Report.certificate_to_json counted)))
        [ ("clean store", store); ("tampered store", tampered) ];
      [ tampered ])

let test_sweep_shared_oracle_per_row () =
  with_swept_store (fun store ->
      (* Sharing changes no verdict: the violations are the per-row
         audits, each on its own build, in job order. *)
      let tampered = copy_store store tamper in
      List.iter
        (fun (what, s, skipped) ->
          let c = Check.Sweep_audit.audit_store sweep_spec s in
          checkb (what ^ ": per-row violations") true
            (c.Check.Report.violations = per_row_violations s);
          check (what ^ ": rows not skipped") (rows - skipped) c.Check.Report.checked)
        [ ("clean store", store, 0); ("tampered store", tampered, 1) ];
      [ tampered ])

let test_expected_exact_matches_rows () =
  (* The auditor's oracle table must agree with what the runner itself
     stores — otherwise every audit would be vacuously red. *)
  let store = temp_store () in
  let _ = Harness.Runner.run sweep_spec store in
  List.iter
    (fun (j : Harness.Spec.job) ->
      let row = Option.get (Harness.Store.find store j.Harness.Spec.id) in
      let v = Telemetry.Json.parse_exn row in
      let stored =
        Option.get
          (Option.bind (Telemetry.Json.member "exact" v) Telemetry.Json.to_int_opt)
      in
      check
        (Printf.sprintf "oracle agrees for %s" (Harness.Spec.algo_name j.Harness.Spec.algo))
        stored
        (Check.Sweep_audit.expected_exact sweep_spec j))
    (Harness.Spec.jobs sweep_spec);
  (try Sys.remove (Harness.Store.path store) with Sys_error _ -> ())

(* ---------------------------- resilience --------------------------- *)

let test_resilience_certifies () =
  let report = Check.Suite.chaos ~seed:11 ~deadline_s:0.05 () in
  Alcotest.(check (list string))
    "two certificates" [ "chaos-resume"; "chaos-deadline" ]
    (List.map
       (fun (c : Check.Report.certificate) -> c.Check.Report.name)
       report.Check.Report.certificates);
  List.iter
    (fun (c : Check.Report.certificate) ->
      Alcotest.check status
        (c.Check.Report.name ^ " certifies")
        Check.Report.Pass c.Check.Report.status)
    report.Check.Report.certificates;
  check "exit 0" 0 (Check.Report.exit_code report)

let test_resilience_negative_controls () =
  (* Both staged sabotages — deleted row, unarmed deadline — must be
     caught. *)
  let report = Check.Suite.chaos ~seed:11 ~deadline_s:0.05 ~negative_control:true () in
  List.iter
    (fun (c : Check.Report.certificate) ->
      Alcotest.check status
        (c.Check.Report.name ^ " rejects its sabotage")
        Check.Report.Fail c.Check.Report.status)
    report.Check.Report.certificates;
  check "exit 1" 1 (Check.Report.exit_code report)

(* ------------------------------ suite ------------------------------ *)

let test_suite_selection () =
  let report =
    Check.Suite.run { Check.Suite.default with Check.Suite.only = [ "gadget" ] }
  in
  check "one certificate" 1 (List.length report.Check.Report.certificates);
  Alcotest.check_raises "unknown certifier"
    (Invalid_argument
       "Check.Suite.run: unknown certifier \"bogus\" (expected one of congest, approx, \
        gadget, determinism, amplify, ecc, apsp)")
    (fun () ->
      ignore (Check.Suite.run { Check.Suite.default with Check.Suite.only = [ "bogus" ] }))

let () =
  Alcotest.run "check"
    [
      ( "report",
        [
          Alcotest.test_case "status algebra and exit codes" `Quick test_report_status;
          Alcotest.test_case "json schema" `Quick test_report_json;
        ] );
      ( "congest",
        [
          Alcotest.test_case "clean stream" `Quick test_congest_clean;
          Alcotest.test_case "forged non-edge message" `Quick test_congest_non_edge;
          Alcotest.test_case "edge overload" `Quick test_congest_overload;
          Alcotest.test_case "empty stream" `Quick test_congest_inconclusive;
        ] );
      ( "approx",
        [
          Alcotest.test_case "thm11" `Quick test_approx_thm11;
          Alcotest.test_case "three halves" `Quick test_approx_three_halves;
          Alcotest.test_case "three halves lower end" `Quick
            test_approx_three_halves_lower_end;
        ] );
      ("gadget", [ Alcotest.test_case "table2 + gap" `Quick test_gadget ]);
      ( "determinism",
        [
          Alcotest.test_case "rerun + permutation" `Quick test_determinism;
          Alcotest.test_case "permute preserves graph" `Quick test_permute_preserves_graph;
        ] );
      ("amplify", [ Alcotest.test_case "frequencies" `Quick test_amplify ]);
      ( "sweep",
        [
          Alcotest.test_case "store audit" `Quick test_sweep_audit;
          Alcotest.test_case "forged within flag" `Quick test_sweep_forged_within;
          Alcotest.test_case "guarantee predicates" `Quick test_guarantee_predicates;
          Alcotest.test_case "every algorithm on every family" `Quick
            test_sweep_every_family;
          Alcotest.test_case "one build per instance" `Quick test_sweep_one_build_per_instance;
          Alcotest.test_case "hooked audit byte-identical" `Quick
            test_sweep_hooked_audit_identical;
          Alcotest.test_case "shared oracle = per-row audit" `Quick
            test_sweep_shared_oracle_per_row;
          Alcotest.test_case "oracle agrees with runner" `Quick
            test_expected_exact_matches_rows;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "chaos invariants hold" `Slow test_resilience_certifies;
          Alcotest.test_case "negative controls reject" `Slow
            test_resilience_negative_controls;
        ] );
      ("suite", [ Alcotest.test_case "selection" `Quick test_suite_selection ]);
    ]
