(* Tests for lib/harness: sweep specs and content-hashed job ids, the
   checkpoint store (corrupt-tail truncation, kill-and-resume
   determinism), the exponent fits and the regression gate, and the
   runner's failure isolation. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

module J = Telemetry.Json

(* ------------------------------- Spec ------------------------------ *)

let small_spec =
  Harness.Spec.make ~name:"t"
    ~algos:[ Harness.Spec.Classical_diameter; Harness.Spec.Sssp_two_approx ]
    ~family:(Harness.Spec.Ring { cliques = 4 })
    ~max_w:8 ~sizes:[ 8; 12 ] ~seeds:[ 1; 2 ] ()

let test_spec_roundtrip () =
  let s = small_spec in
  match Harness.Spec.of_json (Harness.Spec.to_json s) with
  | Error m -> Alcotest.fail m
  | Ok s' ->
    checkb "roundtrip" true (s = s');
    checkb "job ids preserved" true (Harness.Spec.jobs s = Harness.Spec.jobs s')

let test_spec_geometric () =
  checkb "grid" true (Harness.Spec.geometric ~n_min:8 ~n_max:64 ~factor:2.0 = [ 8; 16; 32; 64 ]);
  checkb "n_max always included" true
    (List.rev (Harness.Spec.geometric ~n_min:10 ~n_max:100 ~factor:3.0) |> List.hd = 100);
  (* Geometric sizes accepted in JSON form. *)
  let json =
    {| {"name":"g","algos":["classical-diameter"],"family":"ring:4",
        "sizes":{"min":8,"max":32,"factor":2.0},"seeds":[1]} |}
  in
  match Harness.Spec.of_json json with
  | Error m -> Alcotest.fail m
  | Ok s -> checkb "sizes" true (s.Harness.Spec.sizes = [ 8; 16; 32 ])

let test_spec_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "validation accepted a bad spec"
  in
  (* The name is the stem of the sweep's files in the artifacts
     directory, so it must be a file name there. *)
  List.iter
    (fun name ->
      expect_invalid (fun () ->
          Harness.Spec.make ~name ~algos:[ Harness.Spec.Three_halves ]
            ~family:Harness.Spec.Grid ~sizes:[ 8 ] ~seeds:[ 1 ] ()))
    [ ""; "x\000y"; "../escaped"; "a/b"; "."; ".." ];
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[] ~family:Harness.Spec.Grid ~sizes:[ 8 ]
        ~seeds:[ 1 ] ());
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[ Harness.Spec.Three_halves ]
        ~family:Harness.Spec.Grid ~sizes:[ 1 ] ~seeds:[ 1 ] ());
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[ Harness.Spec.Three_halves ]
        ~family:Harness.Spec.Grid ~sizes:[ 8 ] ~seeds:[ 1 ]
        ~gates:[ { Harness.Spec.series = "thm11-diameter"; expected = 1.0; tol = 0.1; min_r2 = 0.0 } ]
        ());
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[ Harness.Spec.Three_halves ]
        ~family:(Harness.Spec.Gnp { p = 1.5 }) ~sizes:[ 8 ] ~seeds:[ 1 ] ());
  (* Families must satisfy their generators' own floors, so no job can
     fail at graph-construction time. *)
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[ Harness.Spec.Three_halves ]
        ~family:(Harness.Spec.Ring { cliques = 2 }) ~sizes:[ 8 ] ~seeds:[ 1 ] ());
  expect_invalid (fun () ->
      Harness.Spec.make ~name:"x" ~algos:[ Harness.Spec.Three_halves ]
        ~family:Harness.Spec.Hard ~sizes:[ 3; 8 ] ~seeds:[ 1 ] ());
  (* Below one node no family builds, ring and chain included (they
     would otherwise round up to one node per clique). *)
  List.iter
    (fun family ->
      expect_invalid (fun () ->
          Harness.Spec.build_graph family ~max_w:4 ~n:0 ~rng:(Util.Rng.create ~seed:1)))
    Harness.Spec.
      [ Ring { cliques = 3 }; Chain { cliques = 1 }; Gnp { p = 0.5 }; Grid; Random_tree ]

let test_job_ids () =
  let s = small_spec in
  let jobs = Harness.Spec.jobs s in
  check "grid size" (2 * 2 * 2) (List.length jobs);
  let ids = List.map (fun j -> j.Harness.Spec.id) jobs in
  check "ids distinct" (List.length ids) (List.length (List.sort_uniq compare ids));
  (* Content-hashing: the id depends only on the job's cell, not on the
     rest of the grid or the spec name. *)
  let wider =
    Harness.Spec.make ~name:"other"
      ~algos:[ Harness.Spec.Sssp_two_approx; Harness.Spec.Classical_diameter ]
      ~family:(Harness.Spec.Ring { cliques = 4 })
      ~max_w:8 ~sizes:[ 8; 12; 16 ] ~seeds:[ 1; 2; 3 ] ()
  in
  checks "cell id stable across specs"
    (Harness.Spec.job_id s Harness.Spec.Classical_diameter ~n:12 ~seed:2)
    (Harness.Spec.job_id wider Harness.Spec.Classical_diameter ~n:12 ~seed:2);
  (* Pin one id literally: a change here silently orphans every
     existing checkpoint store — bump the spec version instead. *)
  checks "id format pinned" "54ccd63c3e0e010b"
    (Harness.Spec.job_id s Harness.Spec.Classical_diameter ~n:12 ~seed:2)

(* ------------------------------- Store ----------------------------- *)

let temp_store_path () =
  let path = Filename.temp_file "qcongest_store" ".jsonl" in
  Sys.remove path;
  path

let row ~id fields =
  J.print (J.obj (("id", J.str id) :: List.map (fun (k, v) -> (k, J.int v)) fields))

(* Close every handle on one store, then delete its file and corrupt
   sibling. Only the handle whose load took the lock releases it, and
   [close] is idempotent, so closing them all leaves no lock behind. *)
let remove_store handles =
  List.iter Harness.Store.close handles;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Harness.Store.path (List.hd handles); Harness.Store.corrupt_path (List.hd handles) ]

let file_lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

let test_store_roundtrip () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  check "empty" 0 (Harness.Store.count s);
  Harness.Store.append s ~id:"a" (row ~id:"a" [ ("v", 1) ]);
  Harness.Store.append s ~id:"b" (row ~id:"b" [ ("v", 2) ]);
  checkb "mem" true (Harness.Store.mem s "a");
  let s' = Harness.Store.load ~path () in
  check "reload count" 2 (Harness.Store.count s');
  checkb "order preserved" true (List.map fst (Harness.Store.rows s') = [ "a"; "b" ]);
  checkb "find" true (Harness.Store.find s' "b" = Some (row ~id:"b" [ ("v", 2) ]));
  remove_store [ s; s' ]

let test_store_corrupt_tail () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" []);
  Harness.Store.append s ~id:"b" (row ~id:"b" []);
  (* Simulate a crash mid-append: a partial last line. *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "{\"id\":\"c\",\"tru";
  close_out oc;
  let s' = Harness.Store.load ~path () in
  check "valid prefix kept" 2 (Harness.Store.count s');
  check "tail dropped" 1 (Harness.Store.dropped_lines s');
  (* The truncating load rewrote the file: a fresh load is clean. *)
  let s'' = Harness.Store.load ~path () in
  check "rewrite clean" 0 (Harness.Store.dropped_lines s'');
  check "rewrite kept rows" 2 (Harness.Store.count s'');
  (* Resume can fill the truncated job back in. *)
  Harness.Store.append s'' ~id:"c" (row ~id:"c" []);
  check "resumed" 3 (Harness.Store.count (Harness.Store.load ~path ()));
  remove_store [ s; s'; s'' ]

let test_store_garbage_middle () =
  let path = temp_store_path () in
  let s0 = Harness.Store.load ~path () in
  Harness.Store.append s0 ~id:"a" (row ~id:"a" []);
  Harness.Store.append s0 ~id:"b" (row ~id:"b" []);
  Harness.Store.close s0;
  (match file_lines path with
  | [ a; b; "" ] -> Telemetry.Export.write_file ~path (a ^ "\nnot json at all\n" ^ b ^ "\n")
  | _ -> Alcotest.fail "expected 2 framed lines");
  let s = Harness.Store.load ~path () in
  (* Rows carry their own checksum, so a valid row after a corrupt
     line is provably intact: the bad line is quarantined to the
     corrupt sibling and both real rows survive. *)
  check "rows kept" 2 (Harness.Store.count s);
  check "quarantined" 1 (Harness.Store.quarantined_lines s);
  check "no tail drop" 0 (Harness.Store.dropped_lines s);
  checks "corrupt sibling naming"
    (Filename.chop_suffix path ".jsonl" ^ ".corrupt.jsonl")
    (Harness.Store.corrupt_path s);
  checkb "corrupt sibling" true (Sys.file_exists (Harness.Store.corrupt_path s));
  (* The repairing load rewrote the file: a fresh load is clean. *)
  let s' = Harness.Store.load ~path () in
  check "repair clean" 0 (Harness.Store.quarantined_lines s');
  check "repair kept rows" 2 (Harness.Store.count s');
  remove_store [ s; s' ]

let test_store_v2_frames () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  (* Appends are framed on disk but logically unframed. *)
  Harness.Store.append s ~id:"c" (row ~id:"c" []);
  Harness.Store.close s;
  let line = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "on-disk frame has crc" true (contains line "\"crc\":\"");
  let s' = Harness.Store.load ~path () in
  checkb "framed row reads back unframed" true
    (Harness.Store.find s' "c" = Some (row ~id:"c" []));
  remove_store [ s; s' ]

(* A row whose "crc" member was deleted by hand is a damaged frame,
   not a row: it is quarantined, so an edited row never loads. *)
let test_store_stripped_crc_quarantined () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" [ ("v", 1) ]);
  Harness.Store.append s ~id:"b" (row ~id:"b" [ ("v", 2) ]);
  Harness.Store.close s;
  (* Stripping the frame leaves exactly the logical row. *)
  (match file_lines path with
  | [ _; b; "" ] ->
    Telemetry.Export.write_file ~path (row ~id:"a" [ ("v", 1) ] ^ "\n" ^ b ^ "\n")
  | _ -> Alcotest.fail "expected 2 framed lines");
  let s' = Harness.Store.load ~path () in
  check "stripped row quarantined" 1 (Harness.Store.quarantined_lines s');
  checkb "stripped row gone" false (Harness.Store.mem s' "a");
  checkb "framed row survives" true (Harness.Store.mem s' "b");
  remove_store [ s; s' ]

let test_store_checksum_detects_bitflip () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" [ ("v", 1) ]);
  Harness.Store.append s ~id:"b" (row ~id:"b" [ ("v", 2) ]);
  Harness.Store.append s ~id:"c" (row ~id:"c" [ ("v", 3) ]);
  Harness.Store.close s;
  (* Flip one byte in the middle row's payload. *)
  (match file_lines path with
  | [ a; b; c; "" ] ->
    let bb = Bytes.of_string b in
    let i = String.length b / 2 in
    Bytes.set bb i (Char.chr (Char.code (Bytes.get bb i) lxor 1));
    Telemetry.Export.write_file ~path
      (String.concat "\n" [ a; Bytes.to_string bb; c ] ^ "\n")
  | _ -> Alcotest.fail "expected 3 framed lines");
  let s' = Harness.Store.load ~path () in
  check "damaged row quarantined" 1 (Harness.Store.quarantined_lines s');
  check "intact rows survive" 2 (Harness.Store.count s');
  checkb "a survives" true (Harness.Store.mem s' "a");
  checkb "c survives" true (Harness.Store.mem s' "c");
  checkb "b gone" false (Harness.Store.mem s' "b");
  (* The damaged job can be filled back in. *)
  Harness.Store.append s' ~id:"b" (row ~id:"b" [ ("v", 2) ]);
  check "resumed" 3 (Harness.Store.count (Harness.Store.load ~path ()));
  remove_store [ s; s' ]

let test_store_lock () =
  let path = temp_store_path () in
  let lock_path = path ^ ".lock" in
  (* A live foreign holder (pid 1 always exists) blocks the load. *)
  Telemetry.Export.write_file ~path:lock_path "1\n";
  (match Harness.Store.load ~path () with
  | exception Harness.Store.Locked { holder; _ } -> check "holder pid" 1 holder
  | _ -> Alcotest.fail "load ignored a live lock");
  (* A stale holder (dead pid) is evicted and the lock taken over. *)
  Telemetry.Export.write_file ~path:lock_path "999999999\n";
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" []);
  (* Same-process reload is re-entrant (the tests' resume pattern). *)
  let s' = Harness.Store.load ~path () in
  check "re-entrant reload" 1 (Harness.Store.count s');
  Harness.Store.close s';
  Harness.Store.close s;
  checkb "close releases the lock" false (Sys.file_exists lock_path);
  Sys.remove path

let test_store_fsync_mode () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~fsync:true ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" []);
  Harness.Store.append s ~id:"b" (row ~id:"b" []);
  Harness.Store.close s;
  let s' = Harness.Store.load ~path () in
  check "durable rows read back" 2 (Harness.Store.count s');
  remove_store [ s; s' ]

let test_store_append_validation () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" []);
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "append accepted an invalid row"
  in
  expect_invalid (fun () -> Harness.Store.append s ~id:"a" (row ~id:"a" []));
  expect_invalid (fun () -> Harness.Store.append s ~id:"b" (row ~id:"mismatch" []));
  expect_invalid (fun () -> Harness.Store.append s ~id:"b" "not json");
  expect_invalid (fun () -> Harness.Store.append s ~id:"b" (row ~id:"b" [] ^ "\n"));
  remove_store [ s ]

(* Lock coexistence: a read-only observer must work against a store
   whose lock a live foreign process (the daemon) holds — without
   stealing the lock, writing a byte, or repairing. *)
let test_store_read_only_coexists_with_live_lock () =
  let path = temp_store_path () in
  let s = Harness.Store.load ~path () in
  Harness.Store.append s ~id:"a" (row ~id:"a" [ ("v", 1) ]);
  Harness.Store.append s ~id:"b" (row ~id:"b" [ ("v", 2) ]);
  Harness.Store.close s;
  (* Leave a partial trailing line — an append "in flight" on the
     owner's side. A writer would truncate it; an observer must not. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"id\":\"half";
  close_out oc;
  let bytes_before = In_channel.with_open_bin path In_channel.input_all in
  let lock_path = path ^ ".lock" in
  (* pid 1 is always alive: a live foreign holder. *)
  Telemetry.Export.write_file ~path:lock_path "1\n";
  (match Harness.Store.load ~path () with
  | exception Harness.Store.Locked { holder; _ } -> check "writer blocked" 1 holder
  | _ -> Alcotest.fail "writer open ignored a live foreign lock");
  let ro = Harness.Store.load ~lock:false ~path () in
  check "read-only sees the intact rows" 2 (Harness.Store.count ro);
  check "partial tail counted, not judged" 1 (Harness.Store.dropped_lines ro);
  check "nothing else skipped" 0 (Harness.Store.quarantined_lines ro);
  checkb "rows readable" true
    (Harness.Store.find ro "b" = Some (row ~id:"b" [ ("v", 2) ]));
  (match Harness.Store.append ro ~id:"c" (row ~id:"c" []) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "append succeeded on a read-only handle");
  Harness.Store.close ro;
  checkb "foreign lock untouched" true (Sys.file_exists lock_path);
  checks "on-disk bytes untouched" bytes_before
    (In_channel.with_open_bin path In_channel.input_all);
  (* A second read-only handle sees the same store: reading changed
     nothing. *)
  let again = Harness.Store.load ~lock:false ~path () in
  checkb "second observer sees the same rows" true
    (Harness.Store.rows again = Harness.Store.rows ro);
  check "second observer skips the same line" 1 (Harness.Store.dropped_lines again);
  Sys.remove lock_path;
  Sys.remove path

(* -------------------------------- Fit ------------------------------ *)

let test_fit_power_law () =
  (* Exact y = 3 * x^1.7: slope recovered, r2 = 1, CI collapses. *)
  let pts = List.map (fun x -> (x, 3.0 *. (x ** 1.7))) [ 8.0; 16.0; 32.0; 64.0 ] in
  match Harness.Fit.fit_series ~seed:7 pts with
  | None -> Alcotest.fail "no fit"
  | Some f ->
    Alcotest.(check (float 1e-9)) "slope" 1.7 f.Harness.Fit.slope;
    Alcotest.(check (float 1e-9)) "r2" 1.0 f.Harness.Fit.r2;
    Alcotest.(check (float 1e-6)) "ci lo" 1.7 f.Harness.Fit.ci.Harness.Fit.lo;
    Alcotest.(check (float 1e-6)) "ci hi" 1.7 f.Harness.Fit.ci.Harness.Fit.hi

let test_fit_degenerate () =
  checkb "single x" true (Harness.Fit.fit_series ~seed:1 [ (8.0, 3.0); (8.0, 4.0) ] = None);
  checkb "nonpositive dropped" true (Harness.Fit.fit_series ~seed:1 [ (8.0, 0.0); (16.0, -1.0) ] = None)

let test_fit_deterministic () =
  let pts = [ (8.0, 20.0); (16.0, 51.0); (32.0, 90.0); (64.0, 210.0) ] in
  let f1 = Option.get (Harness.Fit.fit_series ~seed:42 pts) in
  let f2 = Option.get (Harness.Fit.fit_series ~seed:42 pts) in
  checkb "same seed, same CI" true (f1 = f2)

let gate series expected tol min_r2 = { Harness.Spec.series; expected; tol; min_r2 }

let test_gate_verdicts () =
  let series = [ ("good", List.map (fun x -> (x, x ** 1.5)) [ 8.0; 16.0; 32.0 ]) ] in
  let pass_v = Harness.Fit.evaluate [ gate "good" 1.5 0.2 0.9 ] ~series in
  checkb "pass" true pass_v.Harness.Fit.pass;
  check "exit 0" 0 (Harness.Fit.exit_code pass_v);
  let slope_fail = Harness.Fit.evaluate [ gate "good" 0.5 0.2 0.9 ] ~series in
  checkb "slope deviation fails" false slope_fail.Harness.Fit.pass;
  check "exit 3" 3 (Harness.Fit.exit_code slope_fail);
  let absent = Harness.Fit.evaluate [ gate "missing" 1.0 0.5 0.0 ] ~series in
  checkb "absent series fails" false absent.Harness.Fit.pass;
  let empty = Harness.Fit.evaluate [] ~series in
  checkb "no gates = no pass" false empty.Harness.Fit.pass;
  (* r2 floor: noisy series with a wide-enough tolerance still fails. *)
  let noisy = [ ("good", [ (8.0, 10.0); (16.0, 400.0); (32.0, 20.0); (64.0, 800.0) ]) ] in
  let r2_fail = Harness.Fit.evaluate [ gate "good" 1.0 10.0 0.95 ] ~series:noisy in
  checkb "r2 floor fails" false r2_fail.Harness.Fit.pass

let test_verdict_json () =
  let series = [ ("s", List.map (fun x -> (x, x)) [ 8.0; 16.0; 32.0 ]) ] in
  let v = Harness.Fit.evaluate [ gate "s" 1.0 0.1 0.5 ] ~series in
  let j = J.parse_exn (J.print (Harness.Fit.verdict_to_json v)) in
  checkb "schema" true
    (J.member "schema" j = Some (J.Str "qcongest-sweep-gate/v1"));
  checkb "pass field" true (J.member "pass" j = Some (J.Bool true));
  let gates = Option.get (Option.bind (J.member "gates" j) J.to_list_opt) in
  check "one gate" 1 (List.length gates)

(* ------------------------------ Runner ----------------------------- *)

let job_of (spec : Harness.Spec.t) =
  match Harness.Spec.jobs spec with j :: _ -> j | [] -> assert false

let test_protect_round_limit () =
  let j = job_of small_spec in
  let info =
    { Congest.Engine.protocol = "runaway"; round_reached = 1000001;
      partial = Congest.Engine.empty_trace }
  in
  let r = Harness.Runner.protect j (fun () -> raise (Congest.Engine.Round_limit_exceeded info)) in
  let v = J.parse_exn r in
  let str f = Option.bind (J.member f v) J.to_string_opt in
  checkb "failed row" true (str "status" = Some "failed");
  checkb "row keeps job id" true (str "id" = Some j.Harness.Spec.id);
  let err = Option.get (J.member "error" v) in
  let estr f = Option.bind (J.member f err) J.to_string_opt in
  checkb "kind" true (estr "kind" = Some "round-limit");
  checkb "protocol" true (estr "protocol" = Some "runaway");
  check "round" 1000001
    (Option.get (Option.bind (J.member "round" err) J.to_int_opt))

let test_protect_exception () =
  let j = job_of small_spec in
  let r = Harness.Runner.protect j (fun () -> failwith "boom") in
  let v = J.parse_exn r in
  checkb "failed row" true
    (Option.bind (J.member "status" v) J.to_string_opt = Some "failed");
  let err = Option.get (J.member "error" v) in
  checkb "kind" true
    (Option.bind (J.member "kind" err) J.to_string_opt
    = Some "exception")

let run_to_fresh_store ?max_jobs spec =
  let path = temp_store_path () in
  let store = Harness.Store.load ~path () in
  let _ = Harness.Runner.run ~jobs:1 ?max_jobs spec store in
  store

let store_bytes store =
  In_channel.with_open_bin (Harness.Store.path store) In_channel.input_all

let test_runner_end_to_end () =
  let spec = small_spec in
  let store = run_to_fresh_store spec in
  let total = List.length (Harness.Spec.jobs spec) in
  check "all jobs checkpointed" total (Harness.Store.count store);
  List.iter
    (fun (_, raw) ->
      let v = J.parse_exn raw in
      checkb "row ok" true
        (Option.bind (J.member "status" v) J.to_string_opt = Some "ok");
      checkb "rounds positive" true
        (Option.get (Option.bind (J.member "rounds" v) J.to_int_opt) > 0))
    (Harness.Store.rows store);
  (* Exact classical diameter: estimate = exact on every row. *)
  let series = Harness.Runner.series_points spec store in
  check "two series" 2 (List.length series);
  List.iter
    (fun (_, pts) -> check "one point per size" 2 (List.length pts))
    series;
  let report = J.parse_exn (J.print (Harness.Runner.report spec store)) in
  check "report ok count" total
    (Option.get (Option.bind (J.member "ok" report) J.to_int_opt));
  check "report missing count" 0
    (Option.get (Option.bind (J.member "missing" report) J.to_int_opt));
  remove_store [ store ]

let test_runner_jobs_determinism () =
  let spec = small_spec in
  let s1 = run_to_fresh_store spec in
  let path = temp_store_path () in
  let s4 = Harness.Store.load ~path () in
  let _ = Harness.Runner.run ~jobs:4 spec s4 in
  checks "jobs=1 equals jobs=4" (store_bytes s1) (store_bytes s4);
  checks "reports equal"
    (J.print (Harness.Runner.report spec s1))
    (J.print (Harness.Runner.report spec s4));
  remove_store [ s1 ];
  remove_store [ s4 ]

(* The acceptance property: killing a sweep after any k jobs and
   resuming yields a byte-identical store and report. *)
let prop_kill_resume =
  QCheck.Test.make ~name:"kill-and-resume is byte-identical" ~count:8
    QCheck.(
      triple (int_range 0 7) (int_range 1 3)
        (oneofl
           [ Harness.Spec.Classical_diameter; Harness.Spec.Sssp_two_approx;
             Harness.Spec.Three_halves; Harness.Spec.Bfs_reliable ]))
    (fun (kill_after, jobs, extra_algo) ->
      let spec =
        Harness.Spec.make ~name:"kr"
          ~algos:[ Harness.Spec.Classical_diameter; extra_algo ]
          ~family:(Harness.Spec.Chain { cliques = 2 })
          ~max_w:6 ~sizes:[ 6; 9 ] ~seeds:[ 3 ]
          ~faults:{ Harness.Spec.drop = 0.05; delay = 1; duplicate = 0.0; fault_seed = 5 }
          ()
      in
      let uninterrupted = run_to_fresh_store ~max_jobs:max_int spec in
      (* Interrupted arm: k jobs, then resume with a different domain
         count (resume must not depend on it). *)
      let path = temp_store_path () in
      let s = Harness.Store.load ~path () in
      let _ = Harness.Runner.run ~jobs:1 ~max_jobs:kill_after spec s in
      let resumed = Harness.Store.load ~path () in
      let _ = Harness.Runner.run ~jobs spec resumed in
      let same_bytes = store_bytes uninterrupted = store_bytes resumed in
      let same_report =
        J.print (Harness.Runner.report spec uninterrupted)
        = J.print (Harness.Runner.report spec resumed)
      in
      remove_store [ uninterrupted ];
      remove_store [ s; resumed ];
      same_bytes && same_report)

(* --------------------------- Supervision --------------------------- *)

let test_protect_deadline () =
  let j = job_of small_spec in
  let info =
    { Congest.Engine.deadline_protocol = "stuck"; round_at_deadline = 17;
      elapsed_s = 0.06; budget_s = 0.05; partial_trace = Congest.Engine.empty_trace }
  in
  let r =
    Harness.Runner.protect ~attempt:2 j (fun () ->
        raise (Congest.Engine.Deadline_exceeded info))
  in
  let v = J.parse_exn r in
  let str f = Option.bind (J.member f v) J.to_string_opt in
  checkb "timeout row" true (str "status" = Some "timeout");
  checkb "schema v2" true (str "schema" = Some "qcongest-sweep-row/v2");
  check "attempt recorded" 2
    (Option.get (Option.bind (J.member "attempts" v) J.to_int_opt));
  let err = Option.get (J.member "error" v) in
  checkb "kind" true
    (Option.bind (J.member "kind" err) J.to_string_opt
    = Some "deadline");
  check "round" 17
    (Option.get (Option.bind (J.member "round" err) J.to_int_opt))

(* Fails every job [failing] selects with an injected permanent fault;
   other jobs run normally. *)
let failing_execute failing spec (j : Harness.Spec.job) ~attempt =
  if failing j then
    Harness.Runner.protect ~attempt j (fun () -> failwith "injected permanent fault")
  else Harness.Runner.run_job ~attempt spec j

let test_runner_rejects_bad_deadline () =
  (* A budget the engine would refuse is refused before any job runs:
     a negative one would checkpoint every job as a settled timeout
     row, and a NaN one would never fire. *)
  let path = temp_store_path () in
  let store = Harness.Store.load ~path () in
  let ran = ref 0 in
  let execute spec j ~attempt =
    incr ran;
    Harness.Runner.run_job ~attempt spec j
  in
  List.iter
    (fun d ->
      match Harness.Runner.run ~jobs:1 ~deadline_s:d ~execute small_spec store with
      | _ -> Alcotest.fail "invalid deadline accepted"
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan; Float.infinity ];
  check "no job ran" 0 !ran;
  check "nothing checkpointed" 0 (Harness.Store.count store);
  Harness.Store.close store;
  if Sys.file_exists path then Sys.remove path

let test_runner_failed_rows_degrade () =
  let spec = small_spec in
  (* Fail every job of the first series at its first size: the
     series keeps only one measured size and must degrade. *)
  let first = job_of spec in
  let is_failing (j : Harness.Spec.job) =
    j.Harness.Spec.algo = first.Harness.Spec.algo && j.Harness.Spec.n = first.Harness.Spec.n
  in
  let failing_ids =
    List.filter_map
      (fun j -> if is_failing j then Some j.Harness.Spec.id else None)
      (Harness.Spec.jobs spec)
  in
  let execute = failing_execute is_failing in
  let path = temp_store_path () in
  let store = Harness.Store.load ~path () in
  let executed, failed = Harness.Runner.run ~jobs:1 ~execute spec store in
  let total = List.length (Harness.Spec.jobs spec) in
  check "sweep completed" total executed;
  check "terminal failures" (List.length failing_ids) failed;
  (* Each failing job ran once and settled as a failed row in the one
     store. *)
  List.iter
    (fun id ->
      let v = J.parse_exn (Option.get (Harness.Store.find store id)) in
      checkb "failed row" true
        (Option.bind (J.member "status" v) J.to_string_opt
        = Some "failed");
      check "one attempt" 1
        (Option.get (Option.bind (J.member "attempts" v) J.to_int_opt)))
    failing_ids;
  (* Failed jobs are settled: a resume executes nothing. *)
  let again, _ = Harness.Runner.run ~jobs:1 ~execute spec store in
  check "resume settles" 0 again;
  (* ... and the report accounts for them. *)
  let report = J.parse_exn (J.print (Harness.Runner.report spec store)) in
  let rint f = Option.get (Option.bind (J.member f report) J.to_int_opt) in
  check "report failed" (List.length failing_ids) (rint "failed");
  check "report missing" 0 (rint "missing");
  check "report quarantined" 0 (rint "quarantined");
  (* The failing series lost a size: degraded, and its gate refuses a
     verdict. *)
  let degraded = Harness.Runner.degraded_series spec store in
  let series_name = Harness.Spec.algo_name first.Harness.Spec.algo in
  checkb "series degraded" true (List.mem series_name degraded);
  let verdict =
    Harness.Fit.evaluate ~degraded
      [ gate series_name 1.0 100.0 0.0 ]
      ~series:(Harness.Runner.series_points spec store)
  in
  checkb "degraded gate inconclusive" true
    (verdict.Harness.Fit.status = Harness.Fit.Inconclusive);
  check "exit 3" 3 (Harness.Fit.exit_code verdict);
  Harness.Store.close store;
  Sys.remove path

let test_gate_inconclusive_vs_fail () =
  let series = [ ("good", List.map (fun x -> (x, x ** 1.5)) [ 8.0; 16.0; 32.0 ]) ] in
  let v = Harness.Fit.evaluate [ gate "good" 1.5 0.2 0.9 ] ~series in
  checkb "measured pass" true (v.Harness.Fit.status = Harness.Fit.Pass);
  let v = Harness.Fit.evaluate [ gate "good" 0.5 0.1 0.9 ] ~series in
  checkb "measured fail" true (v.Harness.Fit.status = Harness.Fit.Fail);
  let v = Harness.Fit.evaluate [ gate "absent" 1.0 0.5 0.0 ] ~series in
  checkb "absent inconclusive" true (v.Harness.Fit.status = Harness.Fit.Inconclusive);
  let v = Harness.Fit.evaluate ~degraded:[ "good" ] [ gate "good" 1.5 0.2 0.9 ] ~series in
  checkb "degraded inconclusive" true (v.Harness.Fit.status = Harness.Fit.Inconclusive);
  (* Fail dominates Inconclusive in the verdict roll-up. *)
  let v =
    Harness.Fit.evaluate ~degraded:[ "good" ]
      [ gate "good" 1.5 0.2 0.9;
        gate "bad" 0.5 0.1 0.9 ]
      ~series:(("bad", List.map (fun x -> (x, x ** 1.5)) [ 8.0; 16.0; 32.0 ]) :: series)
  in
  checkb "fail dominates" true (v.Harness.Fit.status = Harness.Fit.Fail)

(* Kill-and-resume stays byte-identical when the store is corrupted
   mid-file between the kill and the resume, with a failed row among
   the checkpointed ones. *)
let prop_kill_corrupt_resume =
  QCheck.Test.make ~name:"kill+corrupt+resume is byte-identical" ~count:8
    QCheck.(triple (int_range 0 4) (int_range 0 2) (int_range 0 100))
    (fun (kill_after, corruption, flip_salt) ->
      let spec =
        Harness.Spec.make ~name:"kcr"
          ~algos:[ Harness.Spec.Classical_diameter; Harness.Spec.Sssp_two_approx ]
          ~family:(Harness.Spec.Chain { cliques = 2 })
          ~max_w:6 ~sizes:[ 6; 9 ] ~seeds:[ 3 ] ()
      in
      let failing_id = (job_of spec).Harness.Spec.id in
      let execute = failing_execute (fun j -> j.Harness.Spec.id = failing_id) in
      (* Reference arm: uninterrupted. *)
      let ref_path = temp_store_path () in
      let ref_store = Harness.Store.load ~path:ref_path () in
      let _ = Harness.Runner.run ~jobs:1 ~execute spec ref_store in
      (* Victim arm: killed after [kill_after] jobs. *)
      let path = temp_store_path () in
      let s = Harness.Store.load ~path () in
      let _ = Harness.Runner.run ~jobs:1 ~max_jobs:kill_after ~execute spec s in
      Harness.Store.close s;
      (* Corrupt whatever the kill left behind, mid-file. *)
      let lines =
        if not (Sys.file_exists path) then []
        else
          List.filter
            (fun l -> l <> "")
            (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
      in
      (match (lines, corruption) with
      | [], _ -> ()
      | l :: rest, 0 ->
        (* Bit-flip somewhere in the first row. *)
        let b = Bytes.of_string l in
        let i = flip_salt mod String.length l in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        Telemetry.Export.write_file ~path
          (String.concat "\n" (Bytes.to_string b :: rest) ^ "\n")
      | l :: rest, 1 ->
        (* Splice a foreign line after the first row. *)
        Telemetry.Export.write_file ~path
          (String.concat "\n" ((l :: "{\"id\":\"intruder\"}garbage" :: rest) @ []) ^ "\n")
      | _ ->
        (* Truncate the last row mid-write. *)
        let rev = List.rev lines in
        let last = List.hd rev and prefix = List.rev (List.tl rev) in
        let cut = String.sub last 0 (max 1 (String.length last - 9)) in
        Telemetry.Export.write_file ~path (String.concat "\n" (prefix @ [ cut ])));
      (* Resume to completion. *)
      let resumed = Harness.Store.load ~path () in
      let _ = Harness.Runner.run ~jobs:1 ~execute spec resumed in
      (* Mid-file repair re-appends the refilled job at the tail, so
         raw file order may differ; the invariant is the row set (every
         row byte-identical) and the report (byte-identical, rows
         sorted by id). *)
      let sorted s = List.sort compare (Harness.Store.rows s) in
      let same_rows = sorted ref_store = sorted resumed in
      let same_report =
        J.print (Harness.Runner.report spec ref_store)
        = J.print (Harness.Runner.report spec resumed)
      in
      let cp = Harness.Store.corrupt_path resumed in
      if Sys.file_exists cp then Sys.remove cp;
      Harness.Store.close ref_store;
      Harness.Store.close resumed;
      Sys.remove ref_path;
      Sys.remove path;
      same_rows && same_report)

(* ------------------------------ Suite ------------------------------ *)

(* ------------------------------- Rows ------------------------------ *)

(* The ci-smoke checkpoint store as pinned under test/cli_golden (a
   dependency of this test, copied next to its executable). *)
let ci_smoke_rows () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "cli_golden/ci-smoke.jsonl.expected"
  in
  Harness.Store.rows (Harness.Store.load ~lock:false ~path ())

(* The reprint rule: every ci-smoke row reads, and printing the row it
   reads gives back its bytes. *)
let test_row_reprint () =
  let rows = ci_smoke_rows () in
  check "every ci-smoke job" (List.length (Harness.Spec.jobs Harness.Spec.ci_smoke))
    (List.length rows);
  List.iter
    (fun (id, raw) ->
      match Harness.Runner.row_of_string raw with
      | Ok row -> checks ("reprint " ^ id) raw (J.print (Harness.Runner.row_to_json row))
      | Error _ -> Alcotest.failf "row %s does not read" id)
    rows

(* A line that is not a whole row reads as the reason why. *)
let test_row_errors () =
  let raw = snd (List.hd (ci_smoke_rows ())) in
  let edit f =
    match J.parse_exn raw with J.Obj fields -> J.print (J.Obj (f fields)) | _ -> assert false
  in
  let without key = List.filter (fun (k, _) -> k <> key) in
  let set key v = List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) in
  let reads s = Harness.Runner.row_of_string s in
  checkb "unparseable" true
    (match reads (String.sub raw 0 20) with
    | Error (Harness.Runner.Unparseable _) -> true
    | _ -> false);
  checkb "no status" true (reads (edit (without "status")) = Error Harness.Runner.No_status);
  checkb "mistyped rounds" true
    (reads (edit (set "rounds" (J.str "lots"))) = Error (Harness.Runner.Bad_field "rounds"));
  checkb "missing within" true
    (reads (edit (without "within")) = Error (Harness.Runner.Bad_field "within"));
  checkb "unknown status" true
    (reads (edit (set "status" (J.str "quarantined")))
    = Error (Harness.Runner.Bad_field "status"));
  checkb "failed row without its error" true
    (reads (edit (set "status" (J.str "failed"))) = Error (Harness.Runner.Bad_field "error"));
  checkb "unknown algorithm" true
    (reads (edit (set "algo" (J.str "nosuch"))) = Error (Harness.Runner.Bad_field "algo"));
  checkb "other schema" true
    (reads (edit (set "schema" (J.str "qcongest-sweep-row/v1")))
    = Error (Harness.Runner.Bad_field "schema"));
  checkb "not an object" true (reads "[1,2]" = Error Harness.Runner.No_status)

let () =
  Alcotest.run "harness"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "geometric" `Quick test_spec_geometric;
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "job ids" `Quick test_job_ids;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "corrupt tail" `Quick test_store_corrupt_tail;
          Alcotest.test_case "garbage middle" `Quick test_store_garbage_middle;
          Alcotest.test_case "append validation" `Quick test_store_append_validation;
          Alcotest.test_case "v2 frames" `Quick test_store_v2_frames;
          Alcotest.test_case "crc-stripped row quarantined" `Quick
            test_store_stripped_crc_quarantined;
          Alcotest.test_case "checksum detects bit-flip" `Quick
            test_store_checksum_detects_bitflip;
          Alcotest.test_case "lock file" `Quick test_store_lock;
          Alcotest.test_case "read-only coexists with live lock" `Quick
            test_store_read_only_coexists_with_live_lock;
          Alcotest.test_case "fsync mode" `Quick test_store_fsync_mode;
        ] );
      ( "fit",
        [
          Alcotest.test_case "power law" `Quick test_fit_power_law;
          Alcotest.test_case "degenerate" `Quick test_fit_degenerate;
          Alcotest.test_case "deterministic" `Quick test_fit_deterministic;
          Alcotest.test_case "gate verdicts" `Quick test_gate_verdicts;
          Alcotest.test_case "verdict json" `Quick test_verdict_json;
          Alcotest.test_case "inconclusive vs fail" `Quick test_gate_inconclusive_vs_fail;
        ] );
      ( "runner",
        [
          Alcotest.test_case "protect round-limit" `Quick test_protect_round_limit;
          Alcotest.test_case "protect exception" `Quick test_protect_exception;
          Alcotest.test_case "end to end" `Slow test_runner_end_to_end;
          Alcotest.test_case "jobs determinism" `Slow test_runner_jobs_determinism;
          QCheck_alcotest.to_alcotest prop_kill_resume;
          Alcotest.test_case "protect deadline" `Quick test_protect_deadline;
          Alcotest.test_case "rejects bad deadline" `Quick test_runner_rejects_bad_deadline;
          Alcotest.test_case "failed rows degrade" `Slow test_runner_failed_rows_degrade;
          QCheck_alcotest.to_alcotest prop_kill_corrupt_resume;
          Alcotest.test_case "row reprint" `Quick test_row_reprint;
          Alcotest.test_case "row errors" `Quick test_row_errors;
        ] );
    ]
