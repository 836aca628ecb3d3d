(* Tests for lib/profile: span attribution (recorder, event replay,
   cross-domain merge), the perf-trajectory store, the regression
   gate's 0/1/3 contract, and the live-monitor rendering. *)

module T = Telemetry
module E = Telemetry.Events
module P = Profile

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------- Span ------------------------------ *)

let test_span_recorder_manual_clock () =
  let clock, advance = T.Clock.manual () in
  let r = P.Span.recorder ~clock ~gc:false () in
  let v =
    P.Span.span r "outer" (fun () ->
        advance 1.0;
        P.Span.span r "inner" (fun () -> advance 2.0);
        advance 3.0;
        42)
  in
  check "value through" 42 v;
  (* Second call of the same path aggregates, not duplicates. *)
  P.Span.span r "outer" (fun () -> advance 0.5);
  match P.Span.tree r with
  | [ outer ] ->
    checks "root name" "outer" outer.P.Span.name;
    check "root calls" 2 outer.P.Span.calls;
    checkf "root total" 6.5 outer.P.Span.total_s;
    checkf "root self = total - child" 4.5 outer.P.Span.self_s;
    (match outer.P.Span.children with
    | [ inner ] ->
      checks "child name" "inner" inner.P.Span.name;
      check "child calls" 1 inner.P.Span.calls;
      checkf "child total" 2.0 inner.P.Span.total_s;
      checkf "leaf self = total" 2.0 inner.P.Span.self_s
    | _ -> Alcotest.fail "expected one child")
  | _ -> Alcotest.fail "expected one root"

let test_span_exception_closes () =
  let clock, advance = T.Clock.manual () in
  let r = P.Span.recorder ~clock ~gc:false () in
  (try
     P.Span.span r "boom" (fun () ->
         advance 1.0;
         failwith "interrupted")
   with Failure _ -> ());
  match P.Span.tree r with
  | [ { P.Span.name = "boom"; calls = 1; total_s; _ } ] -> checkf "closed on raise" 1.0 total_s
  | _ -> Alcotest.fail "span not closed by the exception path"

let span_events =
  [
    E.Span_begin { name = "sweep"; round = 0; wall_s = 0.0 };
    E.Span_begin { name = "engine.compute"; round = 0; wall_s = 1.0 };
    E.Span_end { name = "engine.compute"; round = 0; wall_s = 3.0 };
    E.Span_begin { name = "engine.compute"; round = 1; wall_s = 3.0 };
    E.Span_end { name = "engine.compute"; round = 1; wall_s = 4.0 };
    E.Span_end { name = "sweep"; round = 1; wall_s = 5.0 };
  ]

let test_of_events_pinned () =
  let t = P.Span.of_events span_events in
  (match P.Span.find t [ "sweep" ] with
  | Some s ->
    check "sweep calls" 1 s.P.Span.calls;
    checkf "sweep total" 5.0 s.P.Span.total_s;
    checkf "sweep self" 2.0 s.P.Span.self_s
  | None -> Alcotest.fail "sweep missing");
  (match P.Span.find t [ "sweep"; "engine.compute" ] with
  | Some c ->
    check "compute aggregated" 2 c.P.Span.calls;
    checkf "compute total" 3.0 c.P.Span.total_s
  | None -> Alcotest.fail "compute missing");
  checkf "conservation" 5.0 (P.Span.total_self t)

let test_of_events_unbalanced () =
  (* A stray end is dropped; an end that skips an open inner span
     unwinds to the match; unclosed spans contribute nothing. *)
  let t =
    P.Span.of_events
      [
        E.Span_end { name = "stray"; round = 0; wall_s = 1.0 };
        E.Span_begin { name = "a"; round = 0; wall_s = 0.0 };
        E.Span_begin { name = "b"; round = 0; wall_s = 1.0 };
        E.Span_end { name = "a"; round = 0; wall_s = 4.0 };
        E.Span_begin { name = "dangling"; round = 0; wall_s = 5.0 };
      ]
  in
  checkb "stray dropped" true (P.Span.find t [ "stray" ] = None);
  checkb "dangling dropped" true (P.Span.find t [ "dangling" ] = None);
  (match P.Span.find t [ "a" ] with
  | Some a -> checkf "a spans to the unwinding end" 4.0 a.P.Span.total_s
  | None -> Alcotest.fail "a missing");
  match P.Span.find t [ "a"; "b" ] with
  | Some b -> checkf "b closed at a's end" 3.0 b.P.Span.total_s
  | None -> Alcotest.fail "b missing"

let test_span_exporters () =
  let t = P.Span.of_events span_events in
  let json = P.Span.to_json t in
  checkb "schema" true (contains json "\"schema\":\"qcongest-profile/v1\"");
  checkb "nested children" true (contains json "\"children\":[{\"name\":\"engine.compute\"");
  let folded = P.Span.folded t in
  checkb "leaf line" true (contains folded "sweep;engine.compute 3000000\n");
  checkb "self line" true (contains folded "sweep 2000000\n");
  (* A zero-self interior frame prints no line of its own. *)
  let t0 =
    P.Span.of_events
      [
        E.Span_begin { name = "wrap"; round = 0; wall_s = 0.0 };
        E.Span_begin { name = "leaf"; round = 0; wall_s = 0.0 };
        E.Span_end { name = "leaf"; round = 0; wall_s = 2.0 };
        E.Span_end { name = "wrap"; round = 0; wall_s = 2.0 };
      ]
  in
  checks "zero-self frames folded away" "wrap;leaf 2000000\n" (P.Span.folded t0)

(* The engine's opt-in phase spans: every scheduled round brackets
   heap/delivery/compute, and replaying the stream attributes all
   engine time to the three phases. *)
let test_engine_phase_spans () =
  let rng = Util.Rng.create ~seed:0 in
  let g = Graphlib.Gen.path ~n:6 ~weighting:Graphlib.Gen.Unit ~rng in
  let relay : (int, int) Congest.Engine.protocol =
    {
      name = "relay";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Congest.Node_view.id = 0 then (0, Congest.Engine.send [ (1, 0) ])
          else (-1, Congest.Engine.no_action));
      on_round =
        (fun view ~round:_ s ~inbox ->
          if Congest.Engine.Inbox.length inbox = 0 then (s, Congest.Engine.no_action)
          else
            let msg = Congest.Engine.Inbox.msg inbox 0 in
            let next = view.Congest.Node_view.id + 1 in
            if next < view.Congest.Node_view.n then
              (msg + 1, Congest.Engine.send [ (next, msg + 1) ])
            else (msg + 1, Congest.Engine.no_action));
    }
  in
  let sink, drain = E.collector () in
  let states, trace =
    Congest.Engine.with_phase_spans (fun () -> Congest.Engine.run ~sink g relay)
  in
  let t = P.Span.of_events (drain ()) in
  let phase name =
    match P.Span.find t [ name ] with
    | Some n -> n
    | None -> Alcotest.fail (name ^ " span missing")
  in
  (* One heap probe per scheduler wake-up, one delivery+compute pair
     per executed round. *)
  check "compute spans = rounds" trace.Congest.Engine.rounds (phase "engine.compute").P.Span.calls;
  check "delivery spans = rounds" trace.Congest.Engine.rounds
    (phase "engine.delivery").P.Span.calls;
  checkb "heap probed at least once per round" true
    ((phase "engine.heap").P.Span.calls >= trace.Congest.Engine.rounds);
  (* The spans must not perturb the run itself. *)
  let plain_states, plain_trace = Congest.Engine.run g relay in
  checkb "states unchanged" true (states = plain_states);
  checkb "trace unchanged" true (trace = plain_trace);
  (* The scoped switch reaches engines the caller cannot see, and resets. *)
  let sink2, drain2 = E.collector () in
  let _ = Congest.Engine.with_phase_spans (fun () -> Congest.Engine.run ~sink:sink2 g relay) in
  checkb "ambient spans emitted" true
    (List.exists (function E.Span_begin _ -> true | _ -> false) (drain2 ()));
  let sink3, drain3 = E.collector () in
  let _ = Congest.Engine.run ~sink:sink3 g relay in
  checkb "ambient flag restored" false
    (List.exists (function E.Span_begin _ -> true | _ -> false) (drain3 ()))

(* --------------------------- QCheck: spans -------------------------- *)

(* Random well-nested span forests over a 3-name alphabet (collisions
   force sibling aggregation), integer tick timestamps (exact float
   arithmetic, so the conservation law is equality, not tolerance). *)
type stree = Node of string * stree list

let forest_gen =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec tree depth =
    if depth = 0 then map (fun n -> Node (n, [])) name
    else map2 (fun n kids -> Node (n, kids)) name (list_size (int_bound 2) (tree (depth - 1)))
  in
  list_size (int_range 1 4) (tree 3)

let events_of_forest forest =
  let tick = ref 0 in
  let evs = ref [] in
  let stamp () =
    let t = float_of_int !tick in
    incr tick;
    t
  in
  let rec go (Node (name, kids)) =
    evs := E.Span_begin { name; round = 0; wall_s = stamp () } :: !evs;
    List.iter go kids;
    evs := E.Span_end { name; round = 0; wall_s = stamp () } :: !evs
  in
  List.iter go forest;
  List.rev !evs

let prop_span_conservation =
  QCheck.Test.make ~name:"of_events: total_self = sum of root totals" ~count:200
    (QCheck.make forest_gen) (fun forest ->
      let t = P.Span.of_events (events_of_forest forest) in
      let root_total = List.fold_left (fun acc n -> acc +. n.P.Span.total_s) 0.0 t in
      Float.abs (P.Span.total_self t -. root_total) < 1e-9)

let prop_span_merge_roundtrip =
  QCheck.Test.make ~name:"merge: commutative, identity, call-doubling" ~count:200
    (QCheck.make (QCheck.Gen.pair forest_gen forest_gen)) (fun (f1, f2) ->
      let t1 = P.Span.of_events (events_of_forest f1) in
      let t2 = P.Span.of_events (events_of_forest f2) in
      P.Span.merge t1 [] = t1
      && P.Span.merge [] t2 = t2
      && P.Span.merge t1 t2 = P.Span.merge t2 t1
      && P.Span.total_self (P.Span.merge t1 t1) -. (2.0 *. P.Span.total_self t1) < 1e-9)

(* Per-recorder determinism: the 24 items split into contiguous
   chunks, one private recorder per chunk (as each worker domain owns
   one), folded with [merge_all] — the tree is independent of the
   chunking. *)
let test_cross_domain_merge () =
  let names = [| "alpha"; "beta"; "gamma" |] in
  let record chunks =
    let results = Array.make 24 0 in
    let trees =
      List.init chunks (fun c ->
          let r = P.Span.recorder ~clock:(T.Clock.fixed 0.0) ~gc:false () in
          for i = c * 24 / chunks to ((c + 1) * 24 / chunks) - 1 do
            results.(i) <-
              P.Span.span r "item" (fun () -> P.Span.span r names.(i mod 3) (fun () -> i * i))
          done;
          P.Span.tree r)
    in
    (results, P.Span.merge_all trees)
  in
  let r1, t1 = record 1 in
  let r3, t3 = record 3 in
  let r8, t8 = record 8 in
  checkb "results independent of chunks" true (r1 = r3 && r3 = r8);
  checkb "merged tree chunks 1 = 3" true (t1 = t3);
  checkb "merged tree chunks 3 = 8" true (t3 = t8);
  (match P.Span.find t1 [ "item" ] with
  | Some item -> check "every item recorded once" 24 item.P.Span.calls
  | None -> Alcotest.fail "item missing");
  match P.Span.find t1 [ "item"; "alpha" ] with
  | Some a -> check "alpha items aggregated" 8 a.P.Span.calls
  | None -> Alcotest.fail "item;alpha missing"

(* ---------------------------- Trajectory ---------------------------- *)

let mk_row ?(case = "relay") ?(n = 100) ?(wall = 1.0) () =
  P.Trajectory.make ~host:"testhost/linux/64bit/4cores" ~rev:"abcdef123456" ~unix_s:1000.0
    ~case ~n ~reps:3 ~wall_s:wall ~throughput:42.5 ()

let test_trajectory_json_roundtrip () =
  let r = mk_row () in
  let json = Telemetry.Json.print (P.Trajectory.to_json r) in
  checkb "schema" true (contains json "\"schema\":\"qcongest-perf-row/v1\"");
  checkb "single line" false (String.contains json '\n');
  (match P.Trajectory.of_json (Telemetry.Json.parse_exn json) with
  | Some r' -> checkb "roundtrip" true (r' = r)
  | None -> Alcotest.fail "roundtrip rejected");
  (* Minimal row: only case/n/wall_s present, everything else defaults. *)
  (match
     P.Trajectory.of_json
       (Telemetry.Json.parse_exn "{\"case\":\"x\",\"n\":5,\"wall_s\":0.25}")
   with
  | Some r ->
    check "reps default" 1 r.P.Trajectory.reps;
    checks "host default" "unknown" r.P.Trajectory.host;
    checkf "throughput default" 0.0 r.P.Trajectory.throughput
  | None -> Alcotest.fail "minimal row rejected");
  checkb "missing case rejected" true
    (P.Trajectory.of_json (Telemetry.Json.parse_exn "{\"n\":5,\"wall_s\":0.25}") = None)

let test_trajectory_persistence () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcongest_profile_test.%d" (Unix.getpid ()))
  in
  let rows = [ mk_row (); mk_row ~case:"flood" ~n:200 ~wall:2.0 () ] in
  let history = P.Trajectory.append ~root rows in
  let history2 = P.Trajectory.append ~root rows in
  checks "append is stable path" history history2;
  checkb "history reads back appended rows" true
    (P.Trajectory.read ~path:history = rows @ rows);
  let latest = P.Trajectory.write_latest ~root rows in
  checkb "latest snapshot reads back" true (P.Trajectory.read ~path:latest = rows);
  let latest2 = P.Trajectory.write_latest ~root [ mk_row ~wall:9.0 () ] in
  checks "latest is stable path" latest latest2;
  check "latest replaced, not appended" 1 (List.length (P.Trajectory.read ~path:latest));
  checkb "missing file is empty" true
    (P.Trajectory.read ~path:(Filename.concat root "nope.json") = []);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)))

let test_trajectory_provenance () =
  let fp = P.Trajectory.host_fingerprint () in
  checkb "fingerprint has 4 fields" true
    (List.length (String.split_on_char '/' fp) = 4);
  let rev = P.Trajectory.git_rev ~root:"/root/repo" () in
  check "repo rev is 12 hex" 12 (String.length rev);
  checkb "rev is hex" true
    (String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) rev);
  checks "outside a repo" "unknown"
    (P.Trajectory.git_rev ~root:(Filename.get_temp_dir_name ()) ())

(* ------------------------------- Gate ------------------------------- *)

let test_gate_pass_fail_inconclusive () =
  let baseline = [ mk_row ~case:"a" ~wall:1.0 (); mk_row ~case:"b" ~wall:2.0 () ] in
  let same = P.Gate.evaluate ~baseline ~current:baseline () in
  checkb "identical rows pass" true (same.P.Gate.status = Harness.Fit.Pass);
  check "pass exits 0" 0 (P.Gate.exit_code same);
  check "both cases compared" 2 (List.length same.P.Gate.cases);
  (* Inside the band: 20% slower under the default 35% tolerance. *)
  let near = [ mk_row ~case:"a" ~wall:1.2 (); mk_row ~case:"b" ~wall:2.0 () ] in
  checkb "noise-band pass" true
    ((P.Gate.evaluate ~baseline ~current:near ()).P.Gate.status = Harness.Fit.Pass);
  (* One real regression fails the whole gate. *)
  let slow = [ mk_row ~case:"a" ~wall:2.0 (); mk_row ~case:"b" ~wall:2.0 () ] in
  let v = P.Gate.evaluate ~baseline ~current:slow () in
  checkb "regression fails" true (v.P.Gate.status = Harness.Fit.Fail);
  check "fail exits 1" 1 (P.Gate.exit_code v);
  (match List.find_opt (fun c -> c.P.Gate.case = "a") v.P.Gate.cases with
  | Some c ->
    checkf "ratio" 2.0 c.P.Gate.ratio;
    checkb "flagged" false c.P.Gate.within
  | None -> Alcotest.fail "case a missing from verdict");
  (* Getting faster is never a failure. *)
  let fast = [ mk_row ~case:"a" ~wall:0.1 (); mk_row ~case:"b" ~wall:0.2 () ] in
  checkb "speedup passes" true
    ((P.Gate.evaluate ~baseline ~current:fast ()).P.Gate.status = Harness.Fit.Pass);
  (* Nothing to compare → Inconclusive (exit 3), never Pass. *)
  let v = P.Gate.evaluate ~baseline:[] ~current:slow () in
  checkb "empty baseline inconclusive" true (v.P.Gate.status = Harness.Fit.Inconclusive);
  check "inconclusive exits 3" 3 (P.Gate.exit_code v);
  let disjoint = [ mk_row ~case:"z" () ] in
  let v = P.Gate.evaluate ~baseline ~current:disjoint () in
  checkb "disjoint cases inconclusive" true (v.P.Gate.status = Harness.Fit.Inconclusive);
  checkb "new case surfaced" true (List.mem ("z", 100) v.P.Gate.missing_baseline);
  checkb "unmeasured case surfaced" true (List.mem ("a", 100) v.P.Gate.missing_current)

let test_gate_median_of_k () =
  (* The median shields the verdict from one noisy rep on either side. *)
  let baseline = List.map (fun w -> mk_row ~wall:w ()) [ 1.0; 1.0; 1.0 ] in
  let noisy = List.map (fun w -> mk_row ~wall:w ()) [ 0.9; 1.1; 50.0 ] in
  let v = P.Gate.evaluate ~baseline ~current:noisy () in
  checkb "median absorbs the outlier" true (v.P.Gate.status = Harness.Fit.Pass);
  (match v.P.Gate.cases with
  | [ c ] -> checkf "current median" 1.1 c.P.Gate.current_s
  | _ -> Alcotest.fail "expected one compared case");
  (* Majority-slow is a real regression, not noise. *)
  let slow = List.map (fun w -> mk_row ~wall:w ()) [ 2.0; 2.1; 0.5 ] in
  checkb "median regression fails" true
    ((P.Gate.evaluate ~baseline ~current:slow ()).P.Gate.status = Harness.Fit.Fail)

let test_gate_guards () =
  let rows = [ mk_row () ] in
  let v = P.Gate.evaluate ~min_points:2 ~baseline:rows ~current:rows () in
  checkb "min_points unmet is inconclusive" true
    (v.P.Gate.status = Harness.Fit.Inconclusive);
  (* A zero-wall baseline point is unusable, not a division. *)
  let v =
    P.Gate.evaluate ~baseline:[ mk_row ~wall:0.0 () ] ~current:[ mk_row ~wall:1.0 () ] ()
  in
  checkb "non-positive baseline dropped" true (v.P.Gate.cases = []);
  checkb "bad tolerance raises" true
    (try ignore (P.Gate.evaluate ~tolerance:(-0.1) ~baseline:rows ~current:rows ()); false
     with Invalid_argument _ -> true);
  let json =
    Telemetry.Json.print (P.Gate.to_json (P.Gate.evaluate ~baseline:rows ~current:rows ()))
  in
  checkb "gate json schema" true (contains json "\"schema\":\"qcongest-perf-gate/v1\"");
  checkb "gate json status" true (contains json "\"status\":\"pass\"")

(* ------------------------------ Monitor ----------------------------- *)

(* A whole checkpoint row, printed by the runner's one writer. *)
let whole_row id outcome =
  T.Json.print
    (Harness.Runner.row_to_json
       { Harness.Runner.id; algo = Harness.Spec.Classical_diameter; n = 8; n_actual = 8;
         seed = 1; attempts = 1; outcome })

let ok_row id =
  whole_row id
    (Harness.Runner.Succeeded
       { result =
           { Harness.Runner.rounds = 3; messages = 9; estimate = 4.0; exact = 4; within = true;
             note = "" };
         ratio = 1.0 })

let error_row id kind =
  let error = { Harness.Runner.kind; detail = [] } in
  whole_row id
    (if kind = "deadline" then Harness.Runner.Timed_out error else Harness.Runner.Failed error)

let test_monitor_of_rows () =
  let rows =
    [
      ("j1", ok_row "j1");
      ("j2", ok_row "j2");
      ("j3", error_row "j3" "exception");
      ("j4", error_row "j4" "deadline");
      ("j5", "not json");
    ]
  in
  let s = P.Monitor.of_rows ~total:10 ~rows ~skipped:2 () in
  check "settled = rows" 5 s.P.Monitor.settled;
  check "ok" 2 s.P.Monitor.ok;
  check "failed counts timeout and garbage" 3 s.P.Monitor.failed;
  check "timeout surfaced separately" 1 s.P.Monitor.timeout;
  check "skipped" 2 s.P.Monitor.skipped

let test_monitor_render () =
  let s =
    { P.Monitor.settled = 12; total = 40; ok = 11; failed = 1; timeout = 0; skipped = 0 }
  in
  checks "full line"
    "12/40 rows (30%) | 2.4 rows/s eta 12s | ok 11 fail 1 timeout 0"
    (P.Monitor.render ~baseline:0 ~elapsed_s:5.0 s);
  checks "no total, no rate" "12 rows | ok 11 fail 1 timeout 0"
    (P.Monitor.render { s with P.Monitor.total = 0 });
  let skipped = { s with P.Monitor.skipped = 3 } in
  checkb "partial appends surfaced" true
    (contains (P.Monitor.render skipped) "skipped 3");
  (* Fixed width: padded when short, clipped when long. *)
  check "padded" 78 (String.length (P.Monitor.render ~width:78 s));
  check "clipped" 10 (String.length (P.Monitor.render ~width:10 s));
  (* Completion: eta 0 is not printed, 100% is. *)
  let t = { s with P.Monitor.settled = 40; ok = 39 } in
  checkb "complete shows 100%" true (contains (P.Monitor.render t) "40/40 rows (100%)")

let test_monitor_rate_eta () =
  let s = { P.Monitor.empty with P.Monitor.settled = 30; total = 50 } in
  checkf "rate from baseline" 2.0 (P.Monitor.rate ~baseline:10 ~elapsed_s:10.0 s);
  (match P.Monitor.eta_s ~baseline:10 ~elapsed_s:10.0 s with
  | Some eta -> checkf "eta" 10.0 eta
  | None -> Alcotest.fail "eta expected");
  checkb "no rate, no eta" true (P.Monitor.eta_s ~baseline:30 ~elapsed_s:10.0 s = None);
  checkf "zero elapsed is zero rate" 0.0 (P.Monitor.rate ~baseline:0 ~elapsed_s:0.0 s);
  checkb "unknown total, no eta" true
    (P.Monitor.eta_s ~baseline:10 ~elapsed_s:10.0 { s with P.Monitor.total = 0 } = None);
  match P.Monitor.eta_s ~baseline:0 ~elapsed_s:1.0 { s with P.Monitor.settled = 50 } with
  | Some eta -> checkf "complete eta 0" 0.0 eta
  | None -> Alcotest.fail "complete store has eta 0"

(* Monitor.observe end-to-end over a real store. *)
let test_monitor_observe_store () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcongest_monitor_test.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "sweep.jsonl" in
  let store = Harness.Store.load ~path () in
  Harness.Store.append store ~id:"a" (ok_row "a");
  Harness.Store.append store ~id:"b" (error_row "b" "exception");
  Harness.Store.close store;
  let s = P.Monitor.observe ~total:4 ~path () in
  check "settled" 2 s.P.Monitor.settled;
  check "ok" 1 s.P.Monitor.ok;
  check "failed" 1 s.P.Monitor.failed;
  check "nothing skipped" 0 s.P.Monitor.skipped;
  (* Damage a live runner's store: a duplicate row and a garbage line
     mid-file, a partial append at the tail, and a lock held by a live
     foreign process (pid 1). The monitor counts all three lines as
     skipped and leaves the bytes and the lock alone. *)
  let first_line =
    List.hd (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
  in
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      output_string oc (first_line ^ "\nnot json\n{\"id\":\"half"));
  let lock_path = path ^ ".lock" in
  T.Export.write_file ~path:lock_path "1\n";
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let s = P.Monitor.observe ~total:4 ~path () in
  check "damaged store keeps its rows" 2 s.P.Monitor.settled;
  check "partial tail, garbage and duplicate skipped" 3 s.P.Monitor.skipped;
  let s2 = P.Monitor.observe ~total:4 ~path () in
  checkb "stable" true (s = s2);
  checks "read-only" bytes (In_channel.with_open_bin path In_channel.input_all);
  checks "foreign lock untouched" "1\n" (In_channel.with_open_bin lock_path In_channel.input_all);
  checkb "missing store is empty" true
    (P.Monitor.observe ~path:(Filename.concat dir "none.jsonl") () = P.Monitor.empty);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_span_conservation; prop_span_merge_roundtrip ]

let () =
  Alcotest.run "profile"
    [
      ( "span",
        [
          Alcotest.test_case "recorder + manual clock" `Quick test_span_recorder_manual_clock;
          Alcotest.test_case "exception closes span" `Quick test_span_exception_closes;
          Alcotest.test_case "of_events pinned" `Quick test_of_events_pinned;
          Alcotest.test_case "of_events unbalanced" `Quick test_of_events_unbalanced;
          Alcotest.test_case "json + folded exporters" `Quick test_span_exporters;
          Alcotest.test_case "engine phase spans" `Quick test_engine_phase_spans;
          Alcotest.test_case "cross-domain merge" `Quick test_cross_domain_merge;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "json roundtrip" `Quick test_trajectory_json_roundtrip;
          Alcotest.test_case "persistence" `Quick test_trajectory_persistence;
          Alcotest.test_case "provenance" `Quick test_trajectory_provenance;
        ] );
      ( "gate",
        [
          Alcotest.test_case "pass / fail / inconclusive" `Quick test_gate_pass_fail_inconclusive;
          Alcotest.test_case "median of k" `Quick test_gate_median_of_k;
          Alcotest.test_case "guards and json" `Quick test_gate_guards;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "of_rows" `Quick test_monitor_of_rows;
          Alcotest.test_case "render" `Quick test_monitor_render;
          Alcotest.test_case "rate and eta" `Quick test_monitor_rate_eta;
          Alcotest.test_case "observe a real store" `Quick test_monitor_observe_store;
        ] );
      ("properties", qsuite);
    ]
