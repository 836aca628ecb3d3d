(* Tests for lib/telemetry and its integration with the CONGEST
   engine: the JSON value, metrics registry, event streams, exporters,
   span profiling, and the replay property (event stream -> exact
   trace counters). *)

module T = Telemetry
module E = Telemetry.Events
open Congest

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_substring s sub =
  let n = String.length s and m = String.length sub in
  let c = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = sub then incr c
  done;
  !c

let unit_path n =
  let rng = Util.Rng.create ~seed:0 in
  Graphlib.Gen.path ~n ~weighting:Graphlib.Gen.Unit ~rng

let random_graph seed =
  let rng = Util.Rng.create ~seed in
  let n = 3 + Util.Rng.int rng 20 in
  Graphlib.Gen.gnp_connected ~n ~p:0.2 ~weighting:(Graphlib.Gen.Uniform { max_w = 4 }) ~rng

(* The relay protocol from test_congest: node 0 sends a counter down
   the path. *)
let relay_protocol : (int option, int) Engine.protocol =
  {
    name = "relay";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Node_view.id = 0 then (Some 0, Engine.send [ (1, 0) ])
        else (None, Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        if Engine.Inbox.length inbox = 0 then (s, Engine.no_action)
        else
          let msg = Engine.Inbox.msg inbox 0 in
          let next = view.Node_view.id + 1 in
          if next < view.Node_view.n then (Some (msg + 1), Engine.send [ (next, msg + 1) ])
          else (Some (msg + 1), Engine.no_action));
  }

let burst_protocol sends : (unit, int) Engine.protocol =
  {
    name = "burst";
    size_words = (fun m -> m);
    init =
      (fun view ->
        if view.Node_view.id = 0 then ((), Engine.send sends) else ((), Engine.no_action));
    on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
  }

(* ------------------------------- JSON ------------------------------ *)

let test_json_values () =
  let open Telemetry.Json in
  Alcotest.(check bool) "null" true (parse "null" = Ok Null);
  Alcotest.(check bool) "true" true (parse "true" = Ok (Bool true));
  Alcotest.(check bool) "num" true (parse "-12.5e1" = Ok (Num (-125.0)));
  Alcotest.(check bool) "str" true (parse {|"a\nb"|} = Ok (Str "a\nb"));
  Alcotest.(check bool) "unicode escape" true (parse "\"\\u0041\"" = Ok (Str "A"));
  Alcotest.(check bool) "arr" true
    (parse "[1, 2, 3]" = Ok (Arr [ Num 1.0; Num 2.0; Num 3.0 ]));
  Alcotest.(check bool) "obj" true
    (parse {| {"a": 1, "b": [true]} |} = Ok (Obj [ ("a", Num 1.0); ("b", Arr [ Bool true ]) ]))

let test_json_errors () =
  let bad s =
    match Telemetry.Json.parse s with Ok _ -> Alcotest.failf "parsed %S" s | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "nul";
  bad "1 2" (* trailing garbage *);
  bad "\"unterminated";
  bad "{\"a\" 1}";
  (* A \u escape takes exactly four hex digits (int_of_string would
     read "0x1_23" as 0x123). *)
  bad "\"\\u1_23\"";
  bad "\"\\u0_0_\"";
  (* A numeral that overflows float64 would read as an infinity. *)
  bad "1e400";
  bad "-1e400";
  (* A raw control byte inside a string (RFC 8259 section 7). *)
  bad "\"a\nb\"";
  bad "[\"\001\"]"

let test_json_roundtrip () =
  let open Telemetry.Json in
  let v =
    Obj
      [
        ("s", Str "q\"uote\\slash\n");
        ("i", Num 42.0);
        ("f", Num 1.5);
        ("l", Arr [ Null; Bool false; Obj [] ]);
      ]
  in
  Alcotest.(check bool) "print/parse inverse" true (parse (print v) = Ok v)

let test_json_accessors () =
  let open Telemetry.Json in
  let v = parse_exn {| {"n": 3, "name": "x", "ok": true, "xs": [1]} |} in
  check "int" 3 (Option.get (Option.bind (member "n" v) to_int_opt));
  checks "str" "x" (Option.get (Option.bind (member "name" v) to_string_opt));
  checkb "bool" true (Option.get (Option.bind (member "ok" v) to_bool_opt));
  check "list len" 1 (List.length (Option.get (Option.bind (member "xs" v) to_list_opt)));
  checkb "missing member" true (member "absent" v = None);
  checkb "int rejects fraction" true (to_int_opt (Num 1.5) = None)

(* Float64 integer-exactness boundary: 2^53 is the first integer whose
   float image is shared with its successor (2^53 and 2^53 + 1 both
   parse to 9007199254740992.0), so [to_int_opt] must stop one short of
   it — a silently rounded id or counter is worse than a None. *)
let test_json_int_exactness_boundary () =
  let open Telemetry.Json in
  let two53 = 9007199254740992.0 in
  checkb "2^53 - 1 accepted" true (to_int_opt (Num (two53 -. 1.0)) = Some 9007199254740991);
  checkb "-(2^53 - 1) accepted" true
    (to_int_opt (Num (-.(two53 -. 1.0))) = Some (-9007199254740991));
  checkb "2^53 rejected" true (to_int_opt (Num two53) = None);
  checkb "2^53 + 1 rejected (same float as 2^53)" true
    (to_int_opt (Num (two53 +. 1.0)) = None);
  checkb "-(2^53) rejected" true (to_int_opt (Num (-.two53)) = None);
  checkb "parse path rejects 9007199254740993" true
    (match parse "9007199254740993" with
    | Ok v -> to_int_opt v = None
    | Error _ -> false);
  checkb "parse path accepts 9007199254740991" true
    (match parse "9007199254740991" with
    | Ok v -> to_int_opt v = Some 9007199254740991
    | Error _ -> false)

let prop_json_int_roundtrip =
  QCheck.Test.make ~name:"exact ints survive print/parse/to_int_opt" ~count:1000
    QCheck.(int_range (-9007199254740991) 9007199254740991)
    (fun i ->
      match Telemetry.Json.parse (Telemetry.Json.print (Telemetry.Json.Num (float_of_int i))) with
      | Ok v -> Telemetry.Json.to_int_opt v = Some i
      | Error _ -> false)

let prop_json_float_roundtrip =
  (* The printer rounds a non-integral float to 9 significant digits,
     so the parse is exact for integral values and within 1e-8
     relative otherwise. *)
  QCheck.Test.make ~name:"finite floats survive print/parse within format precision"
    ~count:500
    QCheck.(float_range (-1e14) 1e14)
    (fun f ->
      match Telemetry.Json.parse (Telemetry.Json.print (Telemetry.Json.Num f)) with
      | Ok (Telemetry.Json.Num f') ->
        if Float.is_integer f then f' = f
        else Float.abs (f' -. f) <= 1e-8 *. Float.max 1.0 (Float.abs f)
      | _ -> false)

(* Trees over every corner of the number rule (ints up to 2^53 - 1,
   any float bit pattern, -0.0, NaN, the infinities), keys and strings
   over all 256 byte values, nested arrays and objects: printing the
   parse of a printed tree gives the same bytes, and a tree whose
   numbers are all exact integers parses back to itself. *)
let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 6) in
  let num =
    frequency
      [
        (3, map float_of_int (int_range (-9007199254740991) 9007199254740991));
        (3, map Int64.float_of_bits ui64);
        (2, float_range (-1e16) 1e16);
        (1, oneofl [ -0.0; Float.nan; Float.infinity; Float.neg_infinity ]);
      ]
  in
  let leaf =
    oneof
      Telemetry.Json.
        [
          return Null; map (fun b -> Bool b) QCheck.Gen.bool; map (fun f -> Num f) num;
          map (fun s -> Str s) bytes;
        ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           let sub g = list_size (int_bound 4) g in
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Telemetry.Json.Arr l) (sub (self (n / 3))));
               (2, map (fun l -> Telemetry.Json.Obj l) (sub (pair bytes (self (n / 3)))));
             ])

let rec exact_numbers = function
  | Telemetry.Json.Num f -> Float.is_integer f && Float.abs f < 9007199254740992.0
  | Arr l -> List.for_all exact_numbers l
  | Obj l -> List.for_all (fun (_, v) -> exact_numbers v) l
  | Null | Bool _ | Str _ -> true

let prop_json_print_parse_fixed_point =
  QCheck.Test.make ~name:"print (parse (print v)) = print v" ~count:500
    (QCheck.make ~print:Telemetry.Json.print gen_json)
    (fun v ->
      let open Telemetry.Json in
      let s = print v in
      print (parse_exn s) = s && ((not (exact_numbers v)) || parse s = Ok v))

(* ------------------------------ Metrics ---------------------------- *)

let test_metrics_counters_gauges () =
  let m = T.Metrics.create () in
  T.Metrics.incr m "a";
  T.Metrics.add m "a" 4;
  T.Metrics.set_gauge m "g" 1.5;
  T.Metrics.set_gauge m "g" 2.5;
  let s = T.Metrics.snapshot m in
  Alcotest.(check (option int)) "counter" (Some 5) (T.Metrics.counter_value s "a");
  Alcotest.(check (option (float 1e-9))) "gauge last write wins" (Some 2.5)
    (T.Metrics.gauge_value s "g");
  Alcotest.(check (option int)) "missing" None (T.Metrics.counter_value s "zzz");
  checkb "kind mismatch raises" true
    (try T.Metrics.set_gauge m "a" 1.0; false with Invalid_argument _ -> true);
  checkb "negative add raises" true
    (try T.Metrics.add m "a" (-1); false with Invalid_argument _ -> true)

let test_metrics_histogram_buckets () =
  let m = T.Metrics.create () in
  List.iter (T.Metrics.observe m "h") [ 0; 1; 1; 2; 3; 7; 8 ];
  let s = T.Metrics.snapshot m in
  match T.Metrics.histogram_stats s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    check "count" 7 h.T.Metrics.count;
    check "sum" 22 h.T.Metrics.sum;
    check "min" 0 h.T.Metrics.min_v;
    check "max" 8 h.T.Metrics.max_v;
    (* Buckets: underflow (<=0), le=1 {1,1}, le=3 {2,3}, le=7 {7},
       le=15 {8}. *)
    Alcotest.(check (list (pair int int)))
      "log buckets" [ (0, 1); (1, 2); (3, 2); (7, 1); (15, 1) ] h.T.Metrics.buckets

let test_metrics_percentiles () =
  let m = T.Metrics.create () in
  (* 100 samples 1..100 into log2 buckets: percentile answers are the
     inclusive bucket upper bounds containing the nearest-rank sample. *)
  for v = 1 to 100 do
    T.Metrics.observe m "h" v
  done;
  let s = T.Metrics.snapshot m in
  (match T.Metrics.histogram_stats s "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    (* Sample 50 is in (31,63], sample 90 and 99 in (63,127]. *)
    Alcotest.(check (option int)) "p50" (Some 63) (T.Metrics.percentile h 50.0);
    Alcotest.(check (option int)) "p90" (Some 127) (T.Metrics.percentile h 90.0);
    Alcotest.(check (option int)) "p99" (Some 127) (T.Metrics.percentile h 99.0);
    (* Clamping: p=0 is the first occupied bucket, p=100 the last. *)
    Alcotest.(check (option int)) "p0 first bucket" (Some 1) (T.Metrics.percentile h 0.0);
    Alcotest.(check (option int)) "p100 last bucket" (Some 127)
      (T.Metrics.percentile h 100.0);
    checkb "out-of-range p raises" true
      (try ignore (T.Metrics.percentile h 101.0); false with Invalid_argument _ -> true));
  let e = T.Metrics.create () in
  T.Metrics.observe e "empty" 1;
  let se = T.Metrics.snapshot e in
  (* A single observation: every percentile lands in its bucket. *)
  match T.Metrics.histogram_stats se "empty" with
  | Some h -> Alcotest.(check (option int)) "single sample" (Some 1) (T.Metrics.percentile h 99.0)
  | None -> Alcotest.fail "single-sample histogram missing"

let test_metrics_json () =
  let m = T.Metrics.create () in
  T.Metrics.add m "c" 3;
  T.Metrics.add m "c" 4;
  T.Metrics.set_gauge m "g" 1.0;
  T.Metrics.set_gauge m "g" 9.0;
  T.Metrics.observe m "h" 2;
  T.Metrics.observe m "h" 5;
  let s = T.Metrics.snapshot m in
  Alcotest.(check (option int)) "counters add" (Some 7) (T.Metrics.counter_value s "c");
  Alcotest.(check (option (float 1e-9))) "gauge last write wins" (Some 9.0)
    (T.Metrics.gauge_value s "g");
  (match T.Metrics.histogram_stats s "h" with
  | Some h ->
    check "hist count" 2 h.T.Metrics.count;
    check "hist sum" 7 h.T.Metrics.sum;
    check "hist min" 2 h.T.Metrics.min_v;
    check "hist max" 5 h.T.Metrics.max_v
  | None -> Alcotest.fail "histogram missing");
  let json = T.Json.print (T.Metrics.to_json s) in
  checkb "json has counter" true (contains json "\"c\":{\"type\":\"counter\",\"value\":7}");
  checkb "json has buckets" true (contains json "\"buckets\":[")

(* A wall-clock stamp survives the JSON number rule (9 significant
   digits) to the microsecond. *)
let test_wall_clock_prints () =
  let reading = T.Clock.now T.Clock.wall in
  match T.Json.to_float_opt (T.Json.parse_exn (T.Json.print (T.Json.float reading))) with
  | Some back -> checkb "within 1e-6 s" true (Float.abs (back -. reading) <= 1e-6)
  | None -> Alcotest.fail "not a number"

(* ------------------------------- Events ---------------------------- *)

let test_event_json () =
  checks "message json" "{\"ev\":\"message\",\"round\":2,\"src\":0,\"dst\":1,\"words\":3}"
    (T.Json.print @@ E.to_json (E.Message { round = 2; src = 0; dst = 1; words = 3 }));
  checks "fault json"
    "{\"ev\":\"fault\",\"kind\":\"delay\",\"round\":1,\"node\":4,\"peer\":5,\"jitter\":2}"
    (T.Json.print @@ E.to_json (E.Fault { round = 1; node = 4; peer = 5; kind = E.Delay 2 }));
  checks "run_start json" "{\"ev\":\"run_start\",\"protocol\":\"bfs\",\"n\":8,\"bandwidth\":1}"
    (T.Json.print @@ E.to_json (E.Run_start { protocol = "bfs"; n = 8; bandwidth = 1 }));
  checks "span json" "{\"ev\":\"span_begin\",\"name\":\"phase \\\"x\\\"\",\"round\":0,\"wall_s\":0.5}"
    (T.Json.print @@ E.to_json (E.Span_begin { name = "phase \"x\""; round = 0; wall_s = 0.5 }))

let test_collector () =
  let sink, drain = E.collector () in
  sink (E.Run_end { round = 1 });
  sink (E.Run_end { round = 2 });
  check "collector" 2 (List.length (drain ()))

let test_pinned_relay_event_stream () =
  (* The exact fault-free stream for the relay on a 4-path: pins the
     event schema against silent drift. *)
  let sink, drain = E.collector () in
  let _, trace = Engine.run ~sink (unit_path 4) relay_protocol in
  let expected =
    [
      E.Run_start { protocol = "relay"; n = 4; bandwidth = 1 };
      E.Round_start { round = 0; active = 4 };
      E.Message { round = 0; src = 0; dst = 1; words = 1 };
      E.Round_start { round = 1; active = 1 };
      E.Message { round = 1; src = 1; dst = 2; words = 1 };
      E.Round_start { round = 2; active = 1 };
      E.Message { round = 2; src = 2; dst = 3; words = 1 };
      E.Round_start { round = 3; active = 1 };
      E.Run_end { round = 3 };
    ]
  in
  checkb "pinned stream" true (drain () = expected);
  check "trace rounds" 3 trace.Engine.rounds

let test_sink_does_not_perturb () =
  (* Attaching a sink must not change states or trace — fault-free and
     under a seeded adversary. *)
  let g = random_graph 42 in
  let base_t, base_tr = Tree.build g ~root:0 in
  let sink, _ = E.collector () in
  let t, tr = Tree.build ~sink g ~root:0 in
  checkb "fault-free: same tree" true (t = base_t);
  checkb "fault-free: same trace" true (tr = base_tr);
  let faults = Fault.make ~seed:9 ~drop:0.2 ~delay:2 ~duplicate:0.1 () in
  let base_t, base_tr = Tree.build ~faults g ~root:0 in
  let sink, _ = E.collector () in
  let t, tr = Tree.build ~faults ~sink g ~root:0 in
  checkb "faulty: same tree" true (t = base_t);
  checkb "faulty: same trace" true (tr = base_tr)

(* ------------------------------- Replay ---------------------------- *)

let fault_scenarios =
  [|
    None;
    Some (Fault.make ~seed:11 ~drop:0.15 ());
    Some (Fault.make ~seed:12 ~drop:0.1 ~delay:2 ~duplicate:0.1 ());
    Some (Fault.make ~seed:13 ~delay:3 ~duplicate:0.3 ());
  |]

(* Run one phase inside span markers the way `qcongest trace` does:
   [Span_begin]/[Span_end] stamped with the cumulative simulated round
   before and after it. Returns the phase's value, its trace and the
   round after it. *)
let phase sink name ~round f =
  sink (E.Span_begin { name; round; wall_s = 0.0 });
  let value, tr = f () in
  let after = round + tr.Engine.rounds in
  sink (E.Span_end { name; round = after; wall_s = 0.0 });
  (value, tr, after)

let prop_replay_reconstructs_trace =
  QCheck.Test.make ~name:"replay(events) = trace (Tree.build, 4 adversaries)" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, fi) ->
      let g = random_graph seed in
      let sink, drain = E.collector () in
      let faults = fault_scenarios.(fi) in
      let _, trace = Tree.build ?faults ~sink g ~root:0 in
      Replay.trace_of_events (drain ()) = trace)

let test_span_slice_bounds () =
  let msg round = E.Message { round; src = 0; dst = 1; words = 1 } in
  let b name = E.Span_begin { name; round = 0; wall_s = 0.0 } in
  let e name = E.Span_end { name; round = 0; wall_s = 0.0 } in
  let events = [ msg 0; b "a"; msg 1; b "b"; msg 2; e "a"; msg 3; e "b"; msg 4 ] in
  checkb "a: strictly inside its own markers" true
    (Replay.span_slice "a" events = [ msg 1; b "b"; msg 2 ]);
  checkb "b: overlapping markers of a kept" true
    (Replay.span_slice "b" events = [ msg 2; e "a"; msg 3 ]);
  checkb "never opened: empty" true (Replay.span_slice "c" events = []);
  checkb "never closed: to the end" true
    (Replay.span_slice "d" [ msg 0; b "d"; msg 1; msg 2 ] = [ msg 1; msg 2 ])

(* The per-phase conservation check of `qcongest trace`: under each
   adversary, every phase's slice of the shared stream replays to the
   trace that phase returned, and the whole stream to their sum. *)
let prop_phase_slices_replay =
  QCheck.Test.make ~name:"phase slice replays to its trace" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, fi) ->
      let g = random_graph seed in
      let faults = fault_scenarios.(fi) in
      let sink, drain = E.collector () in
      let tree, t1, round =
        phase sink "bfs-tree" ~round:0 (fun () -> Tree.build ?faults ~sink g ~root:0)
      in
      let _, t2, round =
        phase sink "convergecast" ~round (fun () ->
            Tree.convergecast ?faults ~sink g tree
              ~values:(Array.make (Graphlib.Wgraph.n g) 1)
              ~combine:( + ) ~size_words:(fun _ -> 1))
      in
      let _, t3, _ =
        phase sink "broadcast" ~round (fun () ->
            Tree.broadcast_tokens ?faults ~sink g tree ~tokens:[ tree.Tree.depth ]
              ~size_words:(fun _ -> 1))
      in
      let events = drain () in
      let replays name tr = Replay.trace_of_events (Replay.span_slice name events) = tr in
      replays "bfs-tree" t1 && replays "convergecast" t2 && replays "broadcast" t3
      && Replay.trace_of_events events
         = List.fold_left Engine.add_traces Engine.empty_trace [ t1; t2; t3 ])

let test_replay_strict_bandwidth () =
  (* Strict NIC drops never appear as Message events, yet both the
     violation and the drop must replay. *)
  let g = unit_path 3 in
  let faults = Fault.make ~strict_bandwidth:true () in
  let sink, drain = E.collector () in
  let _, trace = Engine.run ~faults ~sink g (burst_protocol [ (1, 1); (1, 1) ]) in
  check "one drop" 1 trace.Engine.dropped;
  check "one violation" 1 trace.Engine.congestion_violations;
  checkb "replay agrees" true (Replay.trace_of_events (drain ()) = trace)

let test_replay_crash () =
  let g = unit_path 6 in
  let faults = Fault.make ~seed:1 ~crashes:[ (3, 2) ] () in
  let sink, drain = E.collector () in
  let _, trace = Engine.run ~faults ~sink g relay_protocol in
  check "crash recorded" 1 trace.Engine.crashed;
  let events = drain () in
  check "one crash event" 1
    (List.length
       (List.filter (function E.Fault { kind = E.Crash; _ } -> true | _ -> false) events));
  checkb "replay agrees" true (Replay.trace_of_events events = trace)

let test_replay_bandwidth_from_run_start () =
  (* Violations depend on the bandwidth: the replayer must take it
     from the Run_start event, not assume 1. *)
  let g = unit_path 3 in
  let sink, drain = E.collector () in
  let _, trace = Engine.run ~bandwidth:2 ~sink g (burst_protocol [ (1, 1); (1, 1) ]) in
  check "no violation at bandwidth 2" 0 trace.Engine.congestion_violations;
  checkb "replay agrees" true (Replay.trace_of_events (drain ()) = trace)

(* ------------------------------ Export ----------------------------- *)

let test_artifacts_dir_resolution () =
  let tmp = Filename.concat (Filename.get_temp_dir_name ()) "qcongest_telemetry_test" in
  let nested = Filename.concat tmp "deep/nested/dir" in
  Unix.putenv "ARTIFACTS_DIR" nested;
  let d = T.Export.artifacts_dir () in
  checks "env override wins" nested d;
  checkb "created with parents" true (Sys.is_directory nested);
  let override = Filename.concat tmp "explicit" in
  checks "explicit override wins over env" override
    (T.Export.artifacts_dir ~override ());
  Unix.putenv "ARTIFACTS_DIR" "";
  checks "default" "bench_artifacts" (Filename.basename (T.Export.artifacts_dir ()))

let test_csv_exporters () =
  let events =
    [
      E.Run_start { protocol = "p"; n = 3; bandwidth = 1 };
      E.Round_start { round = 0; active = 3 };
      E.Message { round = 0; src = 0; dst = 1; words = 2 };
      E.Message { round = 0; src = 0; dst = 1; words = 1 };
      E.Round_start { round = 1; active = 1 };
      E.Message { round = 1; src = 1; dst = 2; words = 1 };
      E.Fault { round = 1; node = 1; peer = 2; kind = E.Drop_random };
      E.Run_end { round = 2 };
    ]
  in
  checks "timeline"
    "round,active,messages,words,delivers,faults\n0,3,2,3,0,0\n1,1,1,1,0,1\n"
    (T.Export.timeline_csv events);
  checks "heatmap" "src,dst,messages,words\n0,1,2,3\n1,2,1,1\n" (T.Export.heatmap_csv events)

let test_chrome_trace_structure () =
  (* Two phases of a real run, each bracketed by span markers the way
     `qcongest trace` brackets its phases. *)
  let sink, drain = E.collector () in
  let g = unit_path 5 in
  let tree, _, round = phase sink "bfs" ~round:0 (fun () -> Tree.build ~sink g ~root:0) in
  let _ =
    phase sink "convergecast" ~round (fun () ->
        Tree.convergecast ~sink g tree ~values:(Array.make 5 1) ~combine:( + )
          ~size_words:(fun _ -> 1))
  in
  let chrome = T.Json.print (T.Export.chrome_trace (drain ())) in
  checkb "has traceEvents" true (contains chrome "\"traceEvents\":[");
  checkb "has process metadata" true (contains chrome "\"process_name\"");
  check "two B" 2 (count_substring chrome "\"ph\":\"B\"");
  check "two E" 2 (count_substring chrome "\"ph\":\"E\"");
  checkb "has counter track" true (contains chrome "\"active_nodes\"");
  checkb "valid nesting of quotes" true (String.length chrome > 100)

(* Two engine segments of 2 and 1 rounds, each inside a phase span
   whose markers count cumulative rounds: the exporters draw the second
   segment after the first, on the markers' clock. *)
let test_exporters_one_clock () =
  let stream =
    [
      E.Span_begin { name = "a"; round = 0; wall_s = 0.0 };
      E.Run_start { protocol = "p"; n = 2; bandwidth = 1 };
      E.Round_start { round = 0; active = 2 };
      E.Message { round = 0; src = 0; dst = 1; words = 1 };
      E.Round_start { round = 1; active = 1 };
      E.Message { round = 1; src = 1; dst = 0; words = 1 };
      E.Round_start { round = 2; active = 1 };
      E.Run_end { round = 2 };
      E.Span_end { name = "a"; round = 2; wall_s = 0.0 };
      E.Span_begin { name = "b"; round = 2; wall_s = 0.0 };
      E.Run_start { protocol = "q"; n = 2; bandwidth = 1 };
      E.Round_start { round = 0; active = 2 };
      E.Message { round = 0; src = 0; dst = 1; words = 2 };
      E.Fault { round = 0; node = 0; peer = 1; kind = E.Delay 1 };
      E.Deliver { round = 1; src = 0; dst = 1 };
      E.Round_start { round = 1; active = 1 };
      E.Run_end { round = 1 };
      E.Span_end { name = "b"; round = 3; wall_s = 0.0 };
    ]
  in
  checks "timeline rows 0-3"
    "round,active,messages,words,delivers,faults\n0,2,1,1,0,0\n1,1,1,1,0,0\n2,3,1,2,0,1\n\
     3,1,0,0,1,0\n"
    (T.Export.timeline_csv stream);
  let events =
    match T.Json.member "traceEvents" (T.Export.chrome_trace stream) with
    | Some (T.Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let ts name =
    List.filter_map
      (fun e ->
        if T.Json.member "name" e = Some (T.Json.Str name) then
          Option.bind (T.Json.member "ts" e) T.Json.to_int_opt
        else None)
      events
  in
  Alcotest.(check (list int)) "run_start at each segment's start" [ 0; 2000 ] (ts "run_start");
  Alcotest.(check (list int)) "run_end at each segment's end" [ 2000; 3000 ] (ts "run_end");
  Alcotest.(check (list int)) "samples on the same clock" [ 0; 1000; 2000; 2000; 3000 ]
    (ts "active_nodes");
  Alcotest.(check (list int)) "span b around its segment" [ 2000; 3000 ] (ts "b");
  Alcotest.(check (list int)) "the delay where it happened" [ 2000 ] (ts "fault:delay");
  let markers = List.filter (function E.Span_begin _ | E.Span_end _ -> true | _ -> false) in
  checkb "markers outside segments kept" true (markers (T.Export.rebase stream) = markers stream)

let test_chrome_trace_unbalanced () =
  (* A stream that ends inside two open spans, plus one stray close:
     the exporter must stay balanced by construction (synthetic E
     closes, dropped stray) and surface each repair as a
     trace_warning instant. *)
  let events =
    [
      E.Span_begin { name = "outer"; round = 0; wall_s = 0.0 };
      E.Span_begin { name = "inner"; round = 1; wall_s = 0.1 };
      E.Span_end { name = "never-opened"; round = 2; wall_s = 0.2 };
      E.Run_end { round = 3 };
    ]
  in
  let chrome = T.Json.print (T.Export.chrome_trace events) in
  check "closes match opens" (count_substring chrome "\"ph\":\"B\"")
    (count_substring chrome "\"ph\":\"E\"");
  check "two synthetic closes" 2 (count_substring chrome "\"ph\":\"E\"");
  checkb "repairs surfaced" true (contains chrome "trace_warning");
  checkb "unclosed spans named" true (contains chrome "unbalanced_span_closed");
  checkb "stray close named" true (contains chrome "span_end_without_begin");
  (* A balanced stream must not warn. *)
  let ok =
    T.Json.print @@ T.Export.chrome_trace
      [
        E.Span_begin { name = "a"; round = 0; wall_s = 0.0 };
        E.Span_end { name = "a"; round = 1; wall_s = 0.5 };
      ]
  in
  checkb "no warnings when balanced" false (contains ok "trace_warning")

let test_prometheus_exposition () =
  let m = T.Metrics.create () in
  T.Metrics.add m "congest.rounds" 12;
  T.Metrics.set_gauge m "fit.slope" 1.5;
  List.iter (T.Metrics.observe m "sweep.job.wall_ms") [ 1; 2; 5; 9 ];
  let text = T.Export.prometheus (T.Metrics.snapshot m) in
  checkb "counter sample" true (contains text "qcongest_congest_rounds 12");
  checkb "counter type" true (contains text "# TYPE qcongest_congest_rounds counter");
  checkb "gauge sample" true (contains text "qcongest_fit_slope 1.5");
  checkb "histogram type" true
    (contains text "# TYPE qcongest_sweep_job_wall_ms histogram");
  checkb "+Inf bucket" true
    (contains text "qcongest_sweep_job_wall_ms_bucket{le=\"+Inf\"} 4");
  checkb "count" true (contains text "qcongest_sweep_job_wall_ms_count 4");
  checkb "sum" true (contains text "qcongest_sweep_job_wall_ms_sum 17");
  checkb "p50 gauge" true (contains text "qcongest_sweep_job_wall_ms_p50");
  checkb "p99 gauge" true (contains text "qcongest_sweep_job_wall_ms_p99");
  checkb "namespace override" true
    (contains (T.Export.prometheus ~namespace:"acme" (T.Metrics.snapshot m)) "acme_congest_rounds 12");
  (* Exposition must end with a newline (text-format requirement). *)
  checkb "trailing newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n')

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_replay_reconstructs_trace ]

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "int exactness boundary" `Quick test_json_int_exactness_boundary;
          Alcotest.test_case "wall clock stamp reprints" `Quick test_wall_clock_prints;
          QCheck_alcotest.to_alcotest prop_json_int_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_print_parse_fixed_point;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
          Alcotest.test_case "histogram log buckets" `Quick test_metrics_histogram_buckets;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "snapshot json" `Quick test_metrics_json;
        ] );
      ( "events",
        [
          Alcotest.test_case "event json" `Quick test_event_json;
          Alcotest.test_case "collector" `Quick test_collector;
          Alcotest.test_case "pinned relay stream" `Quick test_pinned_relay_event_stream;
          Alcotest.test_case "sink does not perturb" `Quick test_sink_does_not_perturb;
        ] );
      ( "replay",
        [
          Alcotest.test_case "strict bandwidth" `Quick test_replay_strict_bandwidth;
          Alcotest.test_case "crash" `Quick test_replay_crash;
          Alcotest.test_case "bandwidth from run_start" `Quick test_replay_bandwidth_from_run_start;
        ] );
      ( "export",
        [
          Alcotest.test_case "artifacts dir resolution" `Quick test_artifacts_dir_resolution;
          Alcotest.test_case "csv exporters" `Quick test_csv_exporters;
          Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace_structure;
          Alcotest.test_case "chrome trace unbalanced repair" `Quick test_chrome_trace_unbalanced;
          Alcotest.test_case "one round clock" `Quick test_exporters_one_clock;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
        ] );
      ( "phase spans",
        [
          Alcotest.test_case "slice bounds" `Quick test_span_slice_bounds;
          QCheck_alcotest.to_alcotest prop_phase_slices_replay;
        ] );
      ("properties", qsuite);
    ]
