(* Tests for lib/telemetry and its integration with the CONGEST
   engine: metrics registry, event streams, exporters, span profiling,
   and the replay property (event stream -> exact trace counters). *)

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
        match inbox with
        | [] -> (s, Engine.no_action)
        | { Engine.msg; _ } :: _ ->
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

let test_metrics_merge () =
  let m1 = T.Metrics.create () and m2 = T.Metrics.create () in
  T.Metrics.add m1 "c" 3;
  T.Metrics.add m2 "c" 4;
  T.Metrics.add m2 "only2" 1;
  T.Metrics.set_gauge m1 "g" 1.0;
  T.Metrics.set_gauge m2 "g" 9.0;
  T.Metrics.observe m1 "h" 2;
  T.Metrics.observe m2 "h" 5;
  let s = T.Metrics.merge (T.Metrics.snapshot m1) (T.Metrics.snapshot m2) in
  Alcotest.(check (option int)) "counters add" (Some 7) (T.Metrics.counter_value s "c");
  Alcotest.(check (option int)) "one-sided kept" (Some 1) (T.Metrics.counter_value s "only2");
  Alcotest.(check (option (float 1e-9))) "gauge right wins" (Some 9.0)
    (T.Metrics.gauge_value s "g");
  (match T.Metrics.histogram_stats s "h" with
  | Some h ->
    check "hist count" 2 h.T.Metrics.count;
    check "hist sum" 7 h.T.Metrics.sum;
    check "hist min" 2 h.T.Metrics.min_v;
    check "hist max" 5 h.T.Metrics.max_v
  | None -> Alcotest.fail "merged histogram missing");
  let json = T.Metrics.to_json s in
  checkb "json has counter" true (contains json "\"c\":{\"type\":\"counter\",\"value\":7}");
  checkb "json has buckets" true (contains json "\"buckets\":[")

(* ------------------------------- Events ---------------------------- *)

let test_event_json () =
  checks "message json" "{\"ev\":\"message\",\"round\":2,\"src\":0,\"dst\":1,\"words\":3}"
    (E.to_json (E.Message { round = 2; src = 0; dst = 1; words = 3 }));
  checks "fault json"
    "{\"ev\":\"fault\",\"kind\":\"delay\",\"round\":1,\"node\":4,\"peer\":5,\"jitter\":2}"
    (E.to_json (E.Fault { round = 1; node = 4; peer = 5; kind = E.Delay 2 }));
  checks "run_start json" "{\"ev\":\"run_start\",\"protocol\":\"bfs\",\"n\":8,\"bandwidth\":1}"
    (E.to_json (E.Run_start { protocol = "bfs"; n = 8; bandwidth = 1 }));
  checks "span json" "{\"ev\":\"span_begin\",\"name\":\"phase \\\"x\\\"\",\"round\":0,\"wall_s\":0.5}"
    (E.to_json (E.Span_begin { name = "phase \"x\""; round = 0; wall_s = 0.5 }))

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

let prop_replay_reconstructs_trace =
  QCheck.Test.make ~name:"replay(events) = trace (Tree.build, 4 adversaries)" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, fi) ->
      let g = random_graph seed in
      let sink, drain = E.collector () in
      let faults = fault_scenarios.(fi) in
      let _, trace = Tree.build ?faults ~sink g ~root:0 in
      Replay.trace_of_events (drain ()) = trace)

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

(* ------------------------------ Spans ------------------------------ *)

let test_runner_spans_and_clock () =
  let clock, advance = T.Clock.manual () in
  let sink, drain = E.collector () in
  let r = Runner.create ~clock ~sink () in
  let tr rounds = { Engine.empty_trace with Engine.rounds; messages = 1 } in
  let v =
    Runner.time_phase r "setup" (fun () ->
        advance 0.25;
        (1, tr 5))
  in
  check "value through" 1 v;
  let _ =
    Runner.time_phase r "search" (fun () ->
        advance 0.5;
        (2, tr 7))
  in
  Alcotest.(check (float 1e-9)) "wall total" 0.75 (Runner.wall_seconds r);
  (match Runner.spans r with
  | [ ("setup", t1, w1); ("search", t2, w2) ] ->
    check "setup rounds" 5 t1.Engine.rounds;
    check "search rounds" 7 t2.Engine.rounds;
    Alcotest.(check (float 1e-9)) "setup wall" 0.25 w1;
    Alcotest.(check (float 1e-9)) "search wall" 0.5 w2
  | _ -> Alcotest.fail "unexpected spans");
  let expected_spans =
    [
      E.Span_begin { name = "setup"; round = 0; wall_s = 0.0 };
      E.Span_end { name = "setup"; round = 5; wall_s = 0.25 };
      E.Span_begin { name = "search"; round = 5; wall_s = 0.25 };
      E.Span_end { name = "search"; round = 12; wall_s = 0.75 };
    ]
  in
  checkb "span events with cumulative rounds" true (drain () = expected_spans);
  let json = Runner.to_json r in
  checkb "json carries wall_s" true (contains json "\"wall_s\":0.25")

let test_runner_export_metrics () =
  let r = Runner.create ~clock:(T.Clock.fixed 0.0) () in
  Runner.record r "a" { Engine.empty_trace with Engine.rounds = 5; messages = 2; dropped = 1 };
  Runner.record r "b" { Engine.empty_trace with Engine.rounds = 7; messages = 3 };
  let m = T.Metrics.create () in
  Runner.export_metrics r m;
  let s = T.Metrics.snapshot m in
  Alcotest.(check (option int)) "total rounds" (Some 12) (T.Metrics.counter_value s "congest.rounds");
  Alcotest.(check (option int)) "total messages" (Some 5)
    (T.Metrics.counter_value s "congest.messages");
  Alcotest.(check (option int)) "dropped" (Some 1) (T.Metrics.counter_value s "congest.dropped");
  Alcotest.(check (option int)) "phase rounds" (Some 5)
    (T.Metrics.counter_value s "congest.phase.a.rounds");
  Alcotest.(check (option int)) "phase rounds b" (Some 7)
    (T.Metrics.counter_value s "congest.phase.b.rounds")

(* ----------------------- qsim / dqo integration --------------------- *)

let test_qsim_search_metrics () =
  let rng = Util.Rng.create ~seed:5 in
  let m = T.Metrics.create () in
  let values = Array.init 64 (fun i -> (i * 37) mod 101) in
  let r = Qsim.Search.maximum ~rng ~n:64 ~value:(fun i -> values.(i)) ~compare ~metrics:m () in
  let s = T.Metrics.snapshot m in
  (match T.Metrics.histogram_stats s "qsim.optimum.oracle_calls" with
  | Some h ->
    check "one optimum search recorded" 1 h.T.Metrics.count;
    check "histogram sum = measured calls" r.Qsim.Search.oracle_calls h.T.Metrics.sum
  | None -> Alcotest.fail "optimum histogram missing");
  (match T.Metrics.histogram_stats s "qsim.bbht.oracle_calls" with
  | Some h -> checkb "inner bbht rounds recorded" true (h.T.Metrics.count >= 1)
  | None -> Alcotest.fail "bbht histogram missing");
  Alcotest.(check (option int)) "search counter" (Some 1)
    (T.Metrics.counter_value s "qsim.optimum.searches")

let test_dqo_cost_export () =
  let c = { Dqo.Cost.setup_rounds = 3; eval_rounds = 4 } in
  let l = Dqo.Cost.charge_measurement (Dqo.Cost.charge_iterations (Dqo.Cost.with_init 10) c 2) c in
  let m = T.Metrics.create () in
  Dqo.Cost.export l m;
  let s = T.Metrics.snapshot m in
  Alcotest.(check (option int)) "init" (Some 10) (T.Metrics.counter_value s "dqo.init_rounds");
  Alcotest.(check (option int)) "iterations" (Some 2)
    (T.Metrics.counter_value s "dqo.grover_iterations");
  Alcotest.(check (option int)) "measurements" (Some 1)
    (T.Metrics.counter_value s "dqo.measurements");
  (* 2 iterations × 2(3+4) + 1 measurement × (3+4) = 35. *)
  Alcotest.(check (option int)) "search rounds" (Some 35)
    (T.Metrics.counter_value s "dqo.search_rounds");
  Alcotest.(check (option int)) "total" (Some 45) (T.Metrics.counter_value s "dqo.total_rounds")

let test_unified_snapshot () =
  (* The point of the registry: congest + qsim + dqo accounting merged
     into one snapshot. *)
  let r = Runner.create ~clock:(T.Clock.fixed 0.0) () in
  Runner.record r "bfs" { Engine.empty_trace with Engine.rounds = 9 };
  let m = T.Metrics.create () in
  Runner.export_metrics r m;
  Dqo.Cost.export (Dqo.Cost.with_init 4) m;
  let rng = Util.Rng.create ~seed:1 in
  ignore (Qsim.Search.maximum ~rng ~n:16 ~value:(fun i -> i) ~compare ~metrics:m ());
  let s = T.Metrics.snapshot m in
  let has prefix = List.exists (fun n -> String.length n >= String.length prefix
    && String.sub n 0 (String.length prefix) = prefix) (T.Metrics.names s) in
  checkb "congest present" true (has "congest.");
  checkb "dqo present" true (has "dqo.");
  checkb "qsim present" true (has "qsim.")

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
  let sink, drain = E.collector () in
  let clock, advance = T.Clock.manual () in
  let r = Runner.create ~clock ~sink () in
  let g = unit_path 5 in
  let _ =
    Runner.time_phase r "bfs" (fun () ->
        advance 0.1;
        let t, tr = Tree.build ~sink g ~root:0 in
        ((t : Tree.t), tr))
  in
  let chrome = T.Export.chrome_trace (drain ()) in
  checkb "has traceEvents" true (contains chrome "\"traceEvents\":[");
  checkb "has process metadata" true (contains chrome "\"process_name\"");
  check "one B" 1 (count_substring chrome "\"ph\":\"B\"");
  check "one E" 1 (count_substring chrome "\"ph\":\"E\"");
  checkb "has counter track" true (contains chrome "\"active_nodes\"");
  checkb "valid nesting of quotes" true (String.length chrome > 100)

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
  let chrome = T.Export.chrome_trace events in
  check "closes match opens" (count_substring chrome "\"ph\":\"B\"")
    (count_substring chrome "\"ph\":\"E\"");
  check "two synthetic closes" 2 (count_substring chrome "\"ph\":\"E\"");
  checkb "repairs surfaced" true (contains chrome "trace_warning");
  checkb "unclosed spans named" true (contains chrome "unbalanced_span_closed");
  checkb "stray close named" true (contains chrome "span_end_without_begin");
  (* A balanced stream must not warn. *)
  let ok =
    T.Export.chrome_trace
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
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
          Alcotest.test_case "histogram log buckets" `Quick test_metrics_histogram_buckets;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "merge and json" `Quick test_metrics_merge;
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
      ( "spans",
        [
          Alcotest.test_case "runner spans + manual clock" `Quick test_runner_spans_and_clock;
          Alcotest.test_case "export metrics" `Quick test_runner_export_metrics;
        ] );
      ( "integration",
        [
          Alcotest.test_case "qsim search histograms" `Quick test_qsim_search_metrics;
          Alcotest.test_case "dqo ledger export" `Quick test_dqo_cost_export;
          Alcotest.test_case "unified snapshot" `Quick test_unified_snapshot;
        ] );
      ( "export",
        [
          Alcotest.test_case "artifacts dir resolution" `Quick test_artifacts_dir_resolution;
          Alcotest.test_case "csv exporters" `Quick test_csv_exporters;
          Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace_structure;
          Alcotest.test_case "chrome trace unbalanced repair" `Quick test_chrome_trace_unbalanced;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
        ] );
      ("properties", qsuite);
    ]
