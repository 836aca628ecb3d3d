(* Tests for lib/congest: the synchronous engine, its accounting, and
   the spanning-tree primitives. *)

open Congest

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let unit_path n =
  let rng = Util.Rng.create ~seed:0 in
  Graphlib.Gen.path ~n ~weighting:Graphlib.Gen.Unit ~rng

let random_graph seed =
  let rng = Util.Rng.create ~seed in
  let n = 3 + Util.Rng.int rng 30 in
  Graphlib.Gen.gnp_connected ~n ~p:0.15 ~weighting:(Graphlib.Gen.Uniform { max_w = 5 }) ~rng

(* ------------------------------ Engine ---------------------------- *)

(* A relay protocol: node 0 sends a counter that each node increments
   and forwards along the path; exercises delivery timing. *)
type relay = { got : int option }

let relay_protocol : (relay, int) Engine.protocol =
  {
    name = "relay";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Node_view.id = 0 then ({ got = Some 0 }, Engine.send [ (1, 0) ])
        else ({ got = None }, Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        if Engine.Inbox.length inbox = 0 then (s, Engine.no_action)
        else
          let msg = Engine.Inbox.msg inbox 0 in
          let me = view.Node_view.id in
          let next = me + 1 in
          if next < view.Node_view.n then ({ got = Some (msg + 1) }, Engine.send [ (next, msg + 1) ])
          else ({ got = Some (msg + 1) }, Engine.no_action));
  }

let test_engine_relay () =
  let g = unit_path 6 in
  let states, trace = Engine.run g relay_protocol in
  Alcotest.(check (option int)) "last got" (Some 5) states.(5).got;
  check "rounds" 5 trace.Engine.rounds;
  check "messages" 5 trace.Engine.messages;
  check "max load" 1 trace.Engine.max_edge_load;
  check "violations" 0 trace.Engine.congestion_violations

let test_engine_wake_fast_forward () =
  (* A node that sleeps 1000 rounds and then sends: the engine must
     fast-forward, and rounds must reflect the late send. *)
  let g = unit_path 2 in
  let proto : (unit, int) Engine.protocol =
    {
      name = "sleeper";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then ((), Engine.wake 1000) else ((), Engine.no_action));
      on_round =
        (fun view ~round s ~inbox:_ ->
          if view.Node_view.id = 0 && round = 1000 then (s, Engine.send [ (1, 7) ])
          else (s, Engine.no_action));
    }
  in
  let _, trace = Engine.run g proto in
  check "rounds include sleep" 1001 trace.Engine.rounds;
  checkb "few activations" true (trace.Engine.activations < 10)

let test_engine_non_neighbor () =
  let g = unit_path 3 in
  let proto : (unit, int) Engine.protocol =
    {
      name = "bad";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then ((), Engine.send [ (2, 1) ]) else ((), Engine.no_action));
      on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
    }
  in
  checkb "raises" true
    (try
       ignore (Engine.run g proto);
       false
     with Invalid_argument _ -> true)

let test_engine_handler_exception () =
  (* A raising handler escapes [Engine.run] unchanged. *)
  let boom : (unit, int) Engine.protocol =
    {
      name = "boom";
      size_words = (fun _ -> 1);
      init = (fun _ -> ((), Engine.act ~wakes:[ 1 ] ()));
      on_round =
        (fun view ~round:_ s ~inbox:_ ->
          if view.Node_view.id = 5 then failwith "boom-node-5";
          (s, Engine.no_action));
    }
  in
  checkb "handler exception propagates" true
    (match Engine.run (unit_path 8) boom with
    | _ -> false
    | exception Failure m -> m = "boom-node-5")

let test_engine_bandwidth_violation () =
  (* Two messages on one edge in one round at bandwidth 1. *)
  let g = unit_path 2 in
  let proto : (unit, int) Engine.protocol =
    {
      name = "burst";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then ((), Engine.send [ (1, 1); (1, 2) ])
          else ((), Engine.no_action));
      on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
    }
  in
  let _, trace = Engine.run g proto in
  check "violations" 1 trace.Engine.congestion_violations;
  check "max load" 2 trace.Engine.max_edge_load;
  let _, trace2 = Engine.run ~bandwidth:2 g proto in
  check "ok at bandwidth 2" 0 trace2.Engine.congestion_violations

let test_engine_round_limit () =
  let g = unit_path 2 in
  (* Ping-pong forever. *)
  let proto : (unit, int) Engine.protocol =
    {
      name = "pingpong";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then ((), Engine.send [ (1, 0) ]) else ((), Engine.no_action));
      on_round =
        (fun _ ~round:_ s ~inbox ->
          if Engine.Inbox.length inbox = 0 then (s, Engine.no_action)
          else (s, Engine.send [ (Engine.Inbox.src inbox 0, 0) ]));
    }
  in
  (* The structured payload makes watchdog failures diagnosable. *)
  (match Engine.run ~max_rounds:50 g proto with
  | _ -> Alcotest.fail "limit not enforced"
  | exception Engine.Round_limit_exceeded info ->
    Alcotest.(check string) "protocol name" "pingpong" info.Engine.protocol;
    check "round reached" 51 info.Engine.round_reached;
    checkb "partial trace has traffic" true (info.Engine.partial.Engine.messages >= 50);
    check "partial rounds at abort" 51 info.Engine.partial.Engine.rounds)

let test_trace_arithmetic () =
  let a =
    { Engine.rounds = 3; messages = 5; words = 6; max_edge_load = 2; congestion_violations = 1;
      activations = 7; dropped = 2; delayed = 1; duplicated = 1; crashed = 1 }
  in
  let b =
    { Engine.empty_trace with
      Engine.rounds = 4; messages = 1; words = 1; max_edge_load = 3; congestion_violations = 0;
      activations = 2; dropped = 1; crashed = 2 }
  in
  let c = Engine.add_traces a b in
  check "rounds add" 7 c.Engine.rounds;
  check "messages add" 6 c.Engine.messages;
  check "load max" 3 c.Engine.max_edge_load;
  check "violations add" 1 c.Engine.congestion_violations;
  check "dropped add" 3 c.Engine.dropped;
  check "delayed add" 1 c.Engine.delayed;
  check "duplicated add" 1 c.Engine.duplicated;
  (* A node crashed in one phase stays crashed in the next: max. *)
  check "crashed max" 2 c.Engine.crashed

let test_trace_to_json () =
  let t =
    { Engine.empty_trace with
      Engine.rounds = 3; messages = 5; words = 6; max_edge_load = 2; dropped = 4; crashed = 1 }
  in
  Alcotest.(check string) "json"
    "{\"rounds\":3,\"messages\":5,\"words\":6,\"max_edge_load\":2,\"congestion_violations\":0,\
     \"activations\":0,\"dropped\":4,\"delayed\":0,\"duplicated\":0,\"crashed\":1}"
    (Telemetry.Json.print (Engine.trace_to_json t))

let test_engine_on_message_hook () =
  let g = unit_path 4 in
  let seen = ref [] in
  let hook ~round ~src ~dst ~words = seen := (round, src, dst, words) :: !seen in
  let _, _ = Engine.run ~sink:(Telemetry.Events.of_on_message hook) g relay_protocol in
  (* Relay sends 0->1 at round 0, 1->2 at round 1, 2->3 at round 2. *)
  checkb "hook saw every message" true
    (List.rev !seen = [ (0, 0, 1, 1); (1, 1, 2, 1); (2, 2, 3, 1) ])

let test_engine_deterministic () =
  (* Same protocol, same graph: identical trace and states. *)
  let g = unit_path 9 in
  let run () = Engine.run g relay_protocol in
  let s1, t1 = run () and s2, t2 = run () in
  checkb "traces equal" true (t1 = t2);
  checkb "states equal" true (s1 = s2)

(* A one-shot burst: node 0 sends [sends] in round 0, everyone else is
   inert. Used to pin the congestion-violation semantics. *)
let burst_protocol sends : (unit, int) Engine.protocol =
  {
    name = "burst";
    size_words = (fun m -> m);
    init =
      (fun view -> if view.Node_view.id = 0 then ((), Engine.send sends) else ((), Engine.no_action));
    on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
  }

let test_congestion_once_per_edge_round () =
  (* Regression: one overloaded edge-round is ONE violation, however
     the overload accumulates. *)
  let g = unit_path 3 in
  (* Three small messages on edge 0->1 at bandwidth 1. *)
  let _, t = Engine.run g (burst_protocol [ (1, 1); (1, 1); (1, 1) ]) in
  check "many small msgs: one violation" 1 t.Engine.congestion_violations;
  check "load 3" 3 t.Engine.max_edge_load;
  (* One big message: also one violation. *)
  let _, t = Engine.run g (burst_protocol [ (1, 3) ]) in
  check "one big msg: one violation" 1 t.Engine.congestion_violations;
  (* Two distinct overloaded edges in one round: two violations. *)
  let g4 = unit_path 2 in
  ignore g4;
  let star : (unit, int) Engine.protocol =
    {
      name = "star-burst";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 1 then ((), Engine.send [ (0, 1); (0, 1); (2, 1); (2, 1) ])
          else ((), Engine.no_action));
      on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
    }
  in
  let _, t = Engine.run g star in
  check "two edges: two violations" 2 t.Engine.congestion_violations;
  (* Same edge overloaded in two different rounds: two violations. *)
  let repeat : (unit, int) Engine.protocol =
    {
      name = "repeat-burst";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then
            ((), Engine.act ~sends:[ (1, 1); (1, 1) ] ~wakes:[ 3 ] ())
          else ((), Engine.no_action));
      on_round =
        (fun view ~round s ~inbox:_ ->
          if view.Node_view.id = 0 && round = 3 then (s, Engine.send [ (1, 1); (1, 1) ])
          else (s, Engine.no_action));
    }
  in
  let _, t = Engine.run g repeat in
  check "two rounds: two violations" 2 t.Engine.congestion_violations

let test_inbox_view () =
  (* The one constructor outside the engine keeps the envelopes' order,
     every accessor agrees with the fields and the fold, and an index
     outside [0, length) is refused. *)
  let envs =
    [
      { Engine.src = 2; w = 5; msg = "a" };
      { src = 2; w = 5; msg = "b" };
      { src = 7; w = 1; msg = "c" };
    ]
  in
  let ib = Engine.Inbox.of_envelopes envs in
  check "length" 3 (Engine.Inbox.length ib);
  Alcotest.(check (list (triple int int string)))
    "accessors" [ (2, 5, "a"); (2, 5, "b"); (7, 1, "c") ]
    (List.init 3 (fun i ->
         (Engine.Inbox.src ib i, Engine.Inbox.weight ib i, Engine.Inbox.msg ib i)));
  Alcotest.(check (list (triple int int string)))
    "fields" [ (2, 5, "a"); (2, 5, "b"); (7, 1, "c") ]
    (let { Engine.Inbox.length; src; weight; slot; store } = ib in
     List.init length (fun i -> (src.(i), weight.(i), store.(slot.(i)))));
  Alcotest.(check (list (triple int int string)))
    "fold" [ (2, 5, "a"); (2, 5, "b"); (7, 1, "c") ]
    (List.rev (Engine.Inbox.fold (fun acc ~src ~w m -> (src, w, m) :: acc) [] ib));
  List.iter
    (fun i ->
      checkb (Printf.sprintf "index %d refused" i) true
        (match Engine.Inbox.msg ib i with _ -> false | exception Invalid_argument _ -> true))
    [ -1; 3 ];
  check "empty" 0 (Engine.Inbox.length (Engine.Inbox.of_envelopes []))

let test_wake_dedup () =
  (* A node scheduled for round 5 from two different earlier rounds
     (and twice within one action) must activate exactly once. *)
  let g = unit_path 2 in
  let fired = ref 0 in
  let proto : (unit, int) Engine.protocol =
    {
      name = "dedup-wakes";
      size_words = (fun _ -> 1);
      init =
        (fun view ->
          if view.Node_view.id = 0 then ((), Engine.act ~wakes:[ 2; 5; 5 ] ())
          else ((), Engine.no_action));
      on_round =
        (fun view ~round s ~inbox:_ ->
          if view.Node_view.id = 0 then begin
            if round = 5 then incr fired;
            if round = 2 then (s, Engine.wake 5) else (s, Engine.no_action)
          end
          else (s, Engine.no_action));
    }
  in
  let _, trace = Engine.run g proto in
  check "round-5 handler ran once" 1 !fired;
  (* init (2 nodes) + wake at round 2 + wake at round 5 *)
  check "activations not double-counted" 4 trace.Engine.activations

let test_silent_run_allocation () =
  (* The bandwidth ledger is scratch sized by the longest CSR row, not
     by the arc count: a run that never sends allocates about as much
     on the complete graph (16,256 arcs) as on the path (254 arcs). *)
  let n = 128 in
  let silent : (unit, int) Engine.protocol =
    {
      name = "silent";
      size_words = (fun _ -> 1);
      init = (fun _ -> ((), Engine.no_action));
      on_round = (fun _ ~round:_ s ~inbox:_ -> (s, Engine.no_action));
    }
  in
  let allocated () =
    (* A minor collection first: the runtime folds its counts into the
       counters only at collections. *)
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let words g =
    let before = allocated () in
    ignore (Sys.opaque_identity (Engine.run g silent));
    allocated () -. before
  in
  let rng = Util.Rng.create ~seed:0 in
  let complete = words (Graphlib.Gen.complete ~n ~weighting:Graphlib.Gen.Unit ~rng) in
  let path = words (unit_path n) in
  checkb
    (Printf.sprintf "complete %.0f words <= path %.0f words + 4n" complete path)
    true
    (complete <= path +. float_of_int (4 * n))

(* ------------------------------ Faults ----------------------------- *)

let test_faults_none_is_identity () =
  (* The benign adversary produces the exact fault-free trace/states. *)
  let g = unit_path 9 in
  let s0, t0 = Engine.run g relay_protocol in
  let s1, t1 = Engine.run ~faults:Fault.none g relay_protocol in
  checkb "states equal" true (s0 = s1);
  checkb "traces equal" true (t0 = t1);
  check "no drops" 0 t1.Engine.dropped

(* Pinned fault-free BFS traces: these exact values were produced by
   the engine before the fault layer existed; any drift on the default
   path is a regression. *)
let test_pinned_fault_free_traces () =
  let expect name g ~rounds ~messages ~max_edge_load ~activations =
    let _, tr = Tree.build g ~root:0 in
    let pinned =
      { Engine.empty_trace with
        Engine.rounds; messages; words = messages; max_edge_load; activations }
    in
    Alcotest.(check bool) (name ^ " pinned trace") true (tr = pinned)
  in
  expect "path8"
    (Graphlib.Gen.path ~n:8 ~weighting:Graphlib.Gen.Unit ~rng:(Util.Rng.create ~seed:0))
    ~rounds:22 ~messages:28 ~max_edge_load:1 ~activations:52;
  expect "gnp20"
    (Graphlib.Gen.gnp_connected ~n:20 ~p:0.2
       ~weighting:(Graphlib.Gen.Uniform { max_w = 5 })
       ~rng:(Util.Rng.create ~seed:7))
    ~rounds:13 ~messages:138 ~max_edge_load:1 ~activations:142;
  expect "cliques"
    (Graphlib.Gen.cliques_cycle ~cliques:4 ~clique_size:5 ~weighting:Graphlib.Gen.Unit
       ~rng:(Util.Rng.create ~seed:3))
    ~rounds:13 ~messages:126 ~max_edge_load:1 ~activations:131

let test_fault_drop_all () =
  let g = unit_path 6 in
  let faults = Fault.make ~seed:1 ~drop:1.0 () in
  let states, trace = Engine.run ~faults g relay_protocol in
  (* Node 0's single message is lost; nothing propagates. *)
  check "one message attempted" 1 trace.Engine.messages;
  check "one message dropped" 1 trace.Engine.dropped;
  Alcotest.(check (option int)) "receiver got nothing" None states.(1).got;
  check "rounds still charge the send" 1 trace.Engine.rounds

let test_fault_delay () =
  let g = unit_path 6 in
  let faults = Fault.make ~seed:3 ~delay:4 () in
  let states, trace = Engine.run ~faults g relay_protocol in
  let _, base = Engine.run g relay_protocol in
  (* Delays never lose or corrupt messages: the relay still completes. *)
  Alcotest.(check (option int)) "relay completes" (Some 5) states.(5).got;
  check "nothing dropped" 0 trace.Engine.dropped;
  checkb "some messages delayed" true (trace.Engine.delayed > 0);
  checkb "rounds stretched" true (trace.Engine.rounds >= base.Engine.rounds)

let test_fault_duplicate () =
  let g = unit_path 6 in
  let faults = Fault.make ~seed:5 ~duplicate:1.0 () in
  let states, trace = Engine.run ~faults g relay_protocol in
  (* The relay reacts to the first copy only; results are unchanged. *)
  Alcotest.(check (option int)) "relay completes" (Some 5) states.(5).got;
  check "every message duplicated" trace.Engine.messages trace.Engine.duplicated;
  check "protocol sends unchanged" 5 trace.Engine.messages

let test_duplicates_do_not_refire_observers () =
  (* Regression: network-injected duplicate copies are invisible to a
     message hook and emit no extra [Message] event — only the
     protocol's own sends are observed, once each. The adversary is
     seeded, so the hooked and the collected run see the same network. *)
  let g = unit_path 6 in
  let faults = Fault.make ~seed:5 ~duplicate:1.0 () in
  let hook_calls = ref 0 in
  let _, _ =
    Engine.run
      ~sink:
        (Telemetry.Events.of_on_message (fun ~round:_ ~src:_ ~dst:_ ~words:_ ->
             incr hook_calls))
      ~faults g relay_protocol
  in
  let sink, drain = Telemetry.Events.collector () in
  let _, trace = Engine.run ~faults ~sink g relay_protocol in
  check "5 protocol sends" 5 trace.Engine.messages;
  check "every send duplicated" 5 trace.Engine.duplicated;
  check "hook fired once per send" 5 !hook_calls;
  let events = drain () in
  let count p = List.length (List.filter p events) in
  check "one Message event per send" 5
    (count (function Telemetry.Events.Message _ -> true | _ -> false));
  check "one Duplicate fault per send" 5
    (count (function
      | Telemetry.Events.Fault { kind = Telemetry.Events.Duplicate; _ } -> true
      | _ -> false));
  (* Both copies do get delivered — that is the calendar's business,
     not the observers'. *)
  check "two Deliver events per send" 10
    (count (function Telemetry.Events.Deliver _ -> true | _ -> false))

let test_fault_crash () =
  let g = unit_path 6 in
  let faults = Fault.make ~seed:1 ~crashes:[ (3, 2) ] () in
  let states, trace = Engine.run ~faults g relay_protocol in
  (* Node 3 fail-stops at round 2: the message sent to it in round 2
     (arriving at round 3) is lost and the wave dies. *)
  Alcotest.(check (option int)) "node 2 reached" (Some 2) states.(2).got;
  Alcotest.(check (option int)) "node 3 dead" None states.(3).got;
  Alcotest.(check (option int)) "node 5 never reached" None states.(5).got;
  check "crash recorded" 1 trace.Engine.crashed;
  check "message to crashed node lost" 1 trace.Engine.dropped

let test_fault_strict_bandwidth () =
  let g = unit_path 3 in
  let faults = Fault.make ~strict_bandwidth:true () in
  (* Two unit messages on one edge at bandwidth 1: the second is
     dropped at the sender's NIC instead of overloading the edge. *)
  let states, trace = Engine.run ~faults g (burst_protocol [ (1, 1); (1, 1) ]) in
  ignore states;
  check "violation recorded once" 1 trace.Engine.congestion_violations;
  check "excess dropped" 1 trace.Engine.dropped;
  check "load capped at bandwidth" 1 trace.Engine.max_edge_load;
  (* At bandwidth 2 both fit: nothing dropped. *)
  let _, t2 = Engine.run ~bandwidth:2 ~faults g (burst_protocol [ (1, 1); (1, 1) ]) in
  check "fits at bandwidth 2" 0 t2.Engine.dropped

let test_fault_deterministic () =
  let g = random_graph 11 in
  let faults = Fault.make ~seed:9 ~drop:0.2 ~delay:3 ~duplicate:0.1 () in
  let run () = Tree.build ~faults g ~root:0 in
  let s1, t1 = run () and s2, t2 = run () in
  checkb "same seed, same trace" true (t1 = t2);
  checkb "same seed, same states" true (s1 = s2);
  let s3, t3 =
    Tree.build ~faults:(Fault.make ~seed:10 ~drop:0.2 ~delay:3 ~duplicate:0.1 ()) g ~root:0
  in
  ignore s3;
  checkb "different seed, different schedule" true (t3 <> t1)

let test_fault_validation () =
  checkb "drop > 1 rejected" true
    (try ignore (Fault.make ~drop:1.5 ()); false with Invalid_argument _ -> true);
  checkb "negative delay rejected" true
    (try ignore (Fault.make ~delay:(-1) ()); false with Invalid_argument _ -> true);
  checkb "crash at round 0 rejected" true
    (try ignore (Fault.make ~crashes:[ (0, 0) ] ()); false with Invalid_argument _ -> true);
  checkb "benign detection" true (Fault.is_benign Fault.none);
  checkb "non-benign detection" false (Fault.is_benign (Fault.make ~drop:0.1 ()))

(* ----------------------------- Reliable ---------------------------- *)

let test_reliable_identity_on_perfect_network () =
  (* Wrapping costs acks but must not change the computed result. *)
  let g = unit_path 6 in
  let states, trace = Reliable.run g relay_protocol in
  Alcotest.(check (option int)) "relay result intact" (Some 5) states.(5).got;
  let _, base = Engine.run g relay_protocol in
  (* 5 data + 5 acks. *)
  check "ack overhead" (2 * base.Engine.messages) trace.Engine.messages;
  checkb "data words carry a header" true (trace.Engine.words > base.Engine.words)

let reliable_bfs_family name g =
  let base, base_trace = Tree.build g ~root:0 in
  let faults = Fault.make ~seed:42 ~drop:0.1 () in
  let t, tr = Tree.build ~faults g ~root:0 in
  Alcotest.(check bool) (name ^ ": levels match fault-free") true
    (t.Tree.level = base.Tree.level);
  Alcotest.(check bool) (name ^ ": depth matches") true (t.Tree.depth = base.Tree.depth);
  checkb (name ^ ": drops happened") true (tr.Engine.dropped > 0);
  checkb (name ^ ": overhead measured") true
    (tr.Engine.messages > base_trace.Engine.messages);
  (* Determinism for a fixed adversary seed. *)
  let t2, tr2 = Tree.build ~faults g ~root:0 in
  Alcotest.(check bool) (name ^ ": deterministic") true (t2 = t && tr2 = tr)

let test_reliable_bfs_under_drop () =
  reliable_bfs_family "path"
    (Graphlib.Gen.path ~n:10 ~weighting:Graphlib.Gen.Unit ~rng:(Util.Rng.create ~seed:0));
  reliable_bfs_family "gnp"
    (Graphlib.Gen.gnp_connected ~n:20 ~p:0.2
       ~weighting:(Graphlib.Gen.Uniform { max_w = 5 })
       ~rng:(Util.Rng.create ~seed:7));
  reliable_bfs_family "ring-of-cliques"
    (Graphlib.Gen.cliques_cycle ~cliques:4 ~clique_size:5 ~weighting:Graphlib.Gen.Unit
       ~rng:(Util.Rng.create ~seed:3));
  reliable_bfs_family "grid"
    (Graphlib.Gen.grid ~rows:4 ~cols:5 ~weighting:Graphlib.Gen.Unit
       ~rng:(Util.Rng.create ~seed:1))

let test_reliable_convergecast_under_chaos () =
  (* Drops + duplicates + jitter together: aggregation still exact. *)
  let g = random_graph 8 in
  let n = Graphlib.Wgraph.n g in
  let tree, _ = Tree.build g ~root:0 in
  let values = Array.init n (fun i -> i + 1) in
  let faults = Fault.make ~seed:13 ~drop:0.15 ~delay:2 ~duplicate:0.2 () in
  let total, trace =
    Tree.convergecast ~faults g tree ~values ~combine:( + ) ~size_words:(fun _ -> 1)
  in
  check "sum exact under chaos" (n * (n + 1) / 2) total;
  checkb "faults were active" true
    (trace.Engine.dropped > 0 || trace.Engine.delayed > 0 || trace.Engine.duplicated > 0)

let test_reliable_broadcast_under_drop () =
  let g = unit_path 8 in
  let tree, _ = Tree.build g ~root:0 in
  let tokens = [ 3; 1; 4; 1; 5 ] in
  let faults = Fault.make ~seed:21 ~drop:0.1 () in
  let per_node, _ = Tree.broadcast_tokens ~faults g tree ~tokens ~size_words:(fun _ -> 1) in
  (* Loss without reordering: every node still gets all tokens in
     order (retransmissions are sequence-numbered and deduplicated). *)
  Array.iter (fun l -> Alcotest.(check (list int)) "tokens delivered" tokens l) per_node

let test_reliable_gather_broadcast_under_drop () =
  let g = random_graph 4 in
  let n = Graphlib.Wgraph.n g in
  let tree, _ = Tree.build g ~root:0 in
  let items = Array.init n (fun i -> [ i mod 5; 99 ]) in
  let faults = Fault.make ~seed:31 ~drop:0.12 () in
  let collected, _ = Tree.gather_broadcast ~faults g tree ~items ~compare ~size_words:(fun _ -> 1) in
  let expected = List.sort_uniq compare (Array.to_list items |> List.concat) in
  Alcotest.(check (list int)) "gather exact under drop" expected collected

let test_reliable_gives_up_on_crashed_peer () =
  (* A crashed destination must not hang the network: retransmissions
     back off and eventually abandon the message. *)
  let g = unit_path 2 in
  let faults = Fault.make ~seed:2 ~crashes:[ (1, 1) ] () in
  let config = { Reliable.default_config with Reliable.max_retries = 3 } in
  let states, trace =
    Engine.run ~faults g (Reliable.wrap ~config relay_protocol)
  in
  check "crash recorded" 1 trace.Engine.crashed;
  check "sender abandoned the transfer" 1 (Reliable.given_up states.(0));
  (* 1 original + 3 retransmissions, all lost to the crash. *)
  check "retransmissions measured" 4 trace.Engine.messages;
  check "all lost" 4 trace.Engine.dropped

let test_reliable_retry_cap_structured () =
  (* An adversary that drops one edge forever: the retransmission cap
     turns an unbounded loop into a bounded, structured give-up. *)
  let g = unit_path 2 in
  let faults = Fault.make ~seed:4 ~drop:1.0 () in
  let config = { Reliable.default_config with Reliable.max_retries = 4 } in
  let states, trace = Engine.run ~faults g (Reliable.wrap ~config relay_protocol) in
  check "sender gave up" 1 (Reliable.given_up states.(0));
  (match Reliable.abandoned states.(0) with
  | [ gu ] ->
    check "destination" 1 gu.Reliable.gu_dst;
    check "sequence" 0 gu.Reliable.gu_seq;
    check "retries spent = cap" 4 gu.Reliable.gu_retries;
    checkb "give-up round recorded" true (gu.Reliable.gu_round > 0)
  | l -> Alcotest.fail (Printf.sprintf "expected one give-up, got %d" (List.length l)));
  (* 1 original + max_retries retransmissions, then silence. *)
  check "bounded retransmissions" 5 trace.Engine.messages;
  check "all dropped" 5 trace.Engine.dropped;
  checkb "terminates well before the round limit" true (trace.Engine.rounds < 200);
  (* The receiver never saw the payload — the failure is observable,
     not silent. *)
  Alcotest.(check (option int)) "payload lost" None (Reliable.inner states.(1)).got

(* ------------------------------- Tree ------------------------------ *)

let test_tree_structure () =
  let g = unit_path 8 in
  let tree, trace = Tree.build g ~root:0 in
  check "depth = ecc of root" 7 tree.Tree.depth;
  check "root parent" (-1) tree.Tree.parent.(0);
  for v = 1 to 7 do
    check "parent on path" (v - 1) tree.Tree.parent.(v);
    check "level" v tree.Tree.level.(v)
  done;
  checkb "rounds O(D)" true (trace.Engine.rounds <= (4 * 7) + 4);
  check "no violations" 0 trace.Engine.congestion_violations

let prop_tree_is_bfs =
  QCheck.Test.make ~name:"tree levels equal BFS distances" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let tree, _ = Tree.build g ~root:0 in
      let dist = Graphlib.Bfs.distances g ~src:0 in
      let ok = ref true in
      Array.iteri (fun v l -> if l <> dist.(v) then ok := false) tree.Tree.level;
      (* parent consistency: parent is one level up and adjacent *)
      Array.iteri
        (fun v p ->
          if v <> 0 then begin
            if tree.Tree.level.(v) <> tree.Tree.level.(p) + 1 then ok := false;
            if Graphlib.Wgraph.weight g v p = None then ok := false
          end)
        tree.Tree.parent;
      !ok)

let prop_children_match_parents =
  QCheck.Test.make ~name:"children arrays mirror parents" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let tree, _ = Tree.build g ~root:0 in
      let ok = ref true in
      Array.iteri
        (fun v children ->
          Array.iter (fun c -> if tree.Tree.parent.(c) <> v then ok := false) children)
        tree.Tree.children;
      let child_count = Array.fold_left (fun a c -> a + Array.length c) 0 tree.Tree.children in
      !ok && child_count = Graphlib.Wgraph.n g - 1)

let test_convergecast_sum () =
  let g = random_graph 5 in
  let n = Graphlib.Wgraph.n g in
  let tree, _ = Tree.build g ~root:0 in
  let values = Array.init n (fun i -> i * i) in
  let total, trace =
    Tree.convergecast g tree ~values ~combine:( + ) ~size_words:(fun _ -> 1)
  in
  check "sum" (Array.fold_left ( + ) 0 values) total;
  checkb "rounds <= depth+1" true (trace.Engine.rounds <= tree.Tree.depth + 1)

let test_convergecast_max () =
  let g = random_graph 6 in
  let n = Graphlib.Wgraph.n g in
  let tree, _ = Tree.build g ~root:0 in
  let values = Array.init n (fun i -> (i * 7) mod 13) in
  let m, _ = Tree.convergecast g tree ~values ~combine:max ~size_words:(fun _ -> 1) in
  check "max" (Array.fold_left max 0 values) m

let test_broadcast_pipelining () =
  let g = unit_path 10 in
  let tree, _ = Tree.build g ~root:0 in
  let tokens = List.init 20 (fun i -> i) in
  let per_node, trace = Tree.broadcast_tokens g tree ~tokens ~size_words:(fun _ -> 1) in
  Array.iteri
    (fun v l ->
      ignore v;
      Alcotest.(check (list int)) "all tokens in order" tokens l)
    per_node;
  (* Pipelined: depth + k, not depth * k. *)
  checkb "pipelined rounds" true (trace.Engine.rounds <= 9 + 20);
  check "load 1" 1 trace.Engine.max_edge_load;
  check "violations" 0 trace.Engine.congestion_violations

let test_upcast () =
  let g = unit_path 10 in
  let tree, _ = Tree.build g ~root:0 in
  let items = Array.init 10 (fun i -> [ i; (i + 1) mod 10; 42 ]) in
  let collected, trace = Tree.upcast g tree ~items ~compare ~size_words:(fun _ -> 1) in
  Alcotest.(check (list int)) "distinct sorted" (List.init 10 (fun i -> i) @ [ 42 ]) collected;
  (* 11 distinct items, depth 9: pipelining bound depth + k + slack. *)
  checkb "rounds bound" true (trace.Engine.rounds <= 9 + 11 + 2);
  check "violations" 0 trace.Engine.congestion_violations

let test_sync_trace_memo () =
  (* One count-and-announce per memo: the stored trace must equal a
     fresh sum convergecast of any one-word values followed by a
     one-token broadcast, and a memo asked about another tree must
     refuse. *)
  List.iter
    (fun seed ->
      let g = random_graph seed in
      let n = Graphlib.Wgraph.n g in
      let tree, _ = Tree.build g ~root:(seed mod n) in
      let memo = Tree.gather_memo g tree in
      let rng = Util.Rng.create ~seed in
      let fresh () =
        let values = Array.init n (fun _ -> Util.Rng.int rng 100) in
        let _, count = Tree.convergecast g tree ~values ~combine:( + ) ~size_words:(fun _ -> 1) in
        let _, announce =
          Tree.broadcast_tokens g tree ~tokens:[ Util.Rng.int rng 100 ] ~size_words:(fun _ -> 1)
        in
        Engine.add_traces count announce
      in
      let trace = Tree.sync_trace memo g tree in
      checkb "equals a fresh run" true (trace = fresh ());
      checkb "asked again" true (Tree.sync_trace memo g tree = fresh ());
      checkb "refuses another tree" true
        (match Tree.sync_trace memo g (fst (Tree.build g ~root:0)) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 1; 2; 3; 4; 5 ]

let prop_gather_broadcast_complete =
  QCheck.Test.make ~name:"gather_broadcast collects every distinct item" ~count:30
    QCheck.(pair (int_range 0 10_000) (list_of_size (Gen.int_range 0 30) (int_range 0 50)))
    (fun (seed, raw) ->
      let g = random_graph seed in
      let n = Graphlib.Wgraph.n g in
      let tree, _ = Tree.build g ~root:0 in
      let items = Array.make n [] in
      List.iteri (fun idx x -> items.(idx mod n) <- x :: items.(idx mod n)) raw;
      let collected, _ = Tree.gather_broadcast g tree ~items ~compare ~size_words:(fun _ -> 1) in
      collected = List.sort_uniq compare raw)

let prop_gather_memo_matches_fresh =
  (* A gather memo keys a fault-free gather-broadcast's trace by its
     holder multiset. On random connected graphs, random roots and
     random holder multisets (repeated and permuted, so lookups hit),
     the memo's trace must equal a fresh run's in every field, and so
     must fresh runs with other pairwise-distinct token values on the
     same holders: the key relies on that value-independence. A memo
     asked about an equal but other tree or graph must refuse. *)
  QCheck.Test.make ~name:"gather memo = fresh gather_broadcast trace" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Rng.create ~seed in
      let n = 2 + Util.Rng.int rng 30 in
      let weighting = Graphlib.Gen.Uniform { max_w = 5 } in
      let g =
        match seed mod 4 with
        | 0 -> Graphlib.Gen.gnp_connected ~n ~p:0.15 ~weighting ~rng
        | 1 -> Graphlib.Gen.random_tree ~n ~weighting ~rng
        | 2 -> Graphlib.Gen.cycle ~n:(max 3 n) ~weighting ~rng
        | _ -> Graphlib.Gen.grid ~rows:2 ~cols:(1 + (n / 2)) ~weighting ~rng
      in
      let n = Graphlib.Wgraph.n g in
      let root = Util.Rng.int rng n in
      let tree, _ = Tree.build g ~root in
      let memo = Tree.gather_memo g tree in
      let refuses g tree =
        match Tree.gather_trace memo g tree ~holders:[| root |] with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let distinct_tokens k =
        let seen = Hashtbl.create k in
        Array.init k (fun _ ->
            let rec fresh () =
              let x = Util.Rng.int rng 1_000_000 - 500_000 in
              if Hashtbl.mem seen x then fresh () else (Hashtbl.replace seen x (); x)
            in
            fresh ())
      in
      let fresh_trace holders =
        let tokens = distinct_tokens (Array.length holders) in
        let items = Array.make n [] in
        Array.iteri (fun i v -> items.(v) <- tokens.(i) :: items.(v)) holders;
        snd (Tree.gather_broadcast g tree ~items ~compare ~size_words:(fun _ -> 1))
      in
      let multisets =
        List.init 4 (fun _ ->
            let k = Util.Rng.int rng ((2 * n) + 1) in
            Array.init k (fun _ -> Util.Rng.int rng n))
      in
      refuses g (fst (Tree.build g ~root))
      && refuses (Graphlib.Wgraph.map_weights g ~f:(fun ~u:_ ~v:_ ~w -> w)) tree
      && List.for_all
           (fun holders ->
             let permuted = Array.copy holders in
             Util.Rng.shuffle rng permuted;
             let memo_trace = Tree.gather_trace memo g tree ~holders in
             fresh_trace holders = memo_trace
             && fresh_trace holders = memo_trace
             && Tree.gather_trace memo g tree ~holders:permuted = memo_trace)
           (multisets @ multisets))

(* ------------------------- Golden equivalence ---------------------- *)

(* The optimized Engine.run must be observationally indistinguishable
   from the seed loop kept in Engine_reference: same final states, same
   trace, same event stream (and hence the same Replay reconstruction),
   under every adversary class. *)

(* A protocol that exercises every engine feature at once: flooding
   over all neighbors (inbox merging, multi-edge rounds), duplicate and
   far wakes (calendar fast-forward), and deliberate same-edge double
   sends with mixed message sizes (bandwidth ledger, violations,
   strict-mode drops). *)
type exer = { level : int; hits : int }

let exerciser_protocol : (exer, int) Engine.protocol =
  {
    name = "exerciser";
    size_words = (fun m -> 1 + (abs m mod 2));
    init =
      (fun view ->
        let nbrs = Array.to_list (Array.map fst view.Node_view.neighbors) in
        if view.Node_view.id = 0 then
          ( { level = 0; hits = 0 },
            Engine.act ~sends:(List.map (fun v -> (v, 1)) nbrs) ~wakes:[ 3 ] () )
        else ({ level = -1; hits = 0 }, Engine.no_action));
    on_round =
      (fun view ~round s ~inbox ->
        let s = { s with hits = s.hits + Engine.Inbox.length inbox } in
        let best = Engine.Inbox.fold (fun acc ~src:_ ~w:_ m -> min acc m) max_int inbox in
        if s.level < 0 && best < max_int then
          (* First contact: adopt a level, flood it, schedule echoes
             (one duplicated — the engine dedups same-round wakes). *)
          let nbrs = Array.to_list (Array.map fst view.Node_view.neighbors) in
          ( { s with level = best },
            Engine.act
              ~sends:(List.map (fun v -> (v, best + 1)) nbrs)
              ~wakes:[ round + 2; round + 2; round + 5 ] () )
        else if
          Engine.Inbox.length inbox = 0 && Array.length view.Node_view.neighbors > 0 && s.hits < 6
        then
          (* Pure wake-up: hammer one edge twice in the same round to
             exercise the per-edge-round ledger and strict mode. *)
          let v = fst view.Node_view.neighbors.(0) in
          (s, Engine.send [ (v, round); (v, round + 1) ])
        else (s, Engine.no_action));
  }

let adversary_classes seed =
  [
    ("fault-free", None);
    ("drop", Some (Fault.make ~seed:(seed + 1) ~drop:0.2 ()));
    ("delay+dup", Some (Fault.make ~seed:(seed + 2) ~delay:3 ~duplicate:0.15 ()));
    ("strict-bw", Some (Fault.make ~seed:(seed + 3) ~strict_bandwidth:true ()));
    ("crash", Some (Fault.make ~seed:(seed + 4) ~drop:0.1 ~crashes:[ (1, 4); (2, 9) ] ()));
  ]

let engines_agree ?faults g proto =
  let sink1, drain1 = Telemetry.Events.collector () in
  let states1, trace1 = Engine.run ?faults ~sink:sink1 g proto in
  let sink2, drain2 = Telemetry.Events.collector () in
  let states2, trace2 = Engine_reference.run ?faults ~sink:sink2 g proto in
  let events1 = drain1 () and events2 = drain2 () in
  states1 = states2 && trace1 = trace2 && events1 = events2
  && Replay.trace_of_events events1 = trace1

(* BFS-level flood: every node fires once, to all neighbors, so the
   message count scales with m. On a dense ring of cliques this is the
   many-messages-per-round shape of `bench perf`'s engine-flood case. *)
let flood_protocol : (int, int) Engine.protocol =
  let to_all view lvl =
    Engine.send (Array.to_list (Array.map (fun (v, _) -> (v, lvl)) view.Node_view.neighbors))
  in
  {
    name = "flood";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Node_view.id = 0 then (0, to_all view 1) else (-1, Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        if s >= 0 || Engine.Inbox.length inbox = 0 then (s, Engine.no_action)
        else
          let lvl = Engine.Inbox.fold (fun acc ~src:_ ~w:_ m -> min acc m) max_int inbox in
          (lvl, to_all view (lvl + 1)));
  }

(* [flood_protocol] with each all-neighbor send list replaced by a
   one-message broadcast. The engine must deliver the same messages in
   the same order, so the states, trace and event stream are those of
   the send version. *)
let broadcast_flood_protocol : (int, int) Engine.protocol =
  {
    flood_protocol with
    init =
      (fun view ->
        if view.Node_view.id = 0 then (0, Engine.broadcast [ 1 ]) else (-1, Engine.no_action));
    on_round =
      (fun _ ~round:_ s ~inbox ->
        if s >= 0 || Engine.Inbox.length inbox = 0 then (s, Engine.no_action)
        else
          let lvl = Engine.Inbox.fold (fun acc ~src:_ ~w:_ m -> min acc m) max_int inbox in
          (lvl, Engine.broadcast [ lvl + 1 ]));
  }

let same_run ?faults g p q =
  let sink1, drain1 = Telemetry.Events.collector () in
  let r1 = Engine.run ?faults ~sink:sink1 g p in
  let sink2, drain2 = Telemetry.Events.collector () in
  let r2 = Engine.run ?faults ~sink:sink2 g q in
  r1 = r2 && drain1 () = drain2 ()

let test_engine_equals_reference_pinned () =
  (* Deterministic spot checks so a regression fails loudly before the
     property shrinks a counterexample: a path (linear relay) and a
     ring of 16 cliques of 16 nodes (a flood of about 3,900 messages,
     sent as lists and as broadcasts). *)
  let g = unit_path 8 in
  let cliques =
    Graphlib.Gen.cliques_cycle ~cliques:16 ~clique_size:16
      ~weighting:(Graphlib.Gen.Uniform { max_w = 8 })
      ~rng:(Util.Rng.create ~seed:2)
  in
  List.iter
    (fun (label, faults) ->
      checkb ("relay " ^ label) true (engines_agree ?faults g relay_protocol);
      checkb ("exerciser " ^ label) true (engines_agree ?faults g exerciser_protocol);
      checkb ("flood " ^ label) true (engines_agree ?faults cliques flood_protocol);
      checkb ("broadcast flood " ^ label) true
        (engines_agree ?faults cliques broadcast_flood_protocol);
      checkb ("broadcast flood = send flood " ^ label) true
        (same_run ?faults cliques flood_protocol broadcast_flood_protocol))
    (adversary_classes 77)

(* The exerciser's state cannot see inbox order. This protocol records
   every inbox it is handed, as (round, sender, payload) triples: each
   node sends two messages with distinct payloads to every neighbor for
   a few rounds, so delayed deliveries from different send rounds
   interleave and one sender's messages must keep their order. *)
let recorder_protocol : ((int * int * int) list, int) Engine.protocol =
  let flood view ~round =
    let id = view.Node_view.id in
    Engine.send
      (List.concat_map
         (fun (v, _) -> [ (v, (1000 * round) + id); (v, (1000 * round) + id + 500) ])
         (Array.to_list view.Node_view.neighbors))
  in
  {
    name = "recorder";
    size_words = (fun _ -> 1);
    init = (fun view -> ([], { (flood view ~round:0) with Engine.wakes = [ 2 ] }));
    on_round =
      (fun view ~round s ~inbox ->
        let s = Engine.Inbox.fold (fun s ~src ~w:_ msg -> (round, src, msg) :: s) s inbox in
        if round <= 4 then (s, flood view ~round) else (s, Engine.no_action));
  }

let prop_inbox_order_equals_reference =
  QCheck.Test.make ~name:"inbox order = reference, sorted by sender" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let sorted_by_sender log =
        (* The log is newest first, so within one round the senders
           must not increase. *)
        let rec ok = function
          | (r1, s1, _) :: ((r2, s2, _) :: _ as rest) -> (r1 <> r2 || s1 >= s2) && ok rest
          | _ -> true
        in
        ok log
      in
      List.for_all
        (fun (_, faults) ->
          engines_agree ?faults g recorder_protocol
          && Array.for_all sorted_by_sender (fst (Engine.run ?faults g recorder_protocol)))
        (adversary_classes seed))

(* A protocol drawn from [seed] that mixes every action field: each
   activation before round 6 sends to up to two (possibly equal)
   neighbors, broadcasts up to two messages of one or two words, and
   may ask for a wake-up, all chosen by a generator seeded with
   (seed, node, round). Its state logs every envelope the node
   received as (round, sender, weight, payload), newest first, so equal
   states mean equal inboxes in equal order. *)
let mixed_protocol seed : ((int * int * int * int) list, int) Engine.protocol =
  let act view ~round =
    let nbrs = view.Node_view.neighbors in
    let deg = Array.length nbrs in
    if round >= 6 || deg = 0 then Engine.no_action
    else begin
      let rng = Util.Rng.create ~seed:((seed * 7919) + (view.Node_view.id * 131) + round) in
      let sends =
        List.init (Util.Rng.int rng 3) (fun _ ->
            let v = fst nbrs.(Util.Rng.int rng deg) in
            (v, Util.Rng.int rng 1000))
      in
      let broadcast = List.init (Util.Rng.int rng 3) (fun _ -> Util.Rng.int rng 1000) in
      let wakes = if Util.Rng.int rng 3 = 0 then [ round + 1 + Util.Rng.int rng 3 ] else [] in
      { Engine.sends; broadcast; wakes }
    end
  in
  {
    name = "mixed";
    size_words = (fun m -> 1 + (m mod 2));
    init = (fun view -> ([], act view ~round:0));
    on_round =
      (fun view ~round log ~inbox ->
        let log =
          Engine.Inbox.fold (fun log ~src ~w msg -> (round, src, w, msg) :: log) log inbox
        in
        (log, act view ~round));
  }

(* Few retransmissions, so a strict-bandwidth run (where every 2- and
   3-word data message is dropped) gives up quickly. *)
let mixed_reliable_config = { Reliable.default_config with Reliable.max_retries = 3 }

let prop_engine_equals_reference =
  QCheck.Test.make ~name:"optimized engine = reference (states, trace, events)" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let mixed = mixed_protocol seed in
      List.for_all
        (fun (_, faults) ->
          engines_agree ?faults g exerciser_protocol
          && engines_agree ?faults g mixed
          && engines_agree ?faults g (Reliable.wrap ~config:mixed_reliable_config mixed))
        (adversary_classes seed))

let prop_envelope_weight =
  (* Every envelope a handler receives carries the weight of the edge
     it crossed, on sends and broadcasts alike, under every adversary
     class and through [Reliable]. Weights up to 1000 make a weight
     read from the wrong arc show. *)
  QCheck.Test.make ~name:"envelope weight = Wgraph.weight" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Rng.create ~seed in
      let n = 3 + Util.Rng.int rng 30 in
      let g =
        Graphlib.Gen.gnp_connected ~n ~p:0.2
          ~weighting:(Graphlib.Gen.Uniform { max_w = 1000 }) ~rng
      in
      let mixed = mixed_protocol seed in
      let weights_ok logs =
        Array.for_all Fun.id
          (Array.mapi
             (fun v log ->
               List.for_all (fun (_, src, w, _) -> Graphlib.Wgraph.weight g src v = Some w) log)
             logs)
      in
      Array.exists (fun log -> log <> []) (fst (Engine.run g mixed))
      && List.for_all
           (fun (_, faults) ->
             weights_ok (fst (Engine.run ?faults g mixed))
             && weights_ok
                  (fst
                     (Reliable.run ~bandwidth:4 ?faults ~config:mixed_reliable_config g mixed)))
           (adversary_classes seed))

(* ----------------------------- Deadlines --------------------------- *)

(* A protocol that never quiesces: one self-wake per round, advancing
   a manual clock by one simulated second per activation — so deadline
   behaviour is asserted exactly, with no wall-clock flakiness. *)
let ticking_protocol advance : (int, unit) Engine.protocol =
  {
    name = "ticker";
    size_words = (fun () -> 1);
    init = (fun _ -> (0, Engine.act ~wakes:[ 1 ] ()));
    on_round =
      (fun _ ~round s ~inbox:_ ->
        advance 1.0;
        (s + 1, Engine.act ~wakes:[ round + 1 ] ()));
  }

let test_deadline_fires () =
  let g = unit_path 2 in
  let clock, advance = Telemetry.Clock.manual () in
  match Engine.run ~deadline:5.0 ~clock ~max_rounds:1000 g (ticking_protocol advance) with
  | _ -> Alcotest.fail "ticker quiesced under a deadline"
  | exception Engine.Deadline_exceeded info ->
    checkb "protocol named" true (info.Engine.deadline_protocol = "ticker");
    Alcotest.(check (float 1e-9)) "budget carried exactly" 5.0 info.Engine.budget_s;
    checkb "elapsed past budget" true (info.Engine.elapsed_s > 5.0);
    checkb "round recorded" true (info.Engine.round_at_deadline > 0);
    (* The partial trace covers the work done before the cut (the
       ticker never sends, so activations are its footprint). *)
    checkb "partial trace activations" true
      (info.Engine.partial_trace.Engine.activations >= 5)

let test_deadline_zero_budget () =
  let g = unit_path 2 in
  let clock, advance = Telemetry.Clock.manual () in
  checkb "zero budget cuts at the first over-budget round" true
    (match Engine.run ~deadline:0.0 ~clock ~max_rounds:1000 g (ticking_protocol advance) with
    | _ -> false
    | exception Engine.Deadline_exceeded _ -> true)

let test_deadline_invalid () =
  let g = unit_path 2 in
  let expect_invalid d =
    match Engine.run ~deadline:d g relay_protocol with
    | _ -> Alcotest.fail "invalid deadline accepted"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (-1.0);
  expect_invalid Float.nan;
  expect_invalid Float.infinity;
  (* The ambient scope applies the same check, before its body runs. *)
  let expect_invalid_scope d =
    let ran = ref false in
    (match Engine.with_deadline ~seconds:d (fun () -> ran := true) with
    | () -> Alcotest.fail "invalid ambient deadline accepted"
    | exception Invalid_argument _ -> ());
    checkb "body not run under an invalid budget" false !ran
  in
  expect_invalid_scope (-1.0);
  expect_invalid_scope Float.nan;
  expect_invalid_scope Float.infinity;
  expect_invalid_scope Float.neg_infinity;
  checkb "zero is a valid budget" true (Engine.valid_deadline 0.0);
  checkb "zero scope runs its body" true (Engine.with_deadline ~seconds:0.0 (fun () -> true))

let test_deadline_ambient () =
  (* with_deadline supervises Engine.run calls it cannot reach through
     the call stack — the Runner-to-algorithm path. *)
  let g = unit_path 2 in
  let clock, advance = Telemetry.Clock.manual () in
  checkb "ambient deadline fires" true
    (match
       Engine.with_deadline ~clock ~seconds:3.0 (fun () ->
           Engine.run ~max_rounds:1000 g (ticking_protocol advance))
     with
    | _ -> false
    | exception Engine.Deadline_exceeded info -> info.Engine.budget_s = 3.0);
  (* The ambient budget is restored on exit: a second run is free. *)
  let states, _ = Engine.run g relay_protocol in
  Alcotest.(check (option int)) "unsupervised after exit" (Some 1) states.(1).got;
  (* A nested wider budget cannot extend an outer tighter one. *)
  let clock2, advance2 = Telemetry.Clock.manual () in
  checkb "nested budgets only shrink" true
    (match
       Engine.with_deadline ~clock:clock2 ~seconds:2.0 (fun () ->
           Engine.with_deadline ~clock:clock2 ~seconds:1000.0 (fun () ->
               Engine.run ~max_rounds:1000 g (ticking_protocol advance2)))
     with
    | _ -> false
    | exception Engine.Deadline_exceeded info -> info.Engine.budget_s <= 2.0)

let test_deadline_unset_is_identity () =
  (* The acceptance pin: a generous deadline that never fires must be
     observationally invisible — same states, trace and event stream
     as the default engine and the reference engine. *)
  let g = unit_path 8 in
  List.iter
    (fun (label, faults) ->
      let sink1, drain1 = Telemetry.Events.collector () in
      let s1, t1 = Engine.run ?faults ~sink:sink1 g exerciser_protocol in
      let sink2, drain2 = Telemetry.Events.collector () in
      let s2, t2 = Engine.run ?faults ~deadline:3600.0 ~sink:sink2 g exerciser_protocol in
      checkb (label ^ ": generous deadline invisible") true
        (s1 = s2 && t1 = t2 && drain1 () = drain2 ());
      checkb (label ^ ": supervised engine = reference") true
        (engines_agree ?faults g exerciser_protocol))
    (adversary_classes 99)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tree_is_bfs;
      prop_children_match_parents;
      prop_gather_broadcast_complete;
      prop_gather_memo_matches_fresh;
      prop_engine_equals_reference;
      prop_envelope_weight;
      prop_inbox_order_equals_reference;
    ]

let () =
  Alcotest.run "congest"
    [
      ( "engine",
        [
          Alcotest.test_case "relay timing" `Quick test_engine_relay;
          Alcotest.test_case "wake fast-forward" `Quick test_engine_wake_fast_forward;
          Alcotest.test_case "non-neighbor rejected" `Quick test_engine_non_neighbor;
          Alcotest.test_case "handler exception propagates" `Quick
            test_engine_handler_exception;
          Alcotest.test_case "bandwidth accounting" `Quick test_engine_bandwidth_violation;
          Alcotest.test_case "round limit" `Quick test_engine_round_limit;
          Alcotest.test_case "trace arithmetic" `Quick test_trace_arithmetic;
          Alcotest.test_case "trace to json" `Quick test_trace_to_json;
          Alcotest.test_case "on_message hook" `Quick test_engine_on_message_hook;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "congestion counted once per edge-round" `Quick
            test_congestion_once_per_edge_round;
          Alcotest.test_case "wake dedup" `Quick test_wake_dedup;
          Alcotest.test_case "silent run allocation independent of m" `Quick
            test_silent_run_allocation;
          Alcotest.test_case "inbox view" `Quick test_inbox_view;
        ] );
      ( "faults",
        [
          Alcotest.test_case "benign adversary is identity" `Quick test_faults_none_is_identity;
          Alcotest.test_case "pinned fault-free traces" `Quick test_pinned_fault_free_traces;
          Alcotest.test_case "drop all" `Quick test_fault_drop_all;
          Alcotest.test_case "delay jitter" `Quick test_fault_delay;
          Alcotest.test_case "duplication" `Quick test_fault_duplicate;
          Alcotest.test_case "duplicates invisible to hook and sink" `Quick
            test_duplicates_do_not_refire_observers;
          Alcotest.test_case "fail-stop crash" `Quick test_fault_crash;
          Alcotest.test_case "strict bandwidth" `Quick test_fault_strict_bandwidth;
          Alcotest.test_case "seeded determinism" `Quick test_fault_deterministic;
          Alcotest.test_case "config validation" `Quick test_fault_validation;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "identity on perfect network" `Quick
            test_reliable_identity_on_perfect_network;
          Alcotest.test_case "BFS under 10% drop (4 families)" `Quick
            test_reliable_bfs_under_drop;
          Alcotest.test_case "convergecast under chaos" `Quick
            test_reliable_convergecast_under_chaos;
          Alcotest.test_case "broadcast under drop" `Quick test_reliable_broadcast_under_drop;
          Alcotest.test_case "gather_broadcast under drop" `Quick
            test_reliable_gather_broadcast_under_drop;
          Alcotest.test_case "gives up on crashed peer" `Quick
            test_reliable_gives_up_on_crashed_peer;
          Alcotest.test_case "retry cap is structured" `Quick
            test_reliable_retry_cap_structured;
        ] );
      ( "tree",
        [
          Alcotest.test_case "structure on path" `Quick test_tree_structure;
          Alcotest.test_case "convergecast sum" `Quick test_convergecast_sum;
          Alcotest.test_case "convergecast max" `Quick test_convergecast_max;
          Alcotest.test_case "broadcast pipelining" `Quick test_broadcast_pipelining;
          Alcotest.test_case "upcast" `Quick test_upcast;
          Alcotest.test_case "sync trace memo" `Quick test_sync_trace_memo;
        ] );
      ( "golden",
        [
          Alcotest.test_case "engine = reference on pinned scenarios" `Quick
            test_engine_equals_reference_pinned;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "fires with manual clock" `Quick test_deadline_fires;
          Alcotest.test_case "zero budget" `Quick test_deadline_zero_budget;
          Alcotest.test_case "invalid budgets rejected" `Quick test_deadline_invalid;
          Alcotest.test_case "ambient with_deadline" `Quick test_deadline_ambient;
          Alcotest.test_case "unset/generous deadline is identity" `Quick
            test_deadline_unset_is_identity;
        ] );
      ("properties", qsuite);
    ]
