module E = Telemetry.Events
module J = Telemetry.Json

let claim = "CONGEST legality: messages on edges only, per-edge per-round load \
             within the declared word budget, replay-consistent trace counters"

(* Cap the violation list so a badly broken run yields a readable
   report instead of one violation per message. The certificate's
   notes carry the uncapped count. *)
let max_violations = 32

let audit_segment ~graph l events =
  let n = Graphlib.Wgraph.n graph in
  let bandwidth = ref 1 in
  let last_round = ref (-1) in
  let terminated = ref false in
  let started = ref false in
  (* (round, src, dst) -> words; flushed per segment. *)
  let load = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      match ev with
      | E.Run_start { n = declared; bandwidth = b; protocol } ->
        started := true;
        bandwidth := b;
        Report.count l;
        if declared <> n then
          Report.flag l ~code:"wrong-network-size"
            (Printf.sprintf "protocol %s declared n=%d on a %d-node graph" protocol declared n)
            ~data:[ ("declared", J.int declared); ("graph_n", J.int n) ]
      | E.Round_start { round; _ } ->
        Report.count l;
        if round <= !last_round then
          Report.flag l ~code:"round-order"
            (Printf.sprintf "round %d started after round %d" round !last_round)
            ~data:[ ("round", J.int round); ("previous", J.int !last_round) ];
        last_round := max !last_round round
      | E.Message { round; src; dst; words } ->
        Report.count l;
        let in_range v = v >= 0 && v < n in
        if (not (in_range src)) || (not (in_range dst)) || src = dst
           || Graphlib.Wgraph.weight graph src dst = None
        then
          Report.flag l ~code:"non-edge-message"
            (Printf.sprintf "round %d: message %d -> %d crosses no edge" round src dst)
            ~data:[ ("round", J.int round); ("src", J.int src); ("dst", J.int dst) ]
        else begin
          if words < 1 then
            Report.flag l ~code:"empty-message"
              (Printf.sprintf "round %d: %d-word message %d -> %d" round words src dst)
              ~data:[ ("round", J.int round); ("src", J.int src); ("dst", J.int dst) ];
          let key = (round, src, dst) in
          Hashtbl.replace load key
            (words + Option.value ~default:0 (Hashtbl.find_opt load key))
        end
      | E.Run_end _ -> terminated := true
      | E.Deliver _ | E.Fault _ | E.Span_begin _ | E.Span_end _ -> ())
    events;
  Hashtbl.iter
    (fun (round, src, dst) words ->
      Report.count l;
      if words > !bandwidth then
        Report.flag l ~code:"edge-overload"
          (Printf.sprintf "round %d: edge %d -> %d carried %d words (budget %d)" round src dst
             words !bandwidth)
          ~data:
            [
              ("round", J.int round);
              ("src", J.int src);
              ("dst", J.int dst);
              ("words", J.int words);
              ("bandwidth", J.int !bandwidth);
            ])
    load;
  (* Uncounted: a missing Run_end is found by its absence, not by a
     check of some event. *)
  if !started && not !terminated then
    Report.flag l ~code:"unterminated-segment" ~data:[]
      "segment opened by Run_start has no Run_end"

let audit_events ?trace ~graph events =
  let l = Report.capped max_violations in
  let segments = Congest.Replay.segments events in
  List.iter
    (fun seg ->
      match seg with
      | E.Run_start _ :: _ -> audit_segment ~graph l seg
      (* A leading span-only chunk carries no messages to audit. *)
      | _ -> ())
    segments;
  (match trace with
  | None -> ()
  | Some t ->
    Report.count l;
    let replayed = Congest.Replay.trace_of_events events in
    if replayed <> t then
      Report.flag l ~code:"replay-mismatch"
        "event stream does not reconstruct the recorded trace counters"
        ~data:
          [
            ("recorded", Congest.Engine.trace_to_json t);
            ("replayed", Congest.Engine.trace_to_json replayed);
          ]);
  let notes =
    [
      ("events", J.int (List.length events));
      ("segments", J.int (List.length segments));
      ("violations_total", J.int (Report.found l));
    ]
  in
  Report.finish l ~name:"congest-legality" ~claim ~notes
