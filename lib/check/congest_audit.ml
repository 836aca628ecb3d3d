module E = Telemetry.Events
module J = Telemetry.Tjson

let claim = "CONGEST legality: messages on edges only, per-edge per-round load \
             within the declared word budget, replay-consistent trace counters"

(* Cap the violation list so a badly broken run yields a readable
   report instead of one violation per message. The certificate's
   notes carry the uncapped count. *)
let max_violations = 32

type acc = {
  mutable checked : int;
  mutable total : int;  (* violations found, including beyond the cap *)
  mutable kept : Report.violation list;  (* newest first, capped *)
}

let add acc v =
  acc.total <- acc.total + 1;
  if acc.total <= max_violations then acc.kept <- v :: acc.kept

let audit_segment ~graph acc events =
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
        acc.checked <- acc.checked + 1;
        if declared <> n then
          add acc
            (Report.violation ~code:"wrong-network-size"
               (Printf.sprintf "protocol %s declared n=%d on a %d-node graph" protocol
                  declared n)
               ~data:[ ("declared", J.int declared); ("graph_n", J.int n) ])
      | E.Round_start { round; _ } ->
        acc.checked <- acc.checked + 1;
        if round <= !last_round then
          add acc
            (Report.violation ~code:"round-order"
               (Printf.sprintf "round %d started after round %d" round !last_round)
               ~data:[ ("round", J.int round); ("previous", J.int !last_round) ]);
        last_round := max !last_round round
      | E.Message { round; src; dst; words } ->
        acc.checked <- acc.checked + 1;
        let in_range v = v >= 0 && v < n in
        if (not (in_range src)) || (not (in_range dst)) || src = dst
           || Graphlib.Wgraph.weight graph src dst = None
        then
          add acc
            (Report.violation ~code:"non-edge-message"
               (Printf.sprintf "round %d: message %d -> %d crosses no edge" round src dst)
               ~data:[ ("round", J.int round); ("src", J.int src); ("dst", J.int dst) ])
        else begin
          if words < 1 then
            add acc
              (Report.violation ~code:"empty-message"
                 (Printf.sprintf "round %d: %d-word message %d -> %d" round words src dst)
                 ~data:[ ("round", J.int round); ("src", J.int src); ("dst", J.int dst) ]);
          let key = (round, src, dst) in
          Hashtbl.replace load key
            (words + Option.value ~default:0 (Hashtbl.find_opt load key))
        end
      | E.Run_end _ -> terminated := true
      | E.Deliver _ | E.Fault _ | E.Span_begin _ | E.Span_end _ -> ())
    events;
  Hashtbl.iter
    (fun (round, src, dst) words ->
      acc.checked <- acc.checked + 1;
      if words > !bandwidth then
        add acc
          (Report.violation ~code:"edge-overload"
             (Printf.sprintf "round %d: edge %d -> %d carried %d words (budget %d)" round
                src dst words !bandwidth)
             ~data:
               [
                 ("round", J.int round);
                 ("src", J.int src);
                 ("dst", J.int dst);
                 ("words", J.int words);
                 ("bandwidth", J.int !bandwidth);
               ]))
    load;
  if !started && not !terminated then
    add acc
      (Report.violation ~code:"unterminated-segment"
         "segment opened by Run_start has no Run_end")

let audit_events ?trace ~graph events =
  let acc = { checked = 0; total = 0; kept = [] } in
  let segments = Congest.Replay.segments events in
  List.iter
    (fun seg ->
      match seg with
      | E.Run_start _ :: _ -> audit_segment ~graph acc seg
      (* A leading span-only chunk carries no messages to audit. *)
      | _ -> ())
    segments;
  (match trace with
  | None -> ()
  | Some t ->
    acc.checked <- acc.checked + 1;
    let replayed = Congest.Replay.trace_of_events events in
    if replayed <> t then
      add acc
        (Report.violation ~code:"replay-mismatch"
           "event stream does not reconstruct the recorded trace counters"
           ~data:
             [
               ("recorded", Congest.Engine.trace_to_json t);
               ("replayed", Congest.Engine.trace_to_json replayed);
             ]));
  let notes =
    [
      ("events", J.int (List.length events));
      ("segments", J.int (List.length segments));
      ("violations_total", J.int acc.total);
    ]
  in
  Report.certificate ~name:"congest-legality" ~claim ~checked:acc.checked ~notes
    (List.rev acc.kept)
