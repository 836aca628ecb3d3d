module E = Telemetry.Events

(* Per-segment accumulator mirroring the engine's counters. *)
type seg = {
  bandwidth : int;
  load : (int * int * int, int) Hashtbl.t; (* (round, src, dst) -> words *)
  strict_violations : (int * int * int, unit) Hashtbl.t;
  mutable messages : int;
  mutable words : int;
  mutable activations : int;
  mutable last_send : int; (* -1 = none *)
  mutable last_arrival : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable crashed : int;
}

let fresh_seg bandwidth =
  {
    bandwidth;
    load = Hashtbl.create 64;
    strict_violations = Hashtbl.create 8;
    messages = 0;
    words = 0;
    activations = 0;
    last_send = -1;
    last_arrival = 0;
    dropped = 0;
    delayed = 0;
    duplicated = 0;
    crashed = 0;
  }

let close_seg s =
  (* Edge-rounds whose load exceeded the bandwidth, united with the
     edge-rounds where the strict NIC dropped (their load never
     exceeds) — each counted once, as in the engine. *)
  let violated = Hashtbl.create 16 in
  let max_load = ref 0 in
  Hashtbl.iter
    (fun key w ->
      if w > !max_load then max_load := w;
      if w > s.bandwidth then Hashtbl.replace violated key ())
    s.load;
  Hashtbl.iter (fun key () -> Hashtbl.replace violated key ()) s.strict_violations;
  {
    Engine.rounds = max (s.last_send + 1) s.last_arrival;
    messages = s.messages;
    words = s.words;
    max_edge_load = !max_load;
    congestion_violations = Hashtbl.length violated;
    activations = s.activations;
    dropped = s.dropped;
    delayed = s.delayed;
    duplicated = s.duplicated;
    crashed = s.crashed;
  }

let segments events =
  let rec go cur acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | E.Run_start _ as ev :: rest ->
      go [ ev ] (if cur = [] then acc else List.rev cur :: acc) rest
    | ev :: rest -> go (ev :: cur) acc rest
  in
  go [] [] events

let span_slice name events =
  let rec skip = function
    | [] -> []
    | E.Span_begin { name = n; _ } :: rest when n = name -> take [] rest
    | _ :: rest -> skip rest
  and take acc = function
    | E.Span_end { name = n; _ } :: _ when n = name -> List.rev acc
    | [] -> List.rev acc
    | e :: rest -> take (e :: acc) rest
  in
  skip events

let trace_of_events ?(bandwidth = 1) events =
  let segments = ref [] in
  let cur = ref (fresh_seg bandwidth) in
  let started = ref false in
  List.iter
    (fun ev ->
      match ev with
      | E.Run_start { bandwidth; _ } ->
        if !started then segments := close_seg !cur :: !segments;
        cur := fresh_seg bandwidth;
        started := true
      | E.Round_start { active; _ } -> !cur.activations <- !cur.activations + active
      | E.Message { round; src; dst; words } ->
        let s = !cur in
        s.messages <- s.messages + 1;
        s.words <- s.words + words;
        if round > s.last_send then s.last_send <- round;
        let key = (round, src, dst) in
        Hashtbl.replace s.load key (words + Option.value ~default:0 (Hashtbl.find_opt s.load key))
      | E.Deliver { round; _ } ->
        if round > !cur.last_arrival then !cur.last_arrival <- round
      | E.Fault { round; node; peer; kind } -> (
        let s = !cur in
        match kind with
        | E.Drop_random | E.Drop_crashed -> s.dropped <- s.dropped + 1
        | E.Drop_bandwidth w ->
          (* The engine counts the send before the NIC drops it. *)
          s.messages <- s.messages + 1;
          s.words <- s.words + w;
          if round > s.last_send then s.last_send <- round;
          s.dropped <- s.dropped + 1;
          Hashtbl.replace s.strict_violations (round, node, peer) ()
        | E.Delay _ -> s.delayed <- s.delayed + 1
        | E.Duplicate -> s.duplicated <- s.duplicated + 1
        | E.Crash -> s.crashed <- s.crashed + 1)
      | E.Span_begin _ | E.Span_end _ | E.Run_end _ -> ())
    events;
  let traces = List.rev (close_seg !cur :: !segments) in
  List.fold_left Engine.add_traces Engine.empty_trace traces
