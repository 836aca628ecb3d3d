(* The seed engine round loop, kept as an executable specification.
   Congest.Engine.run's optimized loop (flat CSR edge ledger, int-heap
   calendar, each message stored once and read through an inbox view,
   reusable mailboxes and active-set arrays, broadcasts straight from
   the CSR row) is pinned bit-identical to this one — states, trace,
   and full event stream — by the golden-equivalence tests in
   test_congest.ml. Since the seed it has gained only the action's
   [broadcast] field, as the equivalent neighbor-order sends, the
   envelope's edge weight, by a scan of the sender's row, and the
   handler's inbox type: each snapshot, a sorted envelope list, is
   handed over through [Inbox.of_envelopes]. Do not optimize this
   file: its only job is to stay obviously equal to the historical
   semantics. *)

open Congest
open Engine

type 'm mailbox = { mutable inbox : 'm envelope list (* reversed during accumulation *) }

let run ?(bandwidth = 1) ?(max_rounds = 1_000_000) ?faults ?sink g proto =
  let n = Graphlib.Wgraph.n g in
  if n = 0 then invalid_arg "Engine.run: empty graph";
  let observed = sink <> None in
  let emit ev = match sink with Some s -> s ev | None -> () in
  let max_w = Graphlib.Wgraph.max_weight g in
  let views =
    Array.init n (fun id ->
        { Node_view.id; n; max_w; neighbors = Graphlib.Wgraph.neighbors g id })
  in
  let boxes = Array.init n (fun _ -> { inbox = [] }) in
  (* Wake-up calendar: round -> nodes (possibly with duplicates; a node
     scheduled several times for one round activates once). *)
  let wake_tbl : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let schedule_wake ~now node rounds =
    List.iter
      (fun r ->
        if r <= now then invalid_arg (proto.name ^ ": wake not in the future");
        match Hashtbl.find_opt wake_tbl r with
        | Some l -> l := node :: !l
        | None -> Hashtbl.replace wake_tbl r (ref [ node ]))
      rounds
  in
  (* Per-round per-directed-edge load and the set of edges already past
     the bandwidth this round (so one overloaded edge-round counts as
     exactly one violation no matter how the overload accumulates). *)
  let load : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let violated : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let messages = ref 0 and words = ref 0 in
  let max_edge_load = ref 0 and violations = ref 0 in
  let activations = ref 0 in
  let dropped = ref 0 and delayed = ref 0 and duplicated = ref 0 in
  let last_send_round = ref (-1) in
  let last_arrival_round = ref 0 in
  let any_sends_this_round = ref false in
  let record_violation key =
    if not (Hashtbl.mem violated key) then begin
      Hashtbl.replace violated key ();
      incr violations
    end
  in
  (* Adversary state (absent on the default, fault-free path). *)
  let adversary =
    match faults with
    | None -> None
    | Some f -> Some (f, Util.Rng.create ~seed:f.Fault.seed, Fault.crash_rounds f ~n)
  in
  let crashed_at id =
    match adversary with None -> max_int | Some (_, _, cr) -> cr.(id)
  in
  (* Delayed-delivery calendar (fault path only): arrival round ->
     (dst, envelope) list, reversed during accumulation. *)
  let arrivals : (int, (int * 'm envelope) list ref) Hashtbl.t = Hashtbl.create 64 in
  let enqueue_arrival ~arrival dst env =
    match Hashtbl.find_opt arrivals arrival with
    | Some l -> l := (dst, env) :: !l
    | None -> Hashtbl.replace arrivals arrival (ref [ (dst, env) ])
  in
  let deliver ~round src (dst, msg) =
    (* The weight of the edge to [dst], by a scan of the sender's row. *)
    let w =
      Array.fold_left
        (fun acc (v, w) -> if v = dst then Some w else acc)
        None views.(src).Node_view.neighbors
    in
    let w =
      match w with
      | Some w -> w
      | None ->
        invalid_arg (Printf.sprintf "%s: node %d sent to non-neighbor %d" proto.name src dst)
    in
    let sz = proto.size_words msg in
    if sz < 1 then invalid_arg (proto.name ^ ": message size < 1 word");
    incr messages;
    words := !words + sz;
    any_sends_this_round := true;
    last_send_round := round;
    let key = (src * n) + dst in
    let cur = Option.value ~default:0 (Hashtbl.find_opt load key) in
    match adversary with
    | None ->
      let cur' = cur + sz in
      Hashtbl.replace load key cur';
      if cur' > !max_edge_load then max_edge_load := cur';
      if cur' > bandwidth then record_violation key;
      if observed then emit (Telemetry.Events.Message { round; src; dst; words = sz });
      boxes.(dst).inbox <- { src; w; msg } :: boxes.(dst).inbox
    | Some (f, rng, _) ->
      if f.Fault.strict_bandwidth && cur + sz > bandwidth then begin
        (* NIC-enforced bandwidth: the whole message is dropped at the
           sender; the edge-round is recorded as violated exactly once. *)
        record_violation key;
        incr dropped;
        if observed then
          emit
            (Telemetry.Events.Fault
               { round; node = src; peer = dst; kind = Telemetry.Events.Drop_bandwidth sz })
      end
      else begin
        let cur' = cur + sz in
        Hashtbl.replace load key cur';
        if cur' > !max_edge_load then max_edge_load := cur';
        if cur' > bandwidth then record_violation key;
        if observed then emit (Telemetry.Events.Message { round; src; dst; words = sz });
        if f.Fault.drop > 0.0 && Util.Rng.bernoulli rng ~p:f.Fault.drop then begin
          incr dropped;
          if observed then
            emit
              (Telemetry.Events.Fault
                 { round; node = src; peer = dst; kind = Telemetry.Events.Drop_random })
        end
        else begin
          let copies =
            if f.Fault.duplicate > 0.0 && Util.Rng.bernoulli rng ~p:f.Fault.duplicate then begin
              incr duplicated;
              if observed then
                emit
                  (Telemetry.Events.Fault
                     { round; node = src; peer = dst; kind = Telemetry.Events.Duplicate });
              2
            end
            else 1
          in
          for _ = 1 to copies do
            let jitter =
              if f.Fault.delay > 0 then Util.Rng.int_in rng ~lo:0 ~hi:f.Fault.delay else 0
            in
            if jitter > 0 then begin
              incr delayed;
              if observed then
                emit
                  (Telemetry.Events.Fault
                     { round; node = src; peer = dst; kind = Telemetry.Events.Delay jitter })
            end;
            enqueue_arrival ~arrival:(round + 1 + jitter) dst { src; w; msg }
          done
        end
      end
  in
  (* Move every message due at round [r] into its inbox; messages to a
     node already crashed at [r] are lost. Returns [true] if anything
     was delivered. *)
  let flush_arrivals r =
    match Hashtbl.find_opt arrivals r with
    | None -> false
    | Some l ->
      Hashtbl.remove arrivals r;
      let delivered = ref false in
      List.iter
        (fun (dst, env) ->
          if crashed_at dst <= r then begin
            incr dropped;
            if observed then
              emit
                (Telemetry.Events.Fault
                   { round = r; node = env.src; peer = dst; kind = Telemetry.Events.Drop_crashed })
          end
          else begin
            delivered := true;
            if r > !last_arrival_round then last_arrival_round := r;
            if observed then
              emit (Telemetry.Events.Deliver { round = r; src = env.src; dst });
            boxes.(dst).inbox <- env :: boxes.(dst).inbox
          end)
        (List.rev !l);
      !delivered
  in
  let round = ref 0 in
  let current_trace () =
    let crashed =
      match adversary with
      | None -> 0
      | Some (_, _, cr) ->
        Array.fold_left (fun acc r -> if r <= !round then acc + 1 else acc) 0 cr
    in
    {
      rounds = max (!last_send_round + 1) !last_arrival_round;
      messages = !messages;
      words = !words;
      max_edge_load = !max_edge_load;
      congestion_violations = !violations;
      activations = !activations;
      dropped = !dropped;
      delayed = !delayed;
      duplicated = !duplicated;
      crashed;
    }
  in
  (* Round 0: init everyone (in id order). *)
  if observed then begin
    emit (Telemetry.Events.Run_start { protocol = proto.name; n; bandwidth });
    emit (Telemetry.Events.Round_start { round = 0; active = n })
  end;
  Hashtbl.reset load;
  Hashtbl.reset violated;
  any_sends_this_round := false;
  (* Sends first, then each broadcast message to every neighbor in
     increasing id order (the order of the neighbor row). *)
  let send_all ~round id act =
    List.iter (deliver ~round id) act.sends;
    List.iter
      (fun msg ->
        Array.iter (fun (v, _) -> deliver ~round id (v, msg)) views.(id).Node_view.neighbors)
      act.broadcast
  in
  let apply_init id (s, act) =
    incr activations;
    send_all ~round:0 id act;
    schedule_wake ~now:0 id act.wakes;
    s
  in
  let states =
    let s0 = apply_init 0 (proto.init views.(0)) in
    let states = Array.make n s0 in
    for id = 1 to n - 1 do
      states.(id) <- apply_init id (proto.init views.(id))
    done;
    states
  in
  (* Nodes whose inbox was filled this round become active next round. *)
  let next_active_from_inboxes () =
    let acc = ref [] in
    for id = n - 1 downto 0 do
      if boxes.(id).inbox <> [] then acc := id :: !acc
    done;
    !acc
  in
  let continue = ref true in
  while !continue do
    (* Decide the next round with activity. *)
    let msg_round =
      if adversary = None && !any_sends_this_round then Some (!round + 1) else None
    in
    let min_key tbl =
      Hashtbl.fold
        (fun r _ acc ->
          if r > !round then match acc with Some a -> Some (min a r) | None -> Some r else acc)
        tbl None
    in
    let wake_round = min_key wake_tbl in
    let arrival_round = if adversary = None then None else min_key arrivals in
    let min_opt a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (min a b)
    in
    match min_opt msg_round (min_opt wake_round arrival_round) with
    | None -> continue := false
    | Some r ->
      if r > max_rounds then
        raise
          (Round_limit_exceeded
             { protocol = proto.name; round_reached = r; partial = current_trace () });
      (* Collect the active set: inbox recipients plus due wake-ups. *)
      let flushed = adversary <> None && flush_arrivals r in
      let from_inbox =
        if flushed || (adversary = None && r = !round + 1) then next_active_from_inboxes ()
        else []
      in
      (* If we fast-forwarded past round+1, inboxes must be empty. *)
      let from_wake =
        match Hashtbl.find_opt wake_tbl r with
        | Some l ->
          Hashtbl.remove wake_tbl r;
          List.sort_uniq compare !l
        | None -> []
      in
      let active =
        List.filter
          (fun id -> crashed_at id > r)
          (List.sort_uniq compare (from_inbox @ from_wake))
      in
      if observed then
        emit (Telemetry.Events.Round_start { round = r; active = List.length active });
      (* Snapshot and clear inboxes before running handlers so that
         messages sent in round r arrive in round r+1. *)
      let snapshots =
        List.map
          (fun id ->
            let inbox = List.rev boxes.(id).inbox in
            boxes.(id).inbox <- [];
            (id, List.sort (fun a b -> compare a.src b.src) inbox))
          active
      in
      round := r;
      Hashtbl.reset load;
      Hashtbl.reset violated;
      any_sends_this_round := false;
      List.iter
        (fun (id, inbox) ->
          incr activations;
          let s', act =
            proto.on_round views.(id) ~round:r states.(id) ~inbox:(Inbox.of_envelopes inbox)
          in
          states.(id) <- s';
          send_all ~round:r id act;
          schedule_wake ~now:r id act.wakes)
        snapshots
  done;
  let trace = current_trace () in
  if observed then begin
    (* Crash events are only known to have fallen inside the horizon
       once the horizon is: emit them at the end, sorted by round. *)
    (match adversary with
    | Some (_, _, cr) ->
      let crashes = ref [] in
      Array.iteri (fun id r -> if r <= !round then crashes := (r, id) :: !crashes) cr;
      List.iter
        (fun (r, id) ->
          emit
            (Telemetry.Events.Fault
               { round = r; node = id; peer = -1; kind = Telemetry.Events.Crash }))
        (List.sort compare !crashes)
    | None -> ());
    emit (Telemetry.Events.Run_end { round = trace.rounds })
  end;
  (states, trace)
