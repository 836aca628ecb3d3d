type 'm envelope = { src : int; w : int; msg : 'm }

type 'm action = {
  sends : (int * 'm) list;
  broadcast : 'm list;
  wakes : int list;
}

let no_action = { sends = []; broadcast = []; wakes = [] }
let send sends = { sends; broadcast = []; wakes = [] }
let send_and_wake sends r = { sends; broadcast = []; wakes = [ r ] }
let broadcast msgs = { sends = []; broadcast = msgs; wakes = [] }
let wake r = { sends = []; broadcast = []; wakes = [ r ] }
let act ?(sends = []) ?(wakes = []) () = { sends; broadcast = []; wakes }

type ('s, 'm) protocol = {
  name : string;
  size_words : 'm -> int;
  init : Node_view.t -> 's * 'm action;
  on_round : Node_view.t -> round:int -> 's -> inbox:'m envelope list -> 's * 'm action;
}

type trace = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
  congestion_violations : int;
  activations : int;
  dropped : int;
  delayed : int;
  duplicated : int;
  crashed : int;
}

let empty_trace =
  { rounds = 0; messages = 0; words = 0; max_edge_load = 0; congestion_violations = 0;
    activations = 0; dropped = 0; delayed = 0; duplicated = 0; crashed = 0 }

let add_traces a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    words = a.words + b.words;
    max_edge_load = Int.max a.max_edge_load b.max_edge_load;
    congestion_violations = a.congestion_violations + b.congestion_violations;
    activations = a.activations + b.activations;
    dropped = a.dropped + b.dropped;
    delayed = a.delayed + b.delayed;
    duplicated = a.duplicated + b.duplicated;
    crashed = Int.max a.crashed b.crashed;
  }

let pp_trace ppf t =
  Format.fprintf ppf
    "rounds=%d messages=%d words=%d max_edge_load=%d violations=%d activations=%d" t.rounds
    t.messages t.words t.max_edge_load t.congestion_violations t.activations;
  if t.dropped <> 0 || t.delayed <> 0 || t.duplicated <> 0 || t.crashed <> 0 then
    Format.fprintf ppf " dropped=%d delayed=%d duplicated=%d crashed=%d" t.dropped t.delayed
      t.duplicated t.crashed

let trace_to_json t =
  let module J = Telemetry.Json in
  J.obj
    [
      ("rounds", J.int t.rounds);
      ("messages", J.int t.messages);
      ("words", J.int t.words);
      ("max_edge_load", J.int t.max_edge_load);
      ("congestion_violations", J.int t.congestion_violations);
      ("activations", J.int t.activations);
      ("dropped", J.int t.dropped);
      ("delayed", J.int t.delayed);
      ("duplicated", J.int t.duplicated);
      ("crashed", J.int t.crashed);
    ]

type limit_info = { protocol : string; round_reached : int; partial : trace }

exception Round_limit_exceeded of limit_info

type deadline_info = {
  deadline_protocol : string;
  round_at_deadline : int;
  elapsed_s : float;
  budget_s : float;
  partial_trace : trace;
}

exception Deadline_exceeded of deadline_info

(* Ambient per-domain deadline: an absolute instant (plus the clock it
   was read from) that every [run] on this domain inherits when its
   caller cannot thread [?deadline] through intermediate layers (the
   sweep runner supervises whole algorithm executions this way). Being
   domain-local it is safe under [Util.Domain_pool] fan-out: each
   worker domain carries its own budget. *)
let ambient_deadline : (float * Telemetry.Clock.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let valid_deadline seconds = Float.is_finite seconds && seconds >= 0.0

(* The one budget check of [run ?deadline] and [with_deadline]. *)
let check_deadline ~fn seconds =
  if not (valid_deadline seconds) then
    invalid_arg (fn ^ ": deadline must be a non-negative finite number of seconds")

let with_deadline ?(clock = Telemetry.Clock.wall) ~seconds f =
  check_deadline ~fn:"Engine.with_deadline" seconds;
  let at = Telemetry.Clock.now clock +. seconds in
  let prev = Domain.DLS.get ambient_deadline in
  (* Nested budgets only ever shrink; comparing instants assumes nested
     scopes share one clock (they do in this repo). *)
  let merged =
    match prev with Some (p, _) when p <= at -> prev | _ -> Some (at, clock)
  in
  Domain.DLS.set ambient_deadline merged;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_deadline prev) f

(* Per-domain phase-span switch, mirroring [ambient_deadline]: a caller
   (the CLI's [--profile]) flips it for a scope and every observed
   [run] on this domain brackets its round work into spans. Off — the
   default — adds a single immutable bool test per run, never per
   round. *)
let ambient_phase_spans : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let with_phase_spans f =
  let prev = Domain.DLS.get ambient_phase_spans in
  Domain.DLS.set ambient_phase_spans true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_phase_spans prev) f

(* Inboxes are reusable growable buffers: envelopes are appended in
   arrival order and the live prefix becomes the handler's inbox list
   once per activation. The buffer keeps its high-water capacity (and
   the envelopes last stored in it) across rounds — the retention is
   bounded by the largest inbox ever seen per node. *)
type 'm mailbox = { mutable data : 'm envelope array; mutable len : int }

let mailbox_push b e =
  let cap = Array.length b.data in
  if b.len = cap then begin
    let data = Array.make (if cap = 0 then 4 else 2 * cap) e in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- e;
  b.len <- b.len + 1

(* Empty the buffer into an inbox list sorted by sender. Without an
   adversary the envelopes always arrive in sender order (handlers run
   in increasing id order), so the list is built straight from the
   buffer. Delayed deliveries can arrive out of order; they take a
   stable sort, which keeps each sender's envelopes in arrival order
   and so matches the reference's rev + stable list sort. *)
let rec in_sender_order (data : _ envelope array) len i =
  i >= len || (data.(i - 1).src <= data.(i).src && in_sender_order data len (i + 1))

let rec prefix_to_list data i acc =
  if i < 0 then acc else prefix_to_list data (i - 1) (data.(i) :: acc)

let mailbox_drain b =
  let data = b.data and len = b.len in
  b.len <- 0;
  if in_sender_order data len 1 then prefix_to_list data (len - 1) []
  else begin
    let inbox = Array.sub data 0 len in
    Array.stable_sort (fun (x : _ envelope) y -> Int.compare x.src y.src) inbox;
    Array.to_list inbox
  end

(* Tables keyed by round. The hash is the round itself: rounds are
   small non-negative ints, and [Hashtbl.hash] would be a C call on
   every lookup. *)
module Round_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (r : int) = r
end)

(* The round loop below is the simulator's hot path: every baseline in
   the repo burns the bulk of its wall time here. It is pinned
   bit-identical — final states, trace, and full event stream — to the
   original Hashtbl/cons-list loop, which the test suite keeps as its
   reference, by QCheck properties over fault-free and adversarial
   scenario classes.
   The load/violation ledger lives in flat int arrays indexed by CSR
   arc id (which doubles as the neighbor check), reset via a dirty
   list; the next event round comes from one lazy-deletion int heap
   instead of Hashtbl.fold min-scans; and the per-round active-set
   scan over all n inboxes is replaced by a touched-node list.
   A broadcast walks the sender's CSR row, so it needs no arc search,
   and every envelope takes its weight from the arc it crossed. The
   active set and the drained inboxes live in arrays reused across
   rounds, and actions are applied by recursive functions defined once
   per run, so the loop allocates nothing of its own per activation. *)
let run ?(bandwidth = 1) ?(max_rounds = 1_000_000) ?deadline ?(clock = Telemetry.Clock.wall)
    ?faults ?sink g proto =
  let n = Graphlib.Wgraph.n g in
  if n = 0 then invalid_arg "Engine.run: empty graph";
  let observed = sink <> None in
  let emit ev = match sink with Some s -> s ev | None -> () in
  (* Phase spans are pure observation on top of [observed]: the wall
     clock is only ever read when they are on, so the default path
     stays bit-identical to the pinned reference semantics. *)
  let spans = observed && Domain.DLS.get ambient_phase_spans in
  let span_begin name r =
    emit (Telemetry.Events.Span_begin { name; round = r; wall_s = Telemetry.Clock.now clock })
  in
  let span_end name r =
    emit (Telemetry.Events.Span_end { name; round = r; wall_s = Telemetry.Clock.now clock })
  in
  let max_w = Graphlib.Wgraph.max_weight g in
  let views =
    Array.init n (fun id ->
        { Node_view.id; n; max_w; neighbors = Graphlib.Wgraph.neighbors g id })
  in
  let { Graphlib.Wgraph.row_start; csr_dst; csr_w } = Graphlib.Wgraph.csr g in
  let arc_count = row_start.(n) in
  (* Directed arc id of (src, dst), or -1 if dst is not a neighbor of
     src: rank of dst in src's sorted CSR row. One binary search serves
     both the non-neighbor send check and the ledger index. *)
  let arc_of ~src ~dst =
    let lo = ref row_start.(src) and hi = ref (row_start.(src + 1) - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let d = csr_dst.(mid) in
      if d = dst then begin
        found := mid;
        lo := !hi + 1
      end
      else if d < dst then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  in
  let boxes = Array.init n (fun _ -> { data = [||]; len = 0 }) in
  (* Nodes whose inbox became nonempty since the last activation round,
     in delivery order. Every delivered-to node is activated (and its
     box drained) at the next chosen round, so this list is exactly the
     nonempty-inbox set when it is consumed. *)
  let touched = Array.make n 0 in
  let n_touched = ref 0 in
  let inbox_put dst env =
    let b = boxes.(dst) in
    if b.len = 0 then begin
      touched.(!n_touched) <- dst;
      incr n_touched
    end;
    mailbox_push b env
  in
  (* Event calendar: one lazy-deletion min-heap over the rounds that own
     a wake or arrival bucket. A round is pushed when its bucket is
     created and discarded from the top once the loop has passed it, so
     the next-event query is O(log #buckets) instead of folding over
     every pending bucket. *)
  let calendar = Util.Int_heap.create ~capacity:64 () in
  (* Wake round -> the nodes that asked for it, newest first. A node
     may ask for the same round more than once (in one action or in
     several); the bucket keeps every request and the round that
     consumes it removes the duplicates. *)
  let wake_tbl : int list ref Round_tbl.t = Round_tbl.create 64 in
  let rec schedule_wakes now node = function
    | [] -> ()
    | r :: rest ->
      if r <= now then invalid_arg (proto.name ^ ": wake not in the future");
      (match Round_tbl.find_opt wake_tbl r with
      | Some l -> l := node :: !l
      | None ->
        Round_tbl.replace wake_tbl r (ref [ node ]);
        Util.Int_heap.push calendar r);
      schedule_wakes now node rest
  in
  (* Per-round per-directed-edge load and the violated flag (so one
     overloaded edge-round counts as exactly one violation no matter how
     the overload accumulates), in flat arrays indexed by arc id. Only
     the arcs actually touched this round are reset, via [dirty]. *)
  let load = Array.make (max 1 arc_count) 0 in
  let violated = Array.make (max 1 arc_count) false in
  let dirty = Array.make (max 1 arc_count) 0 in
  let n_dirty = ref 0 in
  let touch_arc a =
    if load.(a) = 0 && not violated.(a) then begin
      dirty.(!n_dirty) <- a;
      incr n_dirty
    end
  in
  let reset_round_ledger () =
    for i = 0 to !n_dirty - 1 do
      let a = dirty.(i) in
      load.(a) <- 0;
      violated.(a) <- false
    done;
    n_dirty := 0
  in
  let messages = ref 0 and words = ref 0 in
  let max_edge_load = ref 0 and violations = ref 0 in
  let activations = ref 0 in
  let dropped = ref 0 and delayed = ref 0 and duplicated = ref 0 in
  let last_send_round = ref (-1) in
  let last_arrival_round = ref 0 in
  let any_sends_this_round = ref false in
  let record_violation a =
    if not violated.(a) then begin
      touch_arc a;
      violated.(a) <- true;
      incr violations
    end
  in
  (* Adversary state (absent on the default, fault-free path). *)
  let adversary =
    match faults with
    | None -> None
    | Some f -> Some (f, Util.Rng.create ~seed:f.Fault.seed, Fault.crash_rounds f ~n)
  in
  let fault_free = Option.is_none adversary in
  let crashed_at id =
    match adversary with None -> max_int | Some (_, _, cr) -> cr.(id)
  in
  (* Delayed-delivery calendar (fault path only): arrival round ->
     (dst, envelope) list, reversed during accumulation. Bucket rounds
     share the wake calendar heap. *)
  let arrivals : (int * 'm envelope) list ref Round_tbl.t = Round_tbl.create 64 in
  let enqueue_arrival ~arrival dst env =
    match Round_tbl.find_opt arrivals arrival with
    | Some l -> l := (dst, env) :: !l
    | None ->
      Round_tbl.replace arrivals arrival (ref [ (dst, env) ]);
      Util.Int_heap.push calendar arrival
  in
  (* Send [msg] from [src] over its arc [a]. *)
  let deliver ~round src a msg =
    let dst = csr_dst.(a) in
    let sz = proto.size_words msg in
    if sz < 1 then invalid_arg (proto.name ^ ": message size < 1 word");
    incr messages;
    words := !words + sz;
    any_sends_this_round := true;
    last_send_round := round;
    let cur = load.(a) in
    match adversary with
    | None ->
      touch_arc a;
      let cur' = cur + sz in
      load.(a) <- cur';
      if cur' > !max_edge_load then max_edge_load := cur';
      if cur' > bandwidth then record_violation a;
      if observed then emit (Telemetry.Events.Message { round; src; dst; words = sz });
      inbox_put dst { src; w = csr_w.(a); msg }
    | Some (f, rng, _) ->
      if f.Fault.strict_bandwidth && cur + sz > bandwidth then begin
        (* NIC-enforced bandwidth: the whole message is dropped at the
           sender; the edge-round is recorded as violated exactly once. *)
        record_violation a;
        incr dropped;
        if observed then
          emit
            (Telemetry.Events.Fault
               { round; node = src; peer = dst; kind = Telemetry.Events.Drop_bandwidth sz })
      end
      else begin
        touch_arc a;
        let cur' = cur + sz in
        load.(a) <- cur';
        if cur' > !max_edge_load then max_edge_load := cur';
        if cur' > bandwidth then record_violation a;
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
          let env = { src; w = csr_w.(a); msg } in
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
            enqueue_arrival ~arrival:(round + 1 + jitter) dst env
          done
        end
      end
  in
  let rec deliver_sends ~round src = function
    | [] -> ()
    | (dst, msg) :: rest ->
      let a = arc_of ~src ~dst in
      if a < 0 then
        invalid_arg (Printf.sprintf "%s: node %d sent to non-neighbor %d" proto.name src dst);
      deliver ~round src a msg;
      deliver_sends ~round src rest
  in
  (* Each message to every neighbor in increasing id order: the CSR
     row is sorted, so this is the order of the equivalent sends. *)
  let rec deliver_broadcast ~round src = function
    | [] -> ()
    | msg :: rest ->
      for a = row_start.(src) to row_start.(src + 1) - 1 do
        deliver ~round src a msg
      done;
      deliver_broadcast ~round src rest
  in
  let apply ~round id act =
    deliver_sends ~round id act.sends;
    deliver_broadcast ~round id act.broadcast;
    schedule_wakes round id act.wakes
  in
  (* Move every message due at round [r] into its inbox; messages to a
     node already crashed at [r] are lost. Returns [true] if anything
     was delivered. *)
  let flush_arrivals r =
    match Round_tbl.find_opt arrivals r with
    | None -> false
    | Some l ->
      Round_tbl.remove arrivals r;
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
            inbox_put dst env
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
      rounds = Int.max (!last_send_round + 1) !last_arrival_round;
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
  reset_round_ledger ();
  any_sends_this_round := false;
  let init id =
    let s, act = proto.init views.(id) in
    incr activations;
    apply ~round:0 id act;
    s
  in
  let states = Array.make n (init 0) in
  for id = 1 to n - 1 do
    states.(id) <- init id
  done;
  (* The active set of the round being run, ascending, and each active
     node's drained inbox at the same index; [stamp.(id)] is the last
     round [id] joined the set. All three are reused across rounds. *)
  let active = Array.make n 0 in
  let n_active = ref 0 in
  let inboxes = Array.make n [] in
  let stamp = Array.make n (-1) in
  let join r id =
    if stamp.(id) <> r then begin
      stamp.(id) <- r;
      active.(!n_active) <- id;
      incr n_active
    end
  in
  let rec join_wakes r = function
    | [] -> ()
    | id :: rest ->
      join r id;
      join_wakes r rest
  in
  (* Nodes whose inbox was filled since the last activation round (the
     touched list; [touched] is a work buffer, refilled from index 0
     once it is taken) and the nodes due to wake at [r], once each, in
     increasing id order. The prefix is sorted in place with the int
     heap sort, one O(k log k) path at every size. *)
  let collect_active r ~from_inboxes =
    n_active := 0;
    if from_inboxes then begin
      for i = 0 to !n_touched - 1 do
        join r touched.(i)
      done;
      n_touched := 0
    end;
    (match Round_tbl.find_opt wake_tbl r with
    | Some l ->
      Round_tbl.remove wake_tbl r;
      join_wakes r !l
    | None -> ());
    Util.Int_heap.sort active !n_active;
    if not fault_free then begin
      let k = ref 0 in
      for i = 0 to !n_active - 1 do
        let id = active.(i) in
        if crashed_at id > r then begin
          active.(!k) <- id;
          incr k
        end
      done;
      n_active := !k
    end
  in
  (* Smallest calendar round still in the future; buckets the loop has
     already consumed leave stale heap entries behind, discarded here. *)
  let rec calendar_round () =
    match Util.Int_heap.peek calendar with
    | Some r when r <= !round ->
      ignore (Util.Int_heap.pop calendar);
      calendar_round ()
    | top -> top
  in
  (* Cooperative wall-clock supervision: resolved once at run start
     from the explicit [?deadline] (relative to [?clock]) or, failing
     that, the ambient {!with_deadline} budget. [None] — the default —
     adds nothing to the round loop, so unsupervised runs keep the
     bit-identical historical behaviour. *)
  let deadline_guard =
    let make ~clk ~start ~limit ~budget =
      Some
        (fun r ->
          let now = Telemetry.Clock.now clk in
          if now > limit then
            raise
              (Deadline_exceeded
                 {
                   deadline_protocol = proto.name;
                   round_at_deadline = r;
                   elapsed_s = now -. start;
                   budget_s = budget;
                   partial_trace = current_trace ();
                 }))
    in
    match deadline with
    | Some budget ->
      check_deadline ~fn:"Engine.run" budget;
      let start = Telemetry.Clock.now clock in
      make ~clk:clock ~start ~limit:(start +. budget) ~budget
    | None -> (
      match Domain.DLS.get ambient_deadline with
      | Some (at, clk) ->
        let start = Telemetry.Clock.now clk in
        make ~clk ~start ~limit:at ~budget:(at -. start)
      | None -> None)
  in
  let continue = ref true in
  while !continue do
    (* Decide the next round with activity. *)
    if spans then span_begin "engine.heap" !round;
    let msg_round =
      if fault_free && !any_sends_this_round then Some (!round + 1) else None
    in
    let next =
      match (msg_round, calendar_round ()) with
      | None, x | x, None -> x
      | Some a, Some b -> Some (Int.min a b)
    in
    if spans then span_end "engine.heap" !round;
    match next with
    | None -> continue := false
    | Some r ->
      if r > max_rounds then
        raise
          (Round_limit_exceeded
             { protocol = proto.name; round_reached = r; partial = current_trace () });
      (match deadline_guard with None -> () | Some check -> check r);
      (* Collect the active set: inbox recipients plus due wake-ups. *)
      if spans then span_begin "engine.delivery" r;
      let flushed = (not fault_free) && flush_arrivals r in
      (* If we fast-forwarded past round+1, inboxes must be empty. *)
      collect_active r ~from_inboxes:(flushed || (fault_free && r = !round + 1));
      let k = !n_active in
      if observed then emit (Telemetry.Events.Round_start { round = r; active = k });
      (* Drain every active inbox before running handlers so that
         messages sent in round r arrive in round r+1. *)
      for i = 0 to k - 1 do
        inboxes.(i) <- mailbox_drain boxes.(active.(i))
      done;
      if spans then span_end "engine.delivery" r;
      round := r;
      reset_round_ledger ();
      any_sends_this_round := false;
      if spans then span_begin "engine.compute" r;
      for i = 0 to k - 1 do
        let id = active.(i) and inbox = inboxes.(i) in
        inboxes.(i) <- [];
        incr activations;
        let s', act = proto.on_round views.(id) ~round:r states.(id) ~inbox in
        states.(id) <- s';
        apply ~round:r id act
      done;
      if spans then span_end "engine.compute" r
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
        (List.sort
           (fun (r1, i1) (r2, i2) ->
             if r1 <> r2 then Int.compare r1 r2 else Int.compare i1 i2)
           !crashes)
    | None -> ());
    emit (Telemetry.Events.Run_end { round = trace.rounds })
  end;
  (states, trace)
