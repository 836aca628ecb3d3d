type 'm envelope = { src : int; w : int; msg : 'm }

module Inbox = struct
  type 'm t = {
    mutable length : int;
    mutable src : int array;
    mutable weight : int array;
    mutable slot : int array;
    mutable store : 'm array;
  }

  let length ib = ib.length

  let check ib i =
    if i < 0 || i >= ib.length then invalid_arg "Engine.Inbox: index out of range"

  let src ib i =
    check ib i;
    ib.src.(i)

  let weight ib i =
    check ib i;
    ib.weight.(i)

  let msg ib i =
    check ib i;
    ib.store.(ib.slot.(i))

  let fold f acc ib =
    let acc = ref acc in
    for i = 0 to ib.length - 1 do
      acc := f !acc ~src:ib.src.(i) ~w:ib.weight.(i) ib.store.(ib.slot.(i))
    done;
    !acc

  let of_envelopes envs =
    let a = Array.of_list envs in
    {
      length = Array.length a;
      src = Array.map (fun (e : _ envelope) -> e.src) a;
      weight = Array.map (fun e -> e.w) a;
      slot = Array.init (Array.length a) Fun.id;
      store = Array.map (fun e -> e.msg) a;
    }
end

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
  on_round : Node_view.t -> round:int -> 's -> inbox:'m Inbox.t -> 's * 'm action;
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

(* One round's messages, each stored once: a broadcast takes one slot
   however many neighbors receive it, and every receiver's inbox entry
   names the slot. The buffer keeps its high-water capacity (and the
   messages last stored in it) across rounds. *)
type 'm store = { mutable msgs : 'm array; mutable used : int }

let store_push st m =
  let cap = Array.length st.msgs in
  if st.used = cap then begin
    let msgs = Array.make (if cap = 0 then 8 else 2 * cap) m in
    Array.blit st.msgs 0 msgs 0 st.used;
    st.msgs <- msgs
  end;
  let slot = st.used in
  st.msgs.(slot) <- m;
  st.used <- slot + 1;
  slot

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
   The load/violation ledger is settled once per action, in scratch
   arrays as long as the longest CSR row; the next event round comes
   from one lazy-deletion int heap instead of Hashtbl.fold min-scans;
   and the per-round active-set scan over all n inboxes is replaced by
   a touched-node list.
   A broadcast walks the sender's CSR row, so it needs no arc search,
   and is stored once however many neighbors receive it; a receiver's
   inbox entry is three ints, with the weight of the arc it crossed.
   The active set and the mailboxes live in arrays reused across
   rounds, and actions are applied by recursive functions defined once
   per run, so the loop allocates nothing of its own per activation or
   per message. *)
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
  (* The messages of the round being run (read by its handlers) and of
     the next round (written by them), by round parity: a message sent
     in round r is read in round r + 1. *)
  let stores = [| { msgs = [||]; used = 0 }; { msgs = [||]; used = 0 } |] in
  (* Mailboxes, also by round parity: node [id]'s inbox for the rounds
     of parity [p] is box [2 * id + p], one entry per message received,
     as sender, edge weight and store slot in three parallel arrays.
     Handlers of round r fill the boxes of parity r + 1 while the boxes
     of parity r are read, so no round's inbox sees the next round's
     messages. A box is itself the view its node's handler receives,
     so an activation writes no pointer unless the store it reads grew.
     Every box starts as the shared empty [no_mail], which stays empty;
     a node gets a box of its own on its first message (most nodes of
     a tree phase receive one or two), and its arrays keep their
     high-water capacity. *)
  let no_mail = { Inbox.length = 0; src = [||]; weight = [||]; slot = [||]; store = [||] } in
  let boxes = Array.make (2 * n) no_mail in
  let grow (box : _ Inbox.t) len =
    let extend a =
      let a' = Array.make (2 * len) 0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    box.src <- extend box.src;
    box.weight <- extend box.weight;
    box.slot <- extend box.slot
  in
  (* Nodes whose inbox became nonempty since the last activation round,
     in delivery order. Every delivered-to node is activated (and its
     box emptied) at the next chosen round, so this list is exactly the
     nonempty-inbox set when it is consumed. *)
  let touched = Array.make n 0 in
  let n_touched = ref 0 in
  let post ~parity dst src w slot =
    let b = (2 * dst) + parity in
    let box =
      let box = boxes.(b) in
      if box != no_mail then box
      else begin
        let box =
          (* Room for one entry, allocated inline: most boxes of a tree
             phase never grow. *)
          { Inbox.length = 0; src = [| 0 |]; weight = [| 0 |]; slot = [| 0 |];
            store = stores.(parity).msgs }
        in
        boxes.(b) <- box;
        box
      end
    in
    let len = box.length in
    if len = 0 then begin
      touched.(!n_touched) <- dst;
      incr n_touched
    end;
    if len = Array.length box.src then grow box len;
    box.src.(len) <- src;
    box.weight.(len) <- w;
    box.slot.(len) <- slot;
    box.length <- len + 1
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
  let messages = ref 0 and words = ref 0 in
  let max_edge_load = ref 0 and violations = ref 0 in
  let activations = ref 0 in
  let dropped = ref 0 and delayed = ref 0 and duplicated = ref 0 in
  let last_send_round = ref (-1) in
  let last_arrival_round = ref 0 in
  let any_sends_this_round = ref false in
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
  (* The bandwidth ledger, settled once per action. A node acts at most
     once per round and only its own action loads its outgoing arcs, so
     an arc's load for the round is final when that action ends. The
     action's loads live in scratch arrays indexed by the arc's position
     in the sender's CSR row, so they are as long as the longest row;
     [dirty] lists the positions it touched, which [settle] resets.
     Without an adversary a broadcast loads every arc of the row alike:
     it adds its words to [row_words] and [load] holds the sends alone,
     so an arc carries [row_words + load]. The adversary path charges
     each arc as it goes, broadcasts included, because a strict-bandwidth
     drop reads the running load, and it keeps the violated flag (so one
     overloaded edge-round counts as exactly one violation however the
     overload accumulates). *)
  let max_deg = ref 0 in
  for u = 0 to n - 1 do
    max_deg := Int.max !max_deg (row_start.(u + 1) - row_start.(u))
  done;
  let load = Array.make (Int.max 1 !max_deg) 0 in
  let dirty = Array.make (Int.max 1 !max_deg) 0 in
  let n_dirty = ref 0 in
  let violated = if fault_free then [||] else Array.make (Int.max 1 !max_deg) false in
  let row_words = ref 0 in
  let touch pos =
    if load.(pos) = 0 && (fault_free || not violated.(pos)) then begin
      dirty.(!n_dirty) <- pos;
      incr n_dirty
    end
  in
  let record_violation pos =
    if not violated.(pos) then begin
      touch pos;
      violated.(pos) <- true;
      incr violations
    end
  in
  (* End of [src]'s action: fold its loads into [max_edge_load] and
     [congestion_violations] (the adversary path did so per charge) and
     reset the scratch. A row overloaded by broadcasts alone is counted
     once per arc there; a send arc only when broadcasts did not already
     overload it. *)
  let settle src =
    let rw = !row_words in
    if rw > 0 then begin
      row_words := 0;
      if rw > !max_edge_load then max_edge_load := rw;
      if rw > bandwidth then violations := !violations + row_start.(src + 1) - row_start.(src)
    end;
    for i = 0 to !n_dirty - 1 do
      let pos = dirty.(i) in
      if fault_free then begin
        let l = rw + load.(pos) in
        if l > !max_edge_load then max_edge_load := l;
        if l > bandwidth && rw <= bandwidth then incr violations
      end
      else violated.(pos) <- false;
      load.(pos) <- 0
    done;
    n_dirty := 0
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
  let size_of msg =
    let sz = proto.size_words msg in
    if sz < 1 then invalid_arg (proto.name ^ ": message size < 1 word");
    sz
  in
  let emit_message ~round ~sz src a =
    if observed then
      emit (Telemetry.Events.Message { round; src; dst = csr_dst.(a); words = sz })
  in
  (* The adversary path's ledger: [sz] more words cross arc [a] now. *)
  let charge ~round ~sz ~pos src a =
    touch pos;
    let cur' = load.(pos) + sz in
    load.(pos) <- cur';
    if cur' > !max_edge_load then max_edge_load := cur';
    if cur' > bandwidth then record_violation pos;
    emit_message ~round ~sz src a
  in
  (* Send [msg] of [sz] words from [src] over its arcs [first] to
     [last]: one arc for a send, the whole CSR row for a broadcast.
     Without an adversary the message is stored once, in the next
     round's store, and each receiver's entry names its slot; a send
     adds its words to its arc's load and a broadcast to [row_words].
     The fault path keeps a copy per receiver instead (its deliveries
     may be delayed or duplicated), so it stores nothing here. *)
  let deliver ~round ~sz src ~first ~last msg =
    let count = last - first + 1 in
    messages := !messages + count;
    words := !words + (count * sz);
    any_sends_this_round := true;
    last_send_round := round;
    match adversary with
    | None ->
      let parity = (round + 1) land 1 in
      let slot = store_push stores.(parity) msg in
      for a = first to last do
        emit_message ~round ~sz src a;
        post ~parity csr_dst.(a) src csr_w.(a) slot
      done
    | Some (f, rng, _) ->
      let base = row_start.(src) in
      for a = first to last do
        let dst = csr_dst.(a) in
        if f.Fault.strict_bandwidth && load.(a - base) + sz > bandwidth then begin
          (* NIC-enforced bandwidth: the whole message is dropped at the
             sender; the edge-round is recorded as violated exactly once. *)
          record_violation (a - base);
          incr dropped;
          if observed then
            emit
              (Telemetry.Events.Fault
                 { round; node = src; peer = dst; kind = Telemetry.Events.Drop_bandwidth sz })
        end
        else begin
          charge ~round ~sz ~pos:(a - base) src a;
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
      done
  in
  let rec deliver_sends ~round src = function
    | [] -> ()
    | (dst, msg) :: rest ->
      let a = arc_of ~src ~dst in
      if a < 0 then
        invalid_arg (Printf.sprintf "%s: node %d sent to non-neighbor %d" proto.name src dst);
      let sz = size_of msg in
      if fault_free then begin
        let pos = a - row_start.(src) in
        touch pos;
        load.(pos) <- load.(pos) + sz
      end;
      deliver ~round ~sz src ~first:a ~last:a msg;
      deliver_sends ~round src rest
  in
  (* Each message to every neighbor in increasing id order: the CSR
     row is sorted, so this is the order of the equivalent sends. The
     message is sized, stored and (without an adversary) charged once,
     whatever the degree. *)
  let rec deliver_broadcast ~round src = function
    | [] -> ()
    | msg :: rest ->
      let first = row_start.(src) and last = row_start.(src + 1) - 1 in
      if first <= last then begin
        let sz = size_of msg in
        if fault_free then row_words := !row_words + sz;
        deliver ~round ~sz src ~first ~last msg
      end;
      deliver_broadcast ~round src rest
  in
  let apply ~round id act =
    deliver_sends ~round id act.sends;
    deliver_broadcast ~round id act.broadcast;
    settle id;
    schedule_wakes round id act.wakes
  in
  (* Move every message due at round [r] into its inbox, each copy in a
     slot of its own in round [r]'s store; messages to a node already
     crashed at [r] are lost. Returns [true] if anything was
     delivered. *)
  let flush_arrivals r =
    match Round_tbl.find_opt arrivals r with
    | None -> false
    | Some l ->
      Round_tbl.remove arrivals r;
      let store = stores.(r land 1) in
      store.used <- 0;
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
            post ~parity:(r land 1) dst env.src env.w (store_push store env.msg)
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
  (* The active set of the round being run, ascending; [stamp.(id)] is
     the last round [id] joined the set. Both are reused across
     rounds. *)
  let active = Array.make n 0 in
  let n_active = ref 0 in
  let stamp = Array.make n (-1) in
  (* Without an adversary a box fills in sender order (handlers run in
     increasing id order). Delayed deliveries can arrive out of order;
     they take a stable sort by sender, which keeps each sender's
     messages in arrival order and so matches the reference's rev +
     stable list sort. *)
  let sort_box (box : _ Inbox.t) =
    let len = box.length and src = box.src in
    let rec in_order i = i >= len || (src.(i - 1) <= src.(i) && in_order (i + 1)) in
    if not (in_order 1) then begin
      let order = Array.init len Fun.id in
      Array.stable_sort (fun i j -> Int.compare src.(i) src.(j)) order;
      let permute a =
        let sorted = Array.map (fun i -> a.(i)) order in
        Array.blit sorted 0 a 0 len
      in
      permute src;
      permute box.weight;
      permute box.slot
    end
  in
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
     increasing id order. A sparse set (8k < n) is sorted in place with
     the int heap sort, O(k log k); a dense one is rewritten in id order
     by one scan of [stamp], O(n), which measured cheaper from 8k = n
     on (DESIGN.md, Performance). *)
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
    if 8 * !n_active >= n then begin
      let k = ref 0 in
      for id = 0 to n - 1 do
        if stamp.(id) = r then begin
          active.(!k) <- id;
          incr k
        end
      done
    end
    else Util.Int_heap.sort active !n_active;
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
      let parity = r land 1 in
      if not fault_free then
        for i = 0 to k - 1 do
          sort_box boxes.((2 * active.(i)) + parity)
        done;
      if spans then span_end "engine.delivery" r;
      round := r;
      any_sends_this_round := false;
      (* Handlers read this round's store and boxes and write the
         other parity's, so messages sent in round r arrive in round
         r+1. *)
      let store = stores.(parity) in
      stores.(1 - parity).used <- 0;
      if spans then span_begin "engine.compute" r;
      for i = 0 to k - 1 do
        let id = active.(i) in
        let box = boxes.((2 * id) + parity) in
        (* The store's array changes only when it grows. *)
        if box.length > 0 && box.store != store.msgs then box.store <- store.msgs;
        incr activations;
        let s', act = proto.on_round views.(id) ~round:r states.(id) ~inbox:box in
        box.length <- 0;
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
