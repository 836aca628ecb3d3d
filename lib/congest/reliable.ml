type config = {
  timeout : int;
  backoff : int;
  max_timeout : int;
  max_retries : int;
}

let default_config = { timeout = 4; backoff = 2; max_timeout = 64; max_retries = 25 }

type 'm msg = Data of { seq : int; body : 'm } | Ack of int

(* One unacknowledged data message held for retransmission. *)
type 'm pending = {
  p_dst : int;
  p_seq : int;
  p_body : 'm;
  p_due : int;  (* round of the next retransmission *)
  p_timeout : int;  (* current (backed-off) timeout *)
  p_retries : int;
}

(* Receive side of one incoming stream: the next sequence number we
   deliver inward, plus out-of-order arrivals parked until the gap
   fills (delivery is FIFO per sender, like TCP, so retransmission
   and delay jitter can never reorder what the inner protocol sees). *)
type 'm stream = {
  expected : int;
  parked : (int * 'm) list;  (* (seq, body), seq > expected, sorted *)
}

(* One message abandoned after exhausting its retransmission budget:
   the structured give-up outcome surfaced per node. *)
type give_up = { gu_dst : int; gu_seq : int; gu_retries : int; gu_round : int }

type ('s, 'm) state = {
  st_inner : 's;
  next_seq : (int * int) list;  (* per-destination next sequence number *)
  pending : 'm pending list;  (* deterministic order, newest first *)
  streams : (int * 'm stream) list;  (* per-source receive state *)
  inner_wakes : int list;  (* rounds the inner protocol asked to wake at *)
  st_abandoned : give_up list;  (* newest first *)
}

let inner st = st.st_inner
let given_up st = List.length st.st_abandoned
let abandoned st = List.rev st.st_abandoned

let check_config c =
  if c.timeout < 3 then invalid_arg "Reliable: timeout < 3 (round trip takes 2 rounds)";
  if c.backoff < 1 then invalid_arg "Reliable: backoff < 1";
  if c.max_timeout < c.timeout then invalid_arg "Reliable: max_timeout < timeout";
  if c.max_retries < 0 then invalid_arg "Reliable: max_retries < 0"

(* Wrap the inner action produced at [round]: expand its broadcast into
   per-neighbor sends after its own sends (the engine's delivery
   order), assign per-destination sequence numbers, register pending
   entries, pass inner wakes through. *)
let integrate config view st ~round (inner', act) =
  let st = ref { st with st_inner = inner' } in
  let inner_sends =
    act.Engine.sends
    @ List.concat_map
        (fun m -> Array.to_list (Array.map (fun (v, _) -> (v, m)) view.Node_view.neighbors))
        act.Engine.broadcast
  in
  let data_sends =
    List.map
      (fun (dst, body) ->
        let seq = Option.value ~default:0 (List.assoc_opt dst !st.next_seq) in
        let pend =
          {
            p_dst = dst;
            p_seq = seq;
            p_body = body;
            p_due = round + config.timeout;
            p_timeout = config.timeout;
            p_retries = 0;
          }
        in
        st :=
          { !st with
            next_seq = (dst, seq + 1) :: List.remove_assoc dst !st.next_seq;
            pending = pend :: !st.pending };
        (dst, Data { seq; body }))
      inner_sends
  in
  let inner_wakes =
    List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) !st.inner_wakes
      act.Engine.wakes
  in
  ({ !st with inner_wakes }, data_sends, act.Engine.wakes)

(* Retransmit every pending entry due at [round], backing off its
   timeout; entries out of retries are abandoned. *)
let retransmit config st ~round =
  let due, rest = List.partition (fun pd -> pd.p_due <= round) st.pending in
  let st = ref { st with pending = rest } in
  let sends =
    List.filter_map
      (fun pd ->
        if pd.p_retries >= config.max_retries then begin
          let gu =
            { gu_dst = pd.p_dst; gu_seq = pd.p_seq; gu_retries = pd.p_retries; gu_round = round }
          in
          st := { !st with st_abandoned = gu :: !st.st_abandoned };
          None
        end
        else begin
          let timeout = min (pd.p_timeout * config.backoff) config.max_timeout in
          let pd' =
            { pd with p_due = round + timeout; p_timeout = timeout; p_retries = pd.p_retries + 1 }
          in
          st := { !st with pending = pd' :: !st.pending };
          Some (pd.p_dst, Data { seq = pd.p_seq; body = pd.p_body })
        end)
      (List.rev due)
  in
  (!st, sends)

let min_due pending =
  List.fold_left
    (fun acc pd -> match acc with None -> Some pd.p_due | Some d -> Some (min d pd.p_due))
    None pending

(* Accept [seq]/[body] from [src]: park, drop as duplicate, or deliver
   in order together with any parked successors. Returns the stream
   table and the newly deliverable bodies, oldest first. *)
let accept streams ~src ~seq ~body =
  let stream =
    Option.value ~default:{ expected = 0; parked = [] } (List.assoc_opt src streams)
  in
  if seq < stream.expected || List.mem_assoc seq stream.parked then (streams, [])
  else if seq > stream.expected then
    let parked =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) ((seq, body) :: stream.parked)
    in
    ((src, { stream with parked }) :: List.remove_assoc src streams, [])
  else begin
    (* In-order arrival: drain the run of consecutive parked seqs. *)
    let rec drain expected parked acc =
      match parked with
      | (s, b) :: rest when s = expected -> drain (expected + 1) rest (b :: acc)
      | _ -> (expected, parked, List.rev acc)
    in
    let expected, parked, drained = drain (seq + 1) stream.parked [] in
    ((src, { expected; parked }) :: List.remove_assoc src streams, body :: drained)
  end

let wrap ?(config = default_config) (p : ('s, 'm) Engine.protocol) :
    (('s, 'm) state, 'm msg) Engine.protocol =
  check_config config;
  let finish ~round (st, sends, extra_wakes) =
    (* One wake covers all pending retransmissions: the earliest due
       round (the engine deduplicates same-round wakes). *)
    let wakes =
      match min_due st.pending with
      | Some d when d > round -> d :: extra_wakes
      | _ -> extra_wakes
    in
    (st, { Engine.sends; broadcast = []; wakes = List.sort_uniq Int.compare wakes })
  in
  {
    name = "reliable:" ^ p.name;
    size_words = (function Data { body; _ } -> 1 + p.size_words body | Ack _ -> 1);
    init =
      (fun view ->
        let inner0, act = p.init view in
        let st0 =
          {
            st_inner = inner0;
            next_seq = [];
            pending = [];
            streams = [];
            inner_wakes = [];
            st_abandoned = [];
          }
        in
        let st, data_sends, inner_wakes = integrate config view st0 ~round:0 (inner0, act) in
        finish ~round:0 (st, data_sends, inner_wakes));
    on_round =
      (fun view ~round st ~inbox ->
        (* 1. Acknowledgements release pending entries. *)
        let acked =
          Engine.Inbox.fold
            (fun acked ~src ~w:_ msg ->
              match msg with Ack seq -> (src, seq) :: acked | Data _ -> acked)
            [] inbox
        in
        let st =
          if acked = [] then st
          else
            { st with
              pending =
                List.filter (fun pd -> not (List.mem (pd.p_dst, pd.p_seq) acked)) st.pending }
        in
        (* 2. Every data message is (re-)acknowledged; payloads reach
           the inner protocol exactly once and in per-sender order. *)
        let ack_sends, streams, fresh =
          Engine.Inbox.fold
            (fun ((ack_sends, streams, fresh) as acc) ~src ~w msg ->
              match msg with
              | Ack _ -> acc
              | Data { seq; body } ->
                let streams, delivered = accept streams ~src ~seq ~body in
                let fresh =
                  List.fold_left (fun fresh b -> { Engine.src; w; msg = b } :: fresh) fresh delivered
                in
                ((src, Ack seq) :: ack_sends, streams, fresh))
            ([], st.streams, []) inbox
        in
        let st = { st with streams } in
        let ack_sends = List.rev ack_sends in
        (* Inbox arrives sorted by src; within one src the deliveries
           are already in sequence order. *)
        let fresh =
          List.stable_sort (fun a b -> Int.compare a.Engine.src b.Engine.src) (List.rev fresh)
        in
        (* 3. Run the inner protocol iff it has input or asked for
           this wake-up (spurious retransmission wakes stay invisible
           to it). *)
        let wants_wake = List.mem round st.inner_wakes in
        let st = { st with inner_wakes = List.filter (fun w -> w <> round) st.inner_wakes } in
        let st, data_sends, inner_wakes =
          if fresh <> [] || wants_wake then
            integrate config view st ~round
              (p.on_round view ~round st.st_inner ~inbox:(Engine.Inbox.of_envelopes fresh))
          else (st, [], [])
        in
        (* 4. Retransmissions due now. *)
        let st, retx_sends = retransmit config st ~round in
        finish ~round (st, ack_sends @ data_sends @ retx_sends, inner_wakes));
  }

let run ?bandwidth ?max_rounds ?faults ?sink ?config g p =
  let states, trace = Engine.run ?bandwidth ?max_rounds ?faults ?sink g (wrap ?config p) in
  (Array.map (fun st -> st.st_inner) states, trace)
