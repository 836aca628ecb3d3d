type msg = { src_node : int; dist : int }

(* A node's knowledge, per source id: [best] is its best distance and
   [queued] the distance of its queued token, [Graphlib.Dist.inf] for
   none. *)
type state = {
  best : Graphlib.Dist.t array;
  queued : Graphlib.Dist.t array;
  queue : msg Queue.t; (* tokens awaiting broadcast *)
  mutable sent : int;
}

type output = {
  dist : Graphlib.Dist.t array array;
  trace : Congest.Engine.trace;
  tokens_sent : int;
}

(* Enqueue a token for broadcast, replacing any staler queued token for
   the same source (keeps queues short and the protocol at one
   broadcast per improvement chain). *)
let enqueue st (m : msg) =
  if m.dist < st.queued.(m.src_node) then begin
    st.queued.(m.src_node) <- m.dist;
    Queue.add m st.queue
  end

let rec next_fresh st =
  match Queue.take_opt st.queue with
  | None -> None
  | Some (m : msg) ->
    (* Skip tokens superseded by a better queued/known distance. *)
    if st.queued.(m.src_node) = m.dist && st.best.(m.src_node) = m.dist then begin
      st.queued.(m.src_node) <- Graphlib.Dist.inf;
      Some m
    end
    else next_fresh st

let protocol ~n ~sources : (state, msg) Congest.Engine.protocol =
  let is_source = Array.make n false in
  List.iter (fun s -> is_source.(s) <- true) sources;
  let flush st ~round =
    match next_fresh st with
    | None -> (st, Congest.Engine.no_action)
    | Some m ->
      st.sent <- st.sent + 1;
      let wakes = if Queue.is_empty st.queue then [] else [ round + 1 ] in
      (st, { Congest.Engine.sends = []; broadcast = [ m ]; wakes })
  in
  {
    name = "apsp-token-flood";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let st =
          {
            best = Array.make n Graphlib.Dist.inf;
            queued = Array.make n Graphlib.Dist.inf;
            queue = Queue.create ();
            sent = 0;
          }
        in
        let me = view.Congest.Node_view.id in
        if is_source.(me) then begin
          st.best.(me) <- 0;
          enqueue st { src_node = me; dist = 0 }
        end;
        flush st ~round:0);
    on_round =
      (fun _ ~round st ~inbox ->
        (* The inbox's arrays, read in an index loop: the accessors
           would be a function call per message. *)
        let { Congest.Engine.Inbox.length; weight; slot; store; _ } = inbox in
        for i = 0 to length - 1 do
          let { src_node; dist } = store.(slot.(i)) in
          let cand = dist + weight.(i) in
          if cand < st.best.(src_node) then begin
            st.best.(src_node) <- cand;
            enqueue st { src_node; dist = cand }
          end
        done;
        flush st ~round);
  }

let run g ~sources =
  let n = Graphlib.Wgraph.n g in
  List.iter (fun s -> if s < 0 || s >= n then invalid_arg "All_pairs.run: source range") sources;
  let states, trace = Congest.Engine.run ~max_rounds:100_000_000 g (protocol ~n ~sources) in
  let dist = Array.map (fun st -> st.best) states in
  let tokens_sent = Array.fold_left (fun acc st -> acc + st.sent) 0 states in
  { dist; trace; tokens_sent }

type extremum_output = {
  value : int;
  rounds : int;
  trace : Congest.Engine.trace;
}

let extremum g ~tree ~combine =
  let n = Graphlib.Wgraph.n g in
  let apsp = run g ~sources:(List.init n (fun i -> i)) in
  (* Each node's eccentricity is local knowledge now. *)
  let ecc = Array.map (fun row -> Array.fold_left max 0 row) apsp.dist in
  let value, cc_trace =
    Congest.Tree.convergecast g tree ~values:ecc ~combine ~size_words:(fun _ -> 1)
  in
  let trace = Congest.Engine.add_traces apsp.trace cc_trace in
  { value; rounds = trace.Congest.Engine.rounds; trace }

let diameter g ~tree = extremum g ~tree ~combine:max

let radius g ~tree = extremum g ~tree ~combine:min
