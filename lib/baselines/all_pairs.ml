type msg = { src_node : int; dist : int }

type state = {
  table : (int, int) Hashtbl.t; (* source -> best distance *)
  queue : msg Queue.t; (* tokens awaiting broadcast *)
  queued : (int, int) Hashtbl.t; (* source -> dist currently queued *)
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
let enqueue st m =
  match Hashtbl.find_opt st.queued m.src_node with
  | Some d when d <= m.dist -> ()
  | _ ->
    Hashtbl.replace st.queued m.src_node m.dist;
    Queue.add m st.queue

let rec next_fresh st =
  match Queue.take_opt st.queue with
  | None -> None
  | Some m ->
    (* Skip tokens superseded by a better queued/known distance. *)
    (match (Hashtbl.find_opt st.queued m.src_node, Hashtbl.find_opt st.table m.src_node) with
    | Some q, Some best when q = m.dist && best = m.dist ->
      Hashtbl.remove st.queued m.src_node;
      Some m
    | _ -> next_fresh st)

let protocol ~sources : (state, msg) Congest.Engine.protocol =
  let source_set = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace source_set s ()) sources;
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
          { table = Hashtbl.create 64; queue = Queue.create (); queued = Hashtbl.create 16;
            sent = 0 }
        in
        let me = view.Congest.Node_view.id in
        if Hashtbl.mem source_set me then begin
          Hashtbl.replace st.table me 0;
          enqueue st { src_node = me; dist = 0 }
        end;
        flush st ~round:0);
    on_round =
      (fun _ ~round st ~inbox ->
        List.iter
          (fun { Congest.Engine.w; msg = { src_node; dist }; _ } ->
            let cand = dist + w in
            let better =
              match Hashtbl.find_opt st.table src_node with
              | Some best -> cand < best
              | None -> true
            in
            if better then begin
              Hashtbl.replace st.table src_node cand;
              enqueue st { src_node; dist = cand }
            end)
          inbox;
        flush st ~round);
  }

let run g ~sources =
  let n = Graphlib.Wgraph.n g in
  List.iter (fun s -> if s < 0 || s >= n then invalid_arg "All_pairs.run: source range") sources;
  let states, trace = Congest.Engine.run ~max_rounds:100_000_000 g (protocol ~sources) in
  let dist =
    Array.map
      (fun st ->
        Array.init n (fun s ->
            match Hashtbl.find_opt st.table s with Some d -> d | None -> Graphlib.Dist.inf))
      states
  in
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
