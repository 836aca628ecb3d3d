type t = {
  root : int;
  parent : int array;
  children : int array array;
  level : int array;
  depth : int;
}

(* Execute a protocol either directly (perfect network, the default)
   or wrapped in the reliable-delivery combinator — mandatory as soon
   as faults are injected, optional otherwise (to measure the ack /
   retransmission overhead on a clean network). *)
let run_protocol ?bandwidth ?faults ?reliable ?sink g proto =
  match (faults, reliable) with
  | None, None -> Engine.run ?bandwidth ?sink g proto
  | _ ->
    let config = Option.value reliable ~default:Reliable.default_config in
    Reliable.run ?bandwidth ?faults ?sink ~config g proto

(* ------------------------------------------------------------------ *)
(* BFS tree construction by flooding.                                  *)
(* ------------------------------------------------------------------ *)

(* The flooding is *self-stabilizing*: a node adopts the best (level,
   sender) offer it has seen and re-adopts whenever a strictly better
   level arrives, re-announcing its level and retracting the stale
   child claim. On a perfect synchronous network offers arrive in BFS
   wavefront order, so the first adoption is already optimal and the
   execution is message-for-message the classical flooding; under a
   lossy/reordering network (with the {!Reliable} wrapper ensuring
   eventual exactly-once delivery) the monotone improvement rule still
   converges to the exact BFS levels. Child/Retract claims carry a
   per-sender adoption counter so that a reordered stale claim can
   never overwrite a newer one. *)
type build_msg = Level of int | Child of int | Retract of int

type build_state = {
  b_parent : int;
  b_level : int;
  b_children : int list;
  b_claims : (int * int) list; (* per-neighbor last applied claim counter *)
  b_adoptions : int; (* my own claim counter *)
}

let build_protocol ~root : (build_state, build_msg) Engine.protocol =
  let initial = { b_parent = -1; b_level = -1; b_children = []; b_claims = []; b_adoptions = 0 } in
  {
    name = "bfs-tree";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Node_view.id = root then
          ({ initial with b_parent = -1; b_level = 0 }, Engine.broadcast [ Level 0 ])
        else (initial, Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        (* Child claims / retractions (can arrive any time after we
           joined); only a claim newer than the last applied one from
           that neighbor takes effect. *)
        let s =
          List.fold_left
            (fun s { Engine.src; msg; _ } ->
              match msg with
              | Level _ -> s
              | Child c | Retract c ->
                let last = Option.value ~default:0 (List.assoc_opt src s.b_claims) in
                if c <= last then s
                else begin
                  let others = List.filter (fun v -> v <> src) s.b_children in
                  let b_children =
                    match msg with Child _ -> src :: others | _ -> others
                  in
                  { s with b_children; b_claims = (src, c) :: List.remove_assoc src s.b_claims }
                end)
            s inbox
        in
        if view.Node_view.id = root then (s, Engine.no_action)
        else begin
          let offers =
            List.filter_map
              (fun { Engine.src; msg; _ } ->
                match msg with Level l -> Some (src, l) | Child _ | Retract _ -> None)
              inbox
          in
          match offers with
          | [] -> (s, Engine.no_action)
          | (src0, l0) :: rest ->
            let parent, l =
              List.fold_left
                (fun (bs, bl) (src, l) -> if l < bl || (l = bl && src < bs) then (src, l) else (bs, bl))
                (src0, l0) rest
            in
            if s.b_level >= 0 && l + 1 >= s.b_level then (s, Engine.no_action)
            else begin
              let my_level = l + 1 in
              let c = s.b_adoptions + 1 in
              let retract =
                if s.b_parent >= 0 && s.b_parent <> parent then [ (s.b_parent, Retract c) ]
                else []
              in
              let msgs =
                ((parent, Child c) :: retract)
                @ List.filter_map
                    (fun (v, _) -> if v = parent then None else Some (v, Level my_level))
                    (Array.to_list view.neighbors)
              in
              ( { s with b_parent = parent; b_level = my_level; b_adoptions = c },
                Engine.send msgs )
            end
        end);
  }

(* ------------------------------------------------------------------ *)
(* Convergecast.                                                       *)
(* ------------------------------------------------------------------ *)

type 'a cc_state = {
  cc_acc : 'a;
  cc_waiting : int; (* children not yet heard from *)
  cc_sent : bool;
}

let convergecast_protocol tree ~values ~combine ~size_words : ('a cc_state, 'a) Engine.protocol =
  {
    name = "convergecast";
    size_words;
    init =
      (fun view ->
        let me = view.Node_view.id in
        let waiting = Array.length tree.children.(me) in
        let s = { cc_acc = values.(me); cc_waiting = waiting; cc_sent = false } in
        (* parent < 0: orphan (e.g. crashed during construction) —
           it has nowhere to report to. *)
        if waiting = 0 && me <> tree.root && tree.parent.(me) >= 0 then
          ({ s with cc_sent = true }, Engine.send [ (tree.parent.(me), s.cc_acc) ])
        else (s, Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        let me = view.Node_view.id in
        let s =
          List.fold_left
            (fun s { Engine.msg; _ } ->
              { s with cc_acc = combine s.cc_acc msg; cc_waiting = s.cc_waiting - 1 })
            s inbox
        in
        if s.cc_waiting = 0 && (not s.cc_sent) && me <> tree.root && tree.parent.(me) >= 0 then
          ({ s with cc_sent = true }, Engine.send [ (tree.parent.(me), s.cc_acc) ])
        else (s, Engine.no_action));
  }

let convergecast ?bandwidth ?faults ?reliable ?sink g tree ~values ~combine ~size_words =
  let states, trace =
    run_protocol ?bandwidth ?faults ?reliable ?sink g (convergecast_protocol tree ~values ~combine ~size_words)
  in
  (states.(tree.root).cc_acc, trace)

(* ------------------------------------------------------------------ *)
(* Pipelined broadcast of the root's token list.                       *)
(* ------------------------------------------------------------------ *)

type 'tok bc_state = {
  bc_received : 'tok list; (* reversed arrival order *)
  bc_queue : 'tok list; (* still to forward, in order *)
}

let broadcast_protocol tree ~tokens ~size_words : ('tok bc_state, 'tok) Engine.protocol =
  let forward view s ~round =
    let me = view.Node_view.id in
    match s.bc_queue with
    | [] -> (s, Engine.no_action)
    | tok :: rest ->
      let sends = Array.to_list (Array.map (fun c -> (c, tok)) tree.children.(me)) in
      let act =
        if rest = [] then Engine.send sends else Engine.send_and_wake sends (round + 1)
      in
      ({ s with bc_queue = rest }, act)
  in
  {
    name = "broadcast-tokens";
    size_words;
    init =
      (fun view ->
        if view.Node_view.id = tree.root then
          forward view { bc_received = List.rev tokens; bc_queue = tokens } ~round:0
        else ({ bc_received = []; bc_queue = [] }, Engine.no_action));
    on_round =
      (fun view ~round s ~inbox ->
        let arrivals = List.map (fun { Engine.msg; _ } -> msg) inbox in
        let s =
          {
            bc_received = List.rev_append arrivals s.bc_received;
            bc_queue = s.bc_queue @ arrivals;
          }
        in
        forward view s ~round);
  }

let broadcast_tokens ?bandwidth ?faults ?reliable ?sink g tree ~tokens ~size_words =
  let states, trace = run_protocol ?bandwidth ?faults ?reliable ?sink g (broadcast_protocol tree ~tokens ~size_words) in
  (Array.map (fun s -> List.rev s.bc_received) states, trace)

let broadcast_rounds g tree i =
  (snd (broadcast_tokens g tree ~tokens:[ i ] ~size_words:(fun _ -> 1))).Engine.rounds

(* ------------------------------------------------------------------ *)
(* Pipelined upcast of distinct items.                                 *)
(* ------------------------------------------------------------------ *)

module Upcast = struct
  type 'tok state = {
    seen : 'tok list; (* sorted, deduplicated *)
    unsent : 'tok list; (* sorted: still to push to parent *)
  }

  let rec insert compare x = function
    | [] -> [ x ]
    | y :: rest as l ->
      let c = compare x y in
      if c < 0 then x :: l else if c = 0 then l else y :: insert compare x rest

  let mem compare x l = List.exists (fun y -> compare x y = 0) l
end

let upcast_protocol tree ~items ~compare ~size_words :
    ('tok Upcast.state, 'tok) Engine.protocol =
  let open Upcast in
  let push view s ~round =
    let me = view.Node_view.id in
    if me = tree.root || tree.parent.(me) < 0 then (s, Engine.no_action)
    else
      match s.unsent with
      | [] -> (s, Engine.no_action)
      | tok :: rest ->
        let act =
          if rest = [] then Engine.send [ (tree.parent.(me), tok) ]
          else Engine.send_and_wake [ (tree.parent.(me), tok) ] (round + 1)
        in
        ({ s with unsent = rest }, act)
  in
  {
    name = "upcast";
    size_words;
    init =
      (fun view ->
        let mine = List.sort_uniq compare items.(view.Node_view.id) in
        push view { seen = mine; unsent = mine } ~round:0);
    on_round =
      (fun view ~round s ~inbox ->
        let s =
          List.fold_left
            (fun s { Engine.msg; _ } ->
              if mem compare msg s.seen then s
              else
                {
                  seen = insert compare msg s.seen;
                  unsent = insert compare msg s.unsent;
                })
            s inbox
        in
        push view s ~round);
  }

let upcast ?bandwidth ?faults ?reliable ?sink g tree ~items ~compare ~size_words =
  let states, trace = run_protocol ?bandwidth ?faults ?reliable ?sink g (upcast_protocol tree ~items ~compare ~size_words) in
  (states.(tree.root).Upcast.seen, trace)

(* ------------------------------------------------------------------ *)
(* Tree construction driver.                                           *)
(* ------------------------------------------------------------------ *)

let build ?bandwidth ?faults ?reliable ?sink g ~root =
  if not (Graphlib.Wgraph.is_connected g) then invalid_arg "Tree.build: disconnected graph";
  let states, trace1 = run_protocol ?bandwidth ?faults ?reliable ?sink g (build_protocol ~root) in
  let n = Graphlib.Wgraph.n g in
  let parent = Array.make n (-1) in
  let level = Array.make n 0 in
  let children = Array.make n [||] in
  Array.iteri
    (fun id s ->
      parent.(id) <- s.b_parent;
      level.(id) <- (if id = root then 0 else s.b_level);
      children.(id) <- Array.of_list (List.sort Int.compare s.b_children))
    states;
  let provisional = { root; parent; children; level; depth = 0 } in
  (* Nodes learn the depth: convergecast of max level, then broadcast.
     Both are honest protocols whose rounds we add to the trace. *)
  let depth, trace2 =
    convergecast ?bandwidth ?faults ?reliable ?sink g provisional ~values:(Array.copy level) ~combine:max
      ~size_words:(fun _ -> 1)
  in
  let _, trace3 =
    broadcast_tokens ?bandwidth ?faults ?reliable ?sink g provisional ~tokens:[ depth ] ~size_words:(fun _ -> 1)
  in
  let trace = Engine.add_traces trace1 (Engine.add_traces trace2 trace3) in
  ({ root; parent; children; level; depth }, trace)

let gather_broadcast ?bandwidth ?faults ?reliable ?sink g tree ~items ~compare ~size_words =
  let collected, t1 = upcast ?bandwidth ?faults ?reliable ?sink g tree ~items ~compare ~size_words in
  let _, t2 = broadcast_tokens ?bandwidth ?faults ?reliable ?sink g tree ~tokens:collected ~size_words in
  (collected, Engine.add_traces t1 t2)

(* ------------------------------------------------------------------ *)
(* Gather traces by holder multiset.                                   *)
(* ------------------------------------------------------------------ *)

(* Keys are sorted holder lists. The hash reads every entry, where
   [Hashtbl.hash] would stop after the first ten. *)
module Holders = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
end)

type gather_memo = { g : Graphlib.Wgraph.t; tree : t; traces : Engine.trace Holders.t }

let gather_memo g tree = { g; tree; traces = Holders.create 64 }

let gather_trace memo g tree ~holders =
  if not (g == memo.g && tree == memo.tree) then
    invalid_arg "Tree.gather_trace: memo of another graph or tree";
  let key = Array.copy holders in
  Util.Int_heap.sort key (Array.length key);
  match Holders.find_opt memo.traces key with
  | Some trace -> trace
  | None ->
    (* Item [i] is the int [i], held by [key.(i)]. *)
    let items = Array.make (Graphlib.Wgraph.n memo.g) [] in
    Array.iteri (fun i v -> items.(v) <- i :: items.(v)) key;
    let _, trace =
      gather_broadcast memo.g memo.tree ~items ~compare:Int.compare ~size_words:(fun _ -> 1)
    in
    Holders.add memo.traces key trace;
    trace
