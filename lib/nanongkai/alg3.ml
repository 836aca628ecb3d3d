type msg = { j : int; scale : int; dist : int }

type output = {
  dtilde : float array array;
  delays : int array;
  stretch : int;
  delay_trace : Congest.Engine.trace;
  concurrent_trace : Congest.Engine.trace;
  charged_rounds : int;
  congestion_ok : bool;
}

(* Instance [j]'s configuration at node [id]. A node sees only the
   public [n] and [W] and whether it is [s_j], so the run builds each
   instance's source and non-source configurations once and every node
   looks its own up. Offsets start at round 1 so that even Δ=0
   instances have a strictly-future wake to request at init. *)
let instance_cfgs ~sources ~delays ~params ~n ~max_w =
  let make ~is_source j =
    Bh_instance.make_cfg ~params ~n ~max_w ~offset:(delays.(j) + 1) ~is_source
  in
  let at_source = Array.mapi (fun j _ -> make ~is_source:true j) sources in
  let elsewhere = Array.mapi (fun j _ -> make ~is_source:false j) sources in
  fun ~id j -> if id = sources.(j) then at_source.(j) else elsewhere.(j)

let concurrent_protocol ~b ~cfg ~scaled_weight :
    (Bh_instance.bank, msg) Congest.Engine.protocol =
  (* A node's bank holds its [b] instances and is updated in place.
     The per-activation work is two loops, so an activation allocates
     only its broadcast list (one message per instance that speaks,
     whatever the degree) and its action. The inbox is read through its
     arrays in an index loop: the accessors would be a function call per
     message. Only the slots that [Bh_instance.may_act] are decided:
     any other slot would stay quiet or repeat a wake it already asked
     for. The wake list may repeat a round; the engine removes
     duplicates. The broadcast list is built newest first, so each
     neighbor receives one activation's messages in decreasing [j]. *)
  let fold_inbox insts ~round (inbox : msg Congest.Engine.Inbox.t) =
    let { Congest.Engine.Inbox.length; weight; slot; store; _ } = inbox in
    for i = 0 to length - 1 do
      let { j; scale; dist } = store.(slot.(i)) in
      Bh_instance.on_message insts j ~round ~scale ~dist
        ~scaled_w:(scaled_weight ~i:scale ~w:weight.(i))
    done
  in
  let rec decide_from insts ~round j broadcast wakes =
    if j = b then { Congest.Engine.sends = []; broadcast; wakes }
    else if not (Bh_instance.may_act insts j ~round) then
      decide_from insts ~round (j + 1) broadcast wakes
    else
      match Bh_instance.decide insts j ~round with
      | Bh_instance.Quiet -> decide_from insts ~round (j + 1) broadcast wakes
      | Bh_instance.Broadcast ->
        let msg = { j; scale = Bh_instance.scale insts j; dist = Bh_instance.dist insts j } in
        decide_from insts ~round (j + 1) (msg :: broadcast) wakes
      | Bh_instance.Wake ->
        decide_from insts ~round (j + 1) broadcast (Bh_instance.wake_round insts j :: wakes)
  in
  {
    name = "alg3-multi-source";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let id = view.Congest.Node_view.id in
        let insts = Bh_instance.bank b (cfg ~id) in
        let source_wakes =
          List.concat (List.init b (fun j -> Bh_instance.initial_wakes (cfg ~id j)))
        in
        (* Every instance starts at offset >= 1, so no sends at init;
           sources just arm their phase-base wake-ups. *)
        (insts, Congest.Engine.act ~wakes:source_wakes ()));
    on_round =
      (fun _ ~round insts ~inbox ->
        fold_inbox insts ~round inbox;
        (insts, decide_from insts ~round 0 [] []));
  }

let run ?delays_override g ~tree ~sources ~params ~rng =
  let b = Array.length sources in
  if b = 0 then invalid_arg "Alg3.run: no sources";
  let n = Graphlib.Wgraph.n g in
  let seen = Hashtbl.create b in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Alg3.run: source out of range";
      if Hashtbl.mem seen s then invalid_arg "Alg3.run: duplicate source";
      Hashtbl.replace seen s ())
    sources;
  let lambda = max 1 (Util.Int_math.ilog2_ceil (max 2 n)) in
  (* Leader samples the delays and disseminates them down the tree. *)
  let delays =
    match delays_override with
    | Some d ->
      if Array.length d <> b then invalid_arg "Alg3.run: delays_override length";
      Array.copy d
    | None -> Array.init b (fun _ -> Util.Rng.int rng ((b * lambda) + 1))
  in
  let _, delay_trace =
    Congest.Tree.broadcast_tokens g tree
      ~tokens:(List.init b (fun j -> (j, delays.(j))))
      ~size_words:(fun _ -> 1)
  in
  let max_w = Graphlib.Wgraph.max_weight g in
  let cfg = instance_cfgs ~sources ~delays ~params ~n ~max_w in
  let scaled_weight =
    Graphlib.Reweight.scaler params
      ~scales:(Graphlib.Reweight.num_scales ~n ~max_w ~eps:params.Graphlib.Reweight.eps)
  in
  let states, concurrent_trace =
    Congest.Engine.run ~bandwidth:lambda g (concurrent_protocol ~b ~cfg ~scaled_weight)
  in
  let dtilde =
    Array.init b (fun j ->
        Array.init n (fun v -> Bh_instance.finalize states.(v) j))
  in
  {
    dtilde;
    delays;
    stretch = lambda;
    delay_trace;
    concurrent_trace;
    charged_rounds =
      delay_trace.Congest.Engine.rounds + (concurrent_trace.Congest.Engine.rounds * lambda);
    congestion_ok = concurrent_trace.Congest.Engine.congestion_violations = 0;
  }
