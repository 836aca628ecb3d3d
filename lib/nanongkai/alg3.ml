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
    (Bh_instance.state array, msg) Congest.Engine.protocol =
  (* A node's instance array is its own and is updated in place. *)
  let decide_all view insts ~round =
    let id = view.Congest.Node_view.id in
    let sends = ref [] and wakes = ref [] in
    for j = 0 to b - 1 do
      let inst, effect = Bh_instance.decide (cfg ~id j) insts.(j) ~round in
      insts.(j) <- inst;
      (match effect.Bh_instance.broadcast with
      | Some (scale, dist) ->
        let msg = { j; scale; dist } in
        Array.iter (fun (v, _) -> sends := (v, msg) :: !sends) view.Congest.Node_view.neighbors
      | None -> ());
      match effect.Bh_instance.wake with Some r -> wakes := r :: !wakes | None -> ()
    done;
    (insts, Congest.Engine.act ~sends:!sends ~wakes:(List.sort_uniq compare !wakes) ())
  in
  {
    name = "alg3-multi-source";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let id = view.Congest.Node_view.id in
        let insts = Array.init b (fun j -> Bh_instance.init (cfg ~id j)) in
        let source_wakes =
          List.concat (List.init b (fun j -> Bh_instance.initial_wakes (cfg ~id j)))
        in
        (* Every instance starts at offset >= 1, so no sends at init;
           sources just arm their phase-base wake-ups. *)
        (insts, Congest.Engine.act ~wakes:(List.sort_uniq compare source_wakes) ()));
    on_round =
      (fun view ~round insts ~inbox ->
        let id = view.Congest.Node_view.id in
        List.iter
          (fun { Congest.Engine.src = u; msg = { j; scale; dist } } ->
            match Congest.Node_view.edge_weight view u with
            | None -> ()
            | Some w ->
              insts.(j) <-
                Bh_instance.on_message (cfg ~id j) insts.(j) ~round ~scale ~dist
                  ~scaled_w:(scaled_weight ~i:scale ~w))
          inbox;
        decide_all view insts ~round);
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
        Array.init n (fun v -> Bh_instance.finalize (cfg ~id:v j) states.(v).(j)))
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
