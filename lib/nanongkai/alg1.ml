type msg = { scale : int; dist : int }

(* The node's single instance lives in slot 0 of its own bank. *)
type state = { inst : Bh_instance.bank; sent : int }

type output = {
  dtilde : float array;
  trace : Congest.Engine.trace;
  broadcasts_per_node : int array;
}

let protocol ~src ~params : (state, msg) Congest.Engine.protocol =
  let decide view s ~round =
    match Bh_instance.decide s.inst 0 ~round with
    | Bh_instance.Quiet -> (s, Congest.Engine.no_action)
    | Bh_instance.Wake -> (s, Congest.Engine.wake (Bh_instance.wake_round s.inst 0))
    | Bh_instance.Broadcast ->
      let msg = { scale = Bh_instance.scale s.inst 0; dist = Bh_instance.dist s.inst 0 } in
      let sent = if Congest.Node_view.degree view = 0 then s.sent else s.sent + 1 in
      ({ s with sent }, Congest.Engine.broadcast [ msg ])
  in
  {
    name = "alg1-bounded-hop-sssp";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let cfg =
          Bh_instance.make_cfg ~params ~n:view.Congest.Node_view.n
            ~max_w:view.Congest.Node_view.max_w ~offset:0
            ~is_source:(view.Congest.Node_view.id = src)
        in
        let s, action =
          decide view { inst = Bh_instance.bank 1 (fun _ -> cfg); sent = 0 } ~round:0
        in
        ( s,
          {
            action with
            Congest.Engine.wakes = Bh_instance.initial_wakes cfg @ action.Congest.Engine.wakes;
          } ));
    on_round =
      (fun view ~round s ~inbox ->
        for i = 0 to Congest.Engine.Inbox.length inbox - 1 do
          let { scale; dist } = Congest.Engine.Inbox.msg inbox i in
          let w = Congest.Engine.Inbox.weight inbox i in
          Bh_instance.on_message s.inst 0 ~round ~scale ~dist
            ~scaled_w:(Graphlib.Reweight.scaled_weight params ~i:scale ~w)
        done;
        decide view s ~round);
  }

let run g ~src ~params =
  if src < 0 || src >= Graphlib.Wgraph.n g then invalid_arg "Alg1.run";
  let states, trace = Congest.Engine.run g (protocol ~src ~params) in
  {
    dtilde = Array.map (fun s -> Bh_instance.finalize s.inst 0) states;
    trace;
    broadcasts_per_node = Array.map (fun s -> s.sent) states;
  }
