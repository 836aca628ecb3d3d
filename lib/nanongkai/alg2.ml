type state = { dist : Graphlib.Dist.t; broadcasted : bool }

type output = {
  dist : Graphlib.Dist.t array;
  trace : Congest.Engine.trace;
}

let protocol ~src ~bound : (state, int) Congest.Engine.protocol =
  {
    name = "alg2-bounded-distance-sssp";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Congest.Node_view.id = src then
          ({ dist = 0; broadcasted = true }, Congest.Engine.broadcast [ 0 ])
        else ({ dist = Graphlib.Dist.inf; broadcasted = false }, Congest.Engine.no_action));
    on_round =
      (fun _ ~round s ~inbox ->
        let s =
          Congest.Engine.Inbox.fold
            (fun (s : state) ~src:_ ~w du ->
              let cand = Graphlib.Dist.add du w in
              if cand <= bound && Graphlib.Dist.compare cand s.dist < 0 then
                { s with dist = cand }
              else s)
            s inbox
        in
        if (not s.broadcasted) && Graphlib.Dist.is_finite s.dist then begin
          if s.dist = round then
            ({ s with broadcasted = true }, Congest.Engine.broadcast [ s.dist ])
          else if s.dist > round then (s, Congest.Engine.wake s.dist)
          else (s, Congest.Engine.no_action)
        end
        else (s, Congest.Engine.no_action));
  }

let run g ~src ~bound =
  if bound < 0 then invalid_arg "Alg2.run: negative bound";
  let states, trace = Congest.Engine.run g (protocol ~src ~bound) in
  { dist = Array.map (fun (s : state) -> s.dist) states; trace }
