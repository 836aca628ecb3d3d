type output = {
  row : float array;
  trace : Congest.Engine.trace;
  overlay_rounds : int;
  busy_rounds : int;
}

type token = { sender : int; scale : int; dist : int }

let run g ~tree ~(overlay : Overlay.t) ~eps ~src_idx =
  let b = Array.length overlay.Overlay.s_nodes in
  if src_idx < 0 || src_idx >= b then invalid_arg "Alg5.run: bad source index";
  let w2 = overlay.Overlay.w2 in
  let ell' = max 1 (Util.Int_math.ceil_div (4 * b) overlay.Overlay.k) in
  let params = { Graphlib.Reweight.ell = ell'; eps } in
  let max_w2 =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun a x -> if x < Float.infinity && x > a then x else a) acc row)
      1.0 w2
  in
  (* Overlay node [i]'s configuration: only the source's differs. *)
  let make ~is_source =
    Bh_instance.make_cfg ~params ~n:b
      ~max_w:(max 1 (int_of_float (ceil max_w2)))
      ~offset:0 ~is_source
  in
  let at_source = make ~is_source:true and elsewhere = make ~is_source:false in
  let states = Bh_instance.bank b (fun i -> if i = src_idx then at_source else elsewhere) in
  let num_scales = elsewhere.Bh_instance.num_scales in
  let total_rounds = num_scales * elsewhere.Bh_instance.phase_len in
  let scaled_weight = Graphlib.Reweight.scaler_f params ~scales:num_scales in
  (* Per-overlay-round synchronization: count-and-announce [a], an
     O(D) convergecast + broadcast over the tree. Its message pattern
     is independent of the payload, so the overlay's memo measures it
     once and every overlay round of every source is charged that
     trace. *)
  let sync = Congest.Tree.sync_trace overlay.Overlay.gathers g tree in
  let total = ref Congest.Engine.empty_trace in
  let busy = ref 0 in
  let pending = ref [] in
  for tau = 0 to total_rounds do
    (* Deliver the previous overlay round's broadcasts. *)
    List.iter
      (fun { sender; scale; dist } ->
        let w = w2.(sender) in
        for i = 0 to b - 1 do
          if i <> sender && w.(i) < Float.infinity then
            Bh_instance.on_message states i ~round:tau ~scale ~dist
              ~scaled_w:(scaled_weight ~i:scale ~w:w.(i))
        done)
      !pending;
    pending := [];
    (* Decide who speaks in this overlay round. *)
    let speak = ref [] in
    for i = 0 to b - 1 do
      match Bh_instance.decide states i ~round:tau with
      | Bh_instance.Broadcast ->
        let scale = Bh_instance.scale states i and dist = Bh_instance.dist states i in
        speak := { sender = i; scale; dist } :: !speak
      | Bh_instance.Quiet | Bh_instance.Wake -> ()
    done;
    total := Congest.Engine.add_traces !total sync;
    if !speak <> [] then begin
      incr busy;
      (* Physically broadcast the a messages network-wide: each
         speaker's host holds one distinct token, so the set's memo
         prices the gather-broadcast by its holders. *)
      let holders =
        Array.of_list (List.map (fun tok -> overlay.Overlay.s_nodes.(tok.sender)) !speak)
      in
      total :=
        Congest.Engine.add_traces !total
          (Congest.Tree.gather_trace overlay.Overlay.gathers g tree ~holders);
      pending := !speak
    end
  done;
  let row = Array.init b (fun i -> Bh_instance.finalize states i) in
  { row; trace = !total; overlay_rounds = total_rounds + 1; busy_rounds = !busy }
