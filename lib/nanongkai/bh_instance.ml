type cfg = {
  params : Graphlib.Reweight.params;
  budget : int;
  phase_len : int;
  num_scales : int;
  offset : int;
  is_source : bool;
}

let make_cfg ~params ~n ~max_w ~offset ~is_source =
  let budget = Graphlib.Reweight.hop_budget params in
  {
    params;
    budget;
    (* +2: a message sent at local round [budget] lands at [budget+1],
       still inside the phase, so phases never bleed into each other. *)
    phase_len = budget + 2;
    num_scales = Graphlib.Reweight.num_scales ~n ~max_w ~eps:params.eps;
    offset;
    is_source;
  }

let initial_wakes cfg =
  if not cfg.is_source then []
  else
    (* The source opens every scale phase by broadcasting distance 0.
       Wake round 0 is implicit (init runs then), so skip offsets <= 0. *)
    List.filter_map
      (fun s ->
        let r = cfg.offset + (s * cfg.phase_len) in
        if r > 0 then Some r else None)
      (List.init cfg.num_scales (fun s -> s))

(* Slot [j] of every array is one instance: its configuration, its
   current scale, its scaled distance at that scale, whether it has
   broadcast that distance, the best value of the scales already
   folded, the last round it heard a message and the round of its
   last requested wake (-1 for none). *)
type bank = {
  cfg : cfg array;
  scale : int array;
  dist : int array;
  broadcasted : bool array;
  best : float array;
  heard : int array;
  due : int array;
}

let start_dist cfg = if cfg.is_source then 0 else Graphlib.Dist.inf

let bank k cfg =
  let cfg = Array.init k cfg in
  {
    cfg;
    scale = Array.make k 0;
    dist = Array.map start_dist cfg;
    broadcasted = Array.make k false;
    best = Array.make k Float.infinity;
    heard = Array.make k (-1);
    due = Array.make k (-1);
  }

let unscale cfg ~scale d =
  float_of_int d
  *. cfg.params.Graphlib.Reweight.eps
  *. float_of_int (Util.Int_math.pow 2 scale)
  /. (2.0 *. float_of_int cfg.params.Graphlib.Reweight.ell)

let folded bk j =
  let cfg = bk.cfg.(j) and d = bk.dist.(j) in
  if Graphlib.Dist.is_finite d && d <= cfg.budget then
    Float.min bk.best.(j) (unscale cfg ~scale:bk.scale.(j) d)
  else bk.best.(j)

(* Move slot [j] to the scale its clock is in, [min (num_scales - 1)
   (lr / phase_len)] for local round [lr >= 0], folding the scale it
   leaves. The target exceeds the current scale [s] exactly when
   [s < num_scales - 1] and [lr >= (s + 1) * phase_len], so the
   division runs only when a phase has ended. *)
let rollover cfg bk j ~lr =
  let s = bk.scale.(j) in
  if s < cfg.num_scales - 1 && lr >= (s + 1) * cfg.phase_len then begin
    bk.best.(j) <- folded bk j;
    bk.scale.(j) <- Int.min (cfg.num_scales - 1) (lr / cfg.phase_len);
    bk.dist.(j) <- start_dist cfg;
    bk.broadcasted.(j) <- false
  end

let on_message bk j ~round ~scale ~dist ~scaled_w =
  let cfg = bk.cfg.(j) in
  bk.heard.(j) <- round;
  let lr = round - cfg.offset in
  if lr >= 0 then begin
    rollover cfg bk j ~lr;
    (* A message from a finished phase is stale. *)
    if scale = bk.scale.(j) then begin
      let cand = Graphlib.Dist.add dist scaled_w in
      if cand <= cfg.budget && cand < bk.dist.(j) then bk.dist.(j) <- cand
    end
  end

type effect = Quiet | Broadcast | Wake

let wake_round bk j =
  let cfg = bk.cfg.(j) in
  cfg.offset + (bk.scale.(j) * cfg.phase_len) + bk.dist.(j)

let decide bk j ~round =
  let cfg = bk.cfg.(j) in
  let lr = round - cfg.offset in
  if lr < 0 then Quiet
  else begin
    rollover cfg bk j ~lr;
    let d = bk.dist.(j) in
    if Graphlib.Dist.is_finite d && d <= cfg.budget && not bk.broadcasted.(j) then begin
      let rho = lr - (bk.scale.(j) * cfg.phase_len) in
      if d = rho then begin
        bk.broadcasted.(j) <- true;
        Broadcast
      end
      else if d > rho then begin
        bk.due.(j) <- wake_round bk j;
        Wake
      end
      else Quiet (* unreachable: candidates never undercut the clock *)
    end
    else Quiet
  end

(* Outside these three cases [decide] returns [Quiet] or repeats the
   pending wake: a slot's distance changes only by a message (which
   makes it act that round) or by a rollover (which resets it), so an
   unheard slot still holds the distance its last [Wake] was computed
   from and is due only at that wake's round; a source's distance is 0,
   due only at a phase base. Rollover is a function of the round
   alone, so the next call brings a skipped slot to the same state. *)
let may_act bk j ~round =
  bk.heard.(j) = round
  || bk.due.(j) = round
  ||
  let cfg = bk.cfg.(j) in
  let lr = round - cfg.offset in
  cfg.is_source && lr >= 0 && lr mod cfg.phase_len = 0 && lr / cfg.phase_len < cfg.num_scales

let scale bk j = bk.scale.(j)
let dist bk j = bk.dist.(j)

let finalize = folded
