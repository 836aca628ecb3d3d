(* Tests for lib/nanongkai: Algorithms 1-5 against the centralized
   references from lib/graph. *)

let checkb = Alcotest.(check bool)
let check = Alcotest.(check int)

let random_graph ?(max_n = 24) ?(max_w = 8) seed =
  let rng = Util.Rng.create ~seed in
  let n = 4 + Util.Rng.int rng (max_n - 3) in
  Graphlib.Gen.gnp_connected ~n ~p:0.15 ~weighting:(Graphlib.Gen.Uniform { max_w }) ~rng

let float_eq a b =
  (a = Float.infinity && b = Float.infinity) || Float.abs (a -. b) <= 1e-9

(* ------------------------------ Alg 2 ------------------------------ *)

let prop_alg2_exact =
  QCheck.Test.make ~name:"Alg2 = bounded Dijkstra" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 40))
    (fun (seed, bound) ->
      let g = random_graph seed in
      let out = Nanongkai.Alg2.run g ~src:0 ~bound in
      out.Nanongkai.Alg2.dist = Graphlib.Dijkstra.distances_bounded g ~src:0 ~bound)

let test_alg2_rounds_bound () =
  let g = random_graph 11 in
  let out = Nanongkai.Alg2.run g ~src:0 ~bound:15 in
  checkb "rounds <= bound+1" true (out.Nanongkai.Alg2.trace.Congest.Engine.rounds <= 16);
  check "no congestion" 0 out.Nanongkai.Alg2.trace.Congest.Engine.congestion_violations

let test_alg2_zero_bound () =
  let g = random_graph 12 in
  let out = Nanongkai.Alg2.run g ~src:3 ~bound:0 in
  Array.iteri
    (fun v d ->
      if v = 3 then check "src 0" 0 d else checkb "rest inf" true (Graphlib.Dist.is_inf d))
    out.Nanongkai.Alg2.dist

(* ------------------------------ Alg 1 ------------------------------ *)

let prop_alg1_matches_centralized =
  QCheck.Test.make ~name:"Alg1 = centralized Lemma 3.2 values" ~count:15
    QCheck.(triple (int_range 0 10_000) (int_range 2 15) (int_range 1 3))
    (fun (seed, ell, e) ->
      let g = random_graph ~max_n:16 ~max_w:6 seed in
      let params = { Graphlib.Reweight.ell; eps = 1.0 /. float_of_int e } in
      let out = Nanongkai.Alg1.run g ~src:1 ~params in
      let reference = Graphlib.Reweight.approx_from g params ~src:1 in
      Array.for_all2 float_eq out.Nanongkai.Alg1.dtilde reference)

let test_alg1_broadcast_budget () =
  (* Lemma A.1: each node broadcasts O(log) messages — at most one per
     scale. *)
  let g = random_graph 21 in
  let params = { Graphlib.Reweight.ell = 8; eps = 0.5 } in
  let out = Nanongkai.Alg1.run g ~src:0 ~params in
  let scales =
    Graphlib.Reweight.num_scales ~n:(Graphlib.Wgraph.n g)
      ~max_w:(Graphlib.Wgraph.max_weight g) ~eps:0.5
  in
  Array.iter
    (fun b -> checkb "one broadcast per scale" true (b <= scales))
    out.Nanongkai.Alg1.broadcasts_per_node;
  check "unit bandwidth ok" 0 out.Nanongkai.Alg1.trace.Congest.Engine.congestion_violations

let test_alg1_rounds_budget () =
  let g = random_graph 22 in
  let params = { Graphlib.Reweight.ell = 8; eps = 0.5 } in
  let out = Nanongkai.Alg1.run g ~src:0 ~params in
  let scales =
    Graphlib.Reweight.num_scales ~n:(Graphlib.Wgraph.n g)
      ~max_w:(Graphlib.Wgraph.max_weight g) ~eps:0.5
  in
  let phase_len = Graphlib.Reweight.hop_budget params + 2 in
  checkb "rounds <= scales*(L+2)" true
    (out.Nanongkai.Alg1.trace.Congest.Engine.rounds <= scales * phase_len)

(* --------------------------- Instance bank ------------------------- *)

(* The immutable single-instance state machine the bank replaced, kept
   as the reference the bank must match step for step. *)
module Reference_instance = struct
  type cfg = Nanongkai.Bh_instance.cfg

  type state = { scale : int; dist : int; broadcasted : bool; best : float }

  type effect = { broadcast : (int * int) option; wake : int option }

  let no_effect = { broadcast = None; wake = None }

  let init (cfg : cfg) =
    {
      scale = 0;
      dist = (if cfg.is_source then 0 else Graphlib.Dist.inf);
      broadcasted = false;
      best = Float.infinity;
    }

  let unscale (cfg : cfg) ~scale d =
    float_of_int d
    *. cfg.params.Graphlib.Reweight.eps
    *. float_of_int (Util.Int_math.pow 2 scale)
    /. (2.0 *. float_of_int cfg.params.Graphlib.Reweight.ell)

  let fold_scale (cfg : cfg) st =
    if Graphlib.Dist.is_finite st.dist && st.dist <= cfg.budget then
      { st with best = Float.min st.best (unscale cfg ~scale:st.scale st.dist) }
    else st

  let rollover (cfg : cfg) st ~target =
    if target <= st.scale then st
    else
      let st = fold_scale cfg st in
      {
        st with
        scale = target;
        dist = (if cfg.is_source then 0 else Graphlib.Dist.inf);
        broadcasted = false;
      }

  let target_scale (cfg : cfg) lr = min (cfg.num_scales - 1) (lr / cfg.phase_len)

  let on_message (cfg : cfg) st ~round ~scale ~dist ~scaled_w =
    let lr = round - cfg.offset in
    if lr < 0 then st
    else begin
      let st = rollover cfg st ~target:(target_scale cfg lr) in
      if scale <> st.scale then st
      else begin
        let cand = Graphlib.Dist.add dist scaled_w in
        if cand <= cfg.budget && Graphlib.Dist.compare cand st.dist < 0 then
          { st with dist = cand }
        else st
      end
    end

  let decide (cfg : cfg) st ~round =
    let lr = round - cfg.offset in
    if lr < 0 then (st, no_effect)
    else begin
      let st = rollover cfg st ~target:(target_scale cfg lr) in
      let rho = lr - (st.scale * cfg.phase_len) in
      if Graphlib.Dist.is_finite st.dist && st.dist <= cfg.budget && not st.broadcasted then begin
        if st.dist = rho then
          ({ st with broadcasted = true }, { broadcast = Some (st.scale, st.dist); wake = None })
        else if st.dist > rho then
          let wake = cfg.offset + (st.scale * cfg.phase_len) + st.dist in
          (st, { broadcast = None; wake = Some wake })
        else (st, no_effect)
      end
      else (st, no_effect)
    end

  let finalize cfg st = (fold_scale cfg st).best
end

(* A random slot configuration: ℓ, ε, n, W, offset and source flag. *)
let random_cfg rng =
  let params =
    {
      Graphlib.Reweight.ell = 1 + Util.Rng.int rng 12;
      eps = Util.Rng.choose rng [| 0.25; 0.5; 1.0 |];
    }
  in
  Nanongkai.Bh_instance.make_cfg ~params
    ~n:(2 + Util.Rng.int rng 100)
    ~max_w:(1 + Util.Rng.int rng 20)
    ~offset:(Util.Rng.int rng 30) ~is_source:(Util.Rng.bool rng)

(* The last round of the last phase of any slot. *)
let cfgs_horizon cfgs =
  Array.fold_left
    (fun acc (c : Nanongkai.Bh_instance.cfg) -> max acc (c.offset + (c.num_scales * c.phase_len)))
    0 cfgs

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_bank_matches_reference =
  (* A bank of 1-4 slots, each with its own random cfg, against one
     reference state per slot: random message folds and decides,
     interleaved over non-decreasing rounds. Every decide must report
     the same broadcast and wake, and every slot's finalize the same
     float bits, at every step. *)
  QCheck.Test.make ~name:"Bh_instance bank = immutable reference" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module B = Nanongkai.Bh_instance in
      let module R = Reference_instance in
      let rng = Util.Rng.create ~seed in
      let slots = 1 + Util.Rng.int rng 4 in
      let cfgs = Array.init slots (fun _ -> random_cfg rng) in
      let bank = B.bank slots (fun j -> cfgs.(j)) in
      let refs = Array.map R.init cfgs in
      let round = ref 0 and ok = ref true in
      let horizon = cfgs_horizon cfgs in
      while !ok && !round <= horizon + 5 do
        let j = Util.Rng.int rng slots in
        let c = cfgs.(j) in
        (match Util.Rng.int rng 3 with
        | 0 ->
          (* A message, usually for the scale the slot's clock is in. *)
          let lr = max 0 (!round - c.offset) in
          let scale =
            if Util.Rng.int rng 4 = 0 then Util.Rng.int rng c.num_scales
            else R.target_scale c lr
          in
          let dist = Util.Rng.int rng (c.budget + 1) in
          let scaled_w = 1 + Util.Rng.int rng (max 1 (c.budget / 2)) in
          B.on_message bank j ~round:!round ~scale ~dist ~scaled_w;
          refs.(j) <- R.on_message c refs.(j) ~round:!round ~scale ~dist ~scaled_w
        | _ ->
          let st, expected = R.decide c refs.(j) ~round:!round in
          refs.(j) <- st;
          let got =
            match B.decide bank j ~round:!round with
            | B.Quiet -> R.no_effect
            | B.Broadcast -> { R.broadcast = Some (B.scale bank j, B.dist bank j); wake = None }
            | B.Wake -> { R.broadcast = None; wake = Some (B.wake_round bank j) }
          in
          if got <> expected then ok := false);
        Array.iteri
          (fun j c ->
            if not (same_bits (B.finalize bank j) (R.finalize c refs.(j))) then ok := false)
          cfgs;
        (* Mostly small steps, sometimes a jump of up to a phase. *)
        if Util.Rng.int rng 3 = 0 then
          round :=
            !round
            + (if Util.Rng.int rng 8 = 0 then Util.Rng.int rng (c.phase_len + 1)
               else Util.Rng.int rng 3)
      done;
      !ok)

let prop_may_act_matches_full_decide =
  (* Two banks fed the same messages: one decides only the slots that
     [may_act], the other every slot, as Algorithm 3 once did. The
     activation rounds are the message rounds, some extra rounds, the
     sources' phase bases and every wake round either bank asked for.
     At each activation both must broadcast the same slots, in the same
     order, with the same (scale, dist), and the two cumulative sets of
     requested wake rounds must be equal; at the end every slot's
     [finalize] must have the same bits. Besides random traffic, each
     slot gets a message that makes it ask for a wake and a later,
     better one before that wake is due. *)
  QCheck.Test.make ~name:"decide only the slots that can act = decide every slot" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module B = Nanongkai.Bh_instance in
      let module S = Set.Make (Int) in
      let rng = Util.Rng.create ~seed in
      let slots = 1 + Util.Rng.int rng 6 in
      let cfgs = Array.init slots (fun _ -> random_cfg rng) in
      let horizon = cfgs_horizon cfgs in
      (* Round -> messages (slot, scale, dist, scaled_w), newest first. *)
      let msgs = Hashtbl.create 64 in
      let add_msg r m =
        Hashtbl.replace msgs r (m :: Option.value (Hashtbl.find_opt msgs r) ~default:[])
      in
      for _ = 1 to Util.Rng.int rng (1 + (horizon / 4)) do
        let r = Util.Rng.int rng (horizon + 5) in
        let j = Util.Rng.int rng slots in
        let c = cfgs.(j) in
        let scale =
          if Util.Rng.int rng 4 = 0 then Util.Rng.int rng c.num_scales
          else min (c.num_scales - 1) (max 0 (r - c.offset) / c.phase_len)
        in
        add_msg r
          (j, scale, Util.Rng.int rng (c.budget + 1), 1 + Util.Rng.int rng (max 1 (c.budget / 2)))
      done;
      Array.iteri
        (fun j (c : B.cfg) ->
          (* At phase-local round rho1 the slot hears cand1 > rho1 + 1
             and asks for a wake at cand1; at rho2 < cand1 it hears
             cand2 in [rho2, cand1), which moves its wake earlier (or
             makes it broadcast at once). The budget is at least 3. *)
          let s = Util.Rng.int rng c.num_scales in
          let rho1 = Util.Rng.int rng (c.budget - 2) in
          let cand1 = rho1 + 2 + Util.Rng.int rng (c.budget - rho1 - 1) in
          let rho2 = rho1 + 1 + Util.Rng.int rng (cand1 - rho1 - 1) in
          let cand2 = rho2 + Util.Rng.int rng (cand1 - rho2) in
          let base = c.offset + (s * c.phase_len) in
          add_msg (base + rho1) (j, s, cand1 - 1, 1);
          add_msg (base + rho2) (j, s, cand2 - 1, 1))
        cfgs;
      let initial = List.concat_map B.initial_wakes (Array.to_list cfgs) in
      let extras = List.init (Util.Rng.int rng (1 + (horizon / 8))) (fun _ ->
          Util.Rng.int rng (horizon + 5))
      in
      let calendar =
        ref (S.of_list (initial @ extras @ Hashtbl.fold (fun r _ acc -> r :: acc) msgs []))
      in
      let only = B.bank slots (fun j -> cfgs.(j)) and every = B.bank slots (fun j -> cfgs.(j)) in
      let only_wakes = ref (S.of_list initial) and every_wakes = ref (S.of_list initial) in
      let ok = ref true in
      let activate bank wakes ~decides r =
        let sent = ref [] in
        for j = 0 to slots - 1 do
          if decides bank j then
            match B.decide bank j ~round:r with
            | B.Quiet -> ()
            | B.Broadcast -> sent := (j, B.scale bank j, B.dist bank j) :: !sent
            | B.Wake ->
              let w = B.wake_round bank j in
              if w <= r then ok := false;
              wakes := S.add w !wakes;
              calendar := S.add w !calendar
        done;
        List.rev !sent
      in
      let rec loop last =
        match S.find_first_opt (fun r -> r > last) !calendar with
        | Some r when !ok ->
          List.iter
            (fun (j, scale, dist, scaled_w) ->
              B.on_message only j ~round:r ~scale ~dist ~scaled_w;
              B.on_message every j ~round:r ~scale ~dist ~scaled_w)
            (List.rev (Option.value (Hashtbl.find_opt msgs r) ~default:[]));
          let a = activate only only_wakes ~decides:(fun bk j -> B.may_act bk j ~round:r) r in
          let b = activate every every_wakes ~decides:(fun _ _ -> true) r in
          if a <> b || not (S.equal !only_wakes !every_wakes) then ok := false;
          loop r
        | _ -> ()
      in
      loop (-1);
      !ok
      && List.for_all
           (fun j -> same_bits (B.finalize only j) (B.finalize every j))
           (List.init slots Fun.id))

(* ------------------------------ Alg 3 ------------------------------ *)

let with_pipeline seed f =
  let g = random_graph ~max_n:20 seed in
  let n = Graphlib.Wgraph.n g in
  let rng = Util.Rng.create ~seed:(seed * 13 + 1) in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let sources =
    Array.of_list (List.sort_uniq compare (0 :: Util.Rng.subset_bernoulli rng ~n ~p:0.3))
  in
  let params = { Graphlib.Reweight.ell = max 2 (n / 2); eps = 0.5 } in
  f g tree sources params rng

let prop_alg3_matches_alg1 =
  QCheck.Test.make ~name:"Alg3 rows = per-source centralized values" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      with_pipeline seed (fun g tree sources params rng ->
          let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
          let ok = ref true in
          Array.iteri
            (fun j src ->
              let reference = Graphlib.Reweight.approx_from g params ~src in
              if not (Array.for_all2 float_eq out.Nanongkai.Alg3.dtilde.(j) reference) then
                ok := false)
            sources;
          !ok))

let test_alg3_congestion () =
  with_pipeline 31 (fun g tree sources params rng ->
      let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
      checkb "congestion within lambda" true out.Nanongkai.Alg3.congestion_ok;
      checkb "stretch = ceil log2 n" true
        (out.Nanongkai.Alg3.stretch = Util.Int_math.ilog2_ceil (max 2 (Graphlib.Wgraph.n g)));
      checkb "charged >= concurrent" true
        (out.Nanongkai.Alg3.charged_rounds
        >= out.Nanongkai.Alg3.concurrent_trace.Congest.Engine.rounds))

let test_alg3_zero_delays_still_correct () =
  (* Failure injection: all-zero delays break the w.h.p. congestion
     bound (on a busy instance) but never correctness — the messages
     still carry explicit distances. *)
  with_pipeline 33 (fun g tree sources params rng ->
      let delays = Array.make (Array.length sources) 0 in
      let out = Nanongkai.Alg3.run ~delays_override:delays g ~tree ~sources ~params ~rng in
      let ok = ref true in
      Array.iteri
        (fun j src ->
          let reference = Graphlib.Reweight.approx_from g params ~src in
          if not (Array.for_all2 float_eq out.Nanongkai.Alg3.dtilde.(j) reference) then
            ok := false)
        sources;
      checkb "correct despite no delays" true !ok)

let test_alg3_zero_delays_congest_more () =
  (* With many concurrent sources and no delays, peak load must be at
     least as bad as with random delays. *)
  let g =
    Graphlib.Gen.star ~n:24 ~weighting:Graphlib.Gen.Unit ~rng:(Util.Rng.create ~seed:3)
  in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let sources = Array.init 12 (fun i -> i + 1) in
  let params = { Graphlib.Reweight.ell = 12; eps = 0.5 } in
  let rng = Util.Rng.create ~seed:4 in
  let zero =
    Nanongkai.Alg3.run ~delays_override:(Array.make 12 0) g ~tree ~sources ~params ~rng
  in
  let random = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
  checkb "zero-delay load >= random-delay load" true
    (zero.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load
    >= random.Nanongkai.Alg3.concurrent_trace.Congest.Engine.max_edge_load)

let test_alg3_delays_in_range () =
  with_pipeline 32 (fun g tree sources params rng ->
      ignore g;
      ignore tree;
      let out = Nanongkai.Alg3.run g ~tree ~sources ~params ~rng in
      let b = Array.length sources in
      let lambda = out.Nanongkai.Alg3.stretch in
      Array.iter
        (fun d -> checkb "delay range" true (d >= 0 && d <= b * lambda))
        out.Nanongkai.Alg3.delays)

(* --------------------------- Alg 4 / Alg 5 ------------------------- *)

let skeleton_setup seed =
  let g = random_graph ~max_n:18 seed in
  let n = Graphlib.Wgraph.n g in
  let rng = Util.Rng.create ~seed:(seed + 3) in
  let tree, _ = Congest.Tree.build g ~root:0 in
  let s = List.sort_uniq compare (0 :: 1 :: Util.Rng.subset_bernoulli rng ~n ~p:0.3) in
  let params = { Graphlib.Reweight.ell = n; eps = 0.5 } in
  let k = 2 in
  let ctx = { Nanongkai.Approx.g; tree; params; k; rng } in
  (g, s, params, k, ctx)

let prop_overlay_matches_skeleton =
  QCheck.Test.make ~name:"Alg4 w''/knn = centralized skeleton (Obs. 3.12)" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, k, ctx = skeleton_setup seed in
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let sk = Graphlib.Skeleton.build (Graphlib.Reweight.table g params) ~s ~k in
      let w2c = Graphlib.Skeleton.w_dprime sk in
      let w2d = emb.Nanongkai.Approx.overlay.Nanongkai.Overlay.w2 in
      let ok = ref true in
      Array.iteri
        (fun i row -> Array.iteri (fun j x -> if not (float_eq x w2c.(i).(j)) then ok := false) row)
        w2d;
      !ok)

let prop_alg5_matches_skeleton =
  QCheck.Test.make ~name:"Alg5 row = centralized overlay bounded-hop values" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, k, ctx = skeleton_setup seed in
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let sk = Graphlib.Skeleton.build (Graphlib.Reweight.table g params) ~s ~k in
      let out =
        Nanongkai.Alg5.run g ~tree:ctx.Nanongkai.Approx.tree
          ~overlay:emb.Nanongkai.Approx.overlay ~eps:params.Graphlib.Reweight.eps ~src_idx:0
      in
      let nodes = Graphlib.Skeleton.s_nodes sk in
      let ok = ref true in
      Array.iteri
        (fun j u ->
          let reference = Graphlib.Skeleton.overlay_approx sk ~s:nodes.(0) ~u in
          if not (float_eq out.Nanongkai.Alg5.row.(j) reference) then ok := false)
        nodes;
      !ok)

let prop_pipeline_guarantee =
  QCheck.Test.make ~name:"pipeline distances within [d, (1+eps)^2 d]" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s, params, _k, ctx = skeleton_setup seed in
      ignore s;
      let emb = Nanongkai.Approx.initialize ctx ~s in
      let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
      let exact = Graphlib.Dijkstra.distances g ~src:ev.Nanongkai.Approx.s in
      let eps = params.Graphlib.Reweight.eps in
      let ok = ref true in
      Array.iteri
        (fun v d ->
          if Graphlib.Dist.is_finite d then begin
            let a = ev.Nanongkai.Approx.approx_dist.(v) in
            let fd = float_of_int d in
            if a < fd -. 1e-6 then ok := false;
            if a > (((1.0 +. eps) ** 2.0) *. fd) +. 1e-6 then ok := false
          end)
        exact;
      !ok)

let test_pipeline_ecc_consistency () =
  let _g, _s, _params, _k, ctx = skeleton_setup 99 in
  let emb = Nanongkai.Approx.initialize ctx ~s:_s in
  let evals = Nanongkai.Approx.eval_all emb in
  Array.iter
    (fun (e : Nanongkai.Approx.source_eval) ->
      let m = Array.fold_left Float.max 0.0 e.Nanongkai.Approx.approx_dist in
      checkb "ecc = max approx dist" true (float_eq m e.Nanongkai.Approx.approx_ecc))
    evals

let test_pipeline_t2_small () =
  (* Evaluation_i is a convergecast: O(depth) rounds. *)
  let _g, _s, _params, _k, ctx = skeleton_setup 100 in
  let emb = Nanongkai.Approx.initialize ctx ~s:_s in
  let ev = Nanongkai.Approx.eval_source emb ~s_idx:0 in
  checkb "T2 <= depth+1" true
    (ev.Nanongkai.Approx.eval_trace.Congest.Engine.rounds
    <= ctx.Nanongkai.Approx.tree.Congest.Tree.depth + 1)

let test_overlay_tokens_bound () =
  let _g, s, _params, k, ctx = skeleton_setup 101 in
  let emb = Nanongkai.Approx.initialize ctx ~s in
  let b = Array.length emb.Nanongkai.Approx.s_nodes in
  checkb "<= b*k distinct overlay edges" true
    (emb.Nanongkai.Approx.overlay.Nanongkai.Overlay.tokens_broadcast <= b * k)

(* Trace-level golden: every trace field and every float the
   pipeline reports, on the ci-smoke family at n = 48, 64 and 80, for
   the three largest sampled sets of each instance. The port goldens
   pin only total rounds; this digest also pins messages, loads and
   activations of every measured phase and the bits of every d̃ row
   and approximate distance. *)
let pipeline_digest () =
  let b = Buffer.create 65536 in
  let trace t =
    Buffer.add_string b (Congest.Engine.trace_to_json t);
    Buffer.add_char b '\n'
  in
  let floats a =
    Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h " x)) a;
    Buffer.add_char b '\n'
  in
  List.iter
    (fun n ->
      let g = Harness.Runner.make_graph Harness.Spec.ci_smoke ~n ~seed:1 in
      let tree, _ = Congest.Tree.build g ~root:0 in
      let params =
        Core.Params.of_graph_params ~n ~d_hat:(max 1 (2 * tree.Congest.Tree.depth)) ()
      in
      let rng = Util.Rng.create ~seed:n in
      let sets = (Core.Sets.sample ~rng ~n ~params).Core.Sets.sets in
      let largest =
        List.sort
          (fun (a, i) (b, j) -> if a <> b then compare b a else compare i j)
          (List.mapi (fun i s -> (List.length s, i)) (Array.to_list sets))
      in
      List.iteri
        (fun rank (_, i) ->
          if rank < 3 then begin
            let ctx =
              {
                Nanongkai.Approx.g;
                tree;
                params = Core.Params.reweight_params params;
                k = params.Core.Params.k;
                rng;
              }
            in
            let emb = Nanongkai.Approx.initialize ctx ~s:sets.(i) in
            trace emb.Nanongkai.Approx.init_trace;
            Array.iter floats emb.Nanongkai.Approx.dtilde_ell;
            Array.iter
              (fun (e : Nanongkai.Approx.source_eval) ->
                trace e.Nanongkai.Approx.setup_trace;
                trace e.Nanongkai.Approx.eval_trace;
                floats e.Nanongkai.Approx.approx_dist)
              (Nanongkai.Approx.eval_all emb)
          end)
        largest)
    [ 48; 64; 80 ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pipeline_trace_golden () =
  Alcotest.(check string)
    "traces and distances" "e5bbea47a61743e50a7b4b84c2d146c6" (pipeline_digest ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_alg2_exact;
      prop_bank_matches_reference;
      prop_may_act_matches_full_decide;
      prop_alg1_matches_centralized;
      prop_alg3_matches_alg1;
      prop_overlay_matches_skeleton;
      prop_alg5_matches_skeleton;
      prop_pipeline_guarantee;
    ]

let () =
  Alcotest.run "nanongkai"
    [
      ( "alg2",
        [
          Alcotest.test_case "round budget" `Quick test_alg2_rounds_bound;
          Alcotest.test_case "zero bound" `Quick test_alg2_zero_bound;
        ] );
      ( "alg1",
        [
          Alcotest.test_case "broadcast budget (Lemma A.1)" `Quick test_alg1_broadcast_budget;
          Alcotest.test_case "round budget" `Quick test_alg1_rounds_budget;
        ] );
      ( "alg3",
        [
          Alcotest.test_case "congestion within stretch" `Quick test_alg3_congestion;
          Alcotest.test_case "delays in range" `Quick test_alg3_delays_in_range;
          Alcotest.test_case "zero delays: still correct" `Quick
            test_alg3_zero_delays_still_correct;
          Alcotest.test_case "zero delays: more congestion" `Quick
            test_alg3_zero_delays_congest_more;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ecc = max approx dist" `Quick test_pipeline_ecc_consistency;
          Alcotest.test_case "T2 is O(depth)" `Quick test_pipeline_t2_small;
          Alcotest.test_case "overlay token bound" `Quick test_overlay_tokens_bound;
          Alcotest.test_case "trace-level golden" `Quick test_pipeline_trace_golden;
        ] );
      ("properties", qsuite);
    ]
