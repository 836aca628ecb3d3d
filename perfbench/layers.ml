module Span = Profile.Span
module Spec = Harness.Spec
module Wgraph = Graphlib.Wgraph
module Engine = Congest.Engine

type t = {
  recorder : Span.recorder;
  alloc : (string, float) Hashtbl.t;  (** Words allocated inside each span name. *)
  counts : (string, int) Hashtbl.t;
  oracle_keys : (string, unit) Hashtbl.t;  (** Distinct (instance, oracle) pairs. *)
}

let create () =
  {
    recorder = Span.recorder ();
    alloc = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    oracle_keys = Hashtbl.create 16;
  }

let profile t = Span.tree t.recorder

let count t name k =
  Hashtbl.replace t.counts name (k + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let span t name f =
  let a0 = Gc.allocated_bytes () in
  let finally () =
    let words = (Gc.allocated_bytes () -. a0) /. 8.0 in
    let before = Option.value ~default:0.0 (Hashtbl.find_opt t.alloc name) in
    Hashtbl.replace t.alloc name (before +. words)
  in
  Fun.protect ~finally (fun () -> Span.span t.recorder name f)

let engine t (tr : Engine.trace) =
  count t "congest.messages" tr.Engine.messages;
  count t "congest.activations" tr.Engine.activations

let tree t f =
  let x, tr = span t "congest.tree" f in
  engine t tr;
  (x, tr)

let flood t f =
  let (out : Baselines.All_pairs.output) = span t "congest.flood" f in
  engine t out.Baselines.All_pairs.trace;
  out

let oracle t ~instance ~kind f =
  Hashtbl.replace t.oracle_keys (instance ^ "/" ^ kind) ();
  span t "graph.oracle" f

let ledger t (l : Dqo.Cost.ledger) =
  count t "dqo.grover_iterations" l.Dqo.Cost.grover_iterations;
  count t "dqo.measurements" l.Dqo.Cost.measurements

let framework t ~rng ~delta ~c triple =
  let o = span t "dqo.search" (fun () -> Dqo.Framework.run ~rng ~delta ~c triple) in
  ledger t o.Dqo.Framework.ledger;
  o

let broadcast_rounds t g tr i =
  let _, trace =
    tree t (fun () -> Congest.Tree.broadcast_tokens g tr ~tokens:[ i ] ~size_words:(fun _ -> 1))
  in
  trace.Engine.rounds

let column_max (dist : Graphlib.Dist.t array array) v =
  Array.fold_left (fun e row -> max e row.(v)) 0 dist

(* ------------------------- Theorem 1.1 replay ------------------------ *)

(* [Inner.prepare], with the overlay's Initialization and per-source
   evaluations timed apart. *)
let prepare t ctx s =
  count t "nanongkai.sets_run" 1;
  let emb = span t "nanongkai.init" (fun () -> Nanongkai.Approx.initialize ctx ~s) in
  engine t emb.Nanongkai.Approx.init_trace;
  let evals = span t "nanongkai.eval" (fun () -> Nanongkai.Approx.eval_all emb) in
  let worst f = Array.fold_left (fun acc e -> max acc (f e).Engine.rounds) 0 evals in
  Array.iter
    (fun (e : Nanongkai.Approx.source_eval) ->
      engine t e.Nanongkai.Approx.setup_trace;
      engine t e.Nanongkai.Approx.eval_trace)
    evals;
  {
    Core.Inner.emb;
    source_values = Array.map (fun e -> e.Nanongkai.Approx.approx_ecc) evals;
    t0 = emb.Nanongkai.Approx.init_rounds;
    t1 = worst (fun e -> e.Nanongkai.Approx.setup_trace);
    t2 = worst (fun e -> e.Nanongkai.Approx.eval_trace);
    congestion_ok = emb.Nanongkai.Approx.congestion_ok;
  }

(* [Core.Algorithm.run] with the default configuration, call for call:
   every RNG draw happens in the same order, so the row is the op's. *)
let thm11 t ~instance g objective ~rng =
  let config = Core.Algorithm.default_config in
  let n = Wgraph.n g in
  let diameter = objective = Core.Algorithm.Diameter in
  let tr, tree_trace = tree t (fun () -> Congest.Tree.build g ~root:config.Core.Algorithm.leader) in
  let d_hat = max 1 (2 * tr.Congest.Tree.depth) in
  let params =
    Core.Params.of_graph_params ?eps_override:config.Core.Algorithm.eps_override
      ?num_sets:config.Core.Algorithm.num_sets ~n ~d_hat ()
  in
  let rec sample_sets attempts =
    let sets = Core.Sets.sample ~rng ~n ~params in
    if Array.exists (fun s -> s <> []) sets.Core.Sets.sets then sets
    else if attempts <= 0 then invalid_arg "thm11 replay: could not sample non-empty sets"
    else sample_sets (attempts - 1)
  in
  let sets = sample_sets 20 in
  let rw = Core.Params.reweight_params params in
  let k = params.Core.Params.k in
  let ctx = { Nanongkai.Approx.g; tree = tr; params = rw; k; rng = Util.Rng.split rng } in
  let exact =
    oracle t ~instance ~kind:"apsp" (fun () ->
        Graphlib.Dist.to_int_exn
          (if diameter then Graphlib.Apsp.weighted_diameter g else Graphlib.Apsp.weighted_radius g))
  in
  ignore
    (oracle t ~instance ~kind:"bfs" (fun () -> Graphlib.Bfs.diameter (Wgraph.with_unit_weights g)));
  let objective' = if diameter then Core.Inner.Maximize else Core.Inner.Minimize in
  let m = Array.length sets.Core.Sets.sets in
  let delta = config.Core.Algorithm.delta /. 2.0 and c = config.Core.Algorithm.c in
  let prepared = Hashtbl.create 16 in
  let eval_dist i =
    let p =
      match Hashtbl.find_opt prepared i with
      | Some p -> p
      | None ->
        let p = match sets.Core.Sets.sets.(i) with [] -> None | s -> Some (prepare t ctx s) in
        Hashtbl.replace prepared i p;
        p
    in
    Option.map
      (fun prep ->
        let e =
          span t "dqo.search" (fun () ->
              Core.Inner.search prep ~objective:objective' ~delta ~c ~rng:ctx.Nanongkai.Approx.rng)
        in
        count t "dqo.grover_iterations" e.Core.Inner.inner_iterations;
        count t "dqo.measurements" e.Core.Inner.inner_measurements;
        e)
      p
  in
  let setup () =
    let value s =
      count t "graph.skeleton_sources" (List.length s);
      match
        span t "graph.skeleton" (fun () ->
            Core.Inner.eval_centralized g ~params:rw ~k ~objective:objective' ~s)
      with
      | Some v -> v
      | None -> Core.Inner.worst_value objective'
    in
    {
      Dqo.Framework.weights = Array.make m 1.0;
      values = Array.map value sets.Core.Sets.sets;
      rho = Float.max (sets.Core.Sets.rate /. 2.0) (1.0 /. float_of_int m);
      init_rounds = tree_trace.Engine.rounds;
    }
  in
  let triple =
    Dqo.Framework.make
      ~name:(if diameter then "thm11-diameter" else "thm11-radius")
      ~direction:(if diameter then Dqo.Optimize.Maximize else Dqo.Optimize.Minimize)
      ~compare ~setup ~evaluate:eval_dist
      ~eval_rounds:(fun (e : Core.Inner.eval) -> e.Core.Inner.total_rounds)
      ~setup_cost:(broadcast_rounds t g tr)
      ~calibrate:(List.filter (fun i -> sets.Core.Sets.sets.(i) <> []))
      ~finalize:(broadcast_rounds t g tr) ()
  in
  let o = framework t ~rng ~delta ~c triple in
  let inner =
    List.fold_left (fun acc (_, (e : Core.Inner.eval)) -> acc + e.Core.Inner.inner_iterations) 0
      o.Dqo.Framework.evals
  in
  let estimate = o.Dqo.Framework.best_value in
  (* The algorithm's own post-search work: the Good-Scale check on the
     extremal node, then the best source of the winning set. *)
  let vstar =
    oracle t ~instance ~kind:"apsp" (fun () ->
        if diameter then begin
          let ecc = Graphlib.Apsp.eccentricities g in
          let best = ref 0 in
          Array.iteri (fun i e -> if e > ecc.(!best) then best := i) ecc;
          !best
        end
        else Graphlib.Apsp.center g)
  in
  ignore (Core.Sets.check_good_scale sets ~vstar);
  let ub = ((1.0 +. params.Core.Params.eps) ** 2.0) *. float_of_int exact in
  let within = estimate >= float_of_int exact -. 1e-6 && estimate <= ub +. 1e-6 in
  (try ignore (eval_dist o.Dqo.Framework.best_idx) with _ -> ());
  ( o.Dqo.Framework.rounds,
    estimate,
    exact,
    within,
    Printf.sprintf "outer=%d inner=%d" o.Dqo.Framework.ledger.Dqo.Cost.grover_iterations inner )

(* ---------------------------- WWY replays ---------------------------- *)

let connected g = Wgraph.n g >= 2 && Wgraph.is_connected g

(* [Baselines.Wwy_ecc.max_eccentricity] with default delta and c. *)
let wwy_ecc t ~instance g ~rng =
  let topo = Wgraph.with_unit_weights g in
  if not (connected topo) then invalid_arg "wwy-ecc replay: need a connected graph";
  let n = Wgraph.n topo in
  let tr, tree_trace = tree t (fun () -> Congest.Tree.build topo ~root:0) in
  let x = Util.Int_math.clamp ~lo:1 ~hi:n (max 1 (2 * tr.Congest.Tree.depth)) in
  let groups = Util.Int_math.ceil_div n x in
  let members gi = List.init (min x (n - (gi * x))) (fun j -> (gi * x) + j) in
  let model_ecc =
    oracle t ~instance ~kind:"bfs" (fun () ->
        Array.init n (fun src -> Graphlib.Bfs.eccentricity topo ~src))
  in
  let values =
    Array.init groups (fun gi -> List.fold_left (fun acc v -> max acc model_ecc.(v)) 0 (members gi))
  in
  let exact = Array.fold_left max 0 values in
  let evaluate gi =
    let ms = members gi in
    let fl = flood t (fun () -> Baselines.All_pairs.run topo ~sources:ms) in
    let dist = fl.Baselines.All_pairs.dist in
    let ecc = List.map (fun v -> (v, column_max dist v)) ms in
    let first = List.hd ms in
    let _, cc =
      tree t (fun () ->
          Congest.Tree.convergecast topo tr
            ~values:(Array.map (fun row -> row.(first)) dist)
            ~combine:max ~size_words:(fun _ -> 1))
    in
    Some (ecc, fl.Baselines.All_pairs.trace.Engine.rounds + cc.Engine.rounds + (List.length ms - 1))
  in
  let triple =
    Dqo.Framework.make ~name:"wwy-ecc-max" ~direction:Dqo.Optimize.Maximize ~compare
      ~setup:(fun () ->
        {
          Dqo.Framework.weights = Array.make groups 1.0;
          values;
          rho = 1.0 /. float_of_int groups;
          init_rounds = tree_trace.Engine.rounds;
        })
      ~evaluate ~eval_rounds:snd
      ~setup_cost:(fun _ -> tr.Congest.Tree.depth + 1)
      ~finalize:(broadcast_rounds t topo tr) ()
  in
  let o = framework t ~rng ~delta:0.1 ~c:3.0 triple in
  let known =
    List.sort_uniq compare (List.concat_map (fun (_, (ecc, _)) -> ecc) o.Dqo.Framework.evals)
  in
  let ecc_ok = List.for_all (fun (v, e) -> e = model_ecc.(v)) known in
  let best = o.Dqo.Framework.best_value in
  ( o.Dqo.Framework.rounds,
    float_of_int best,
    exact,
    best = exact && ecc_ok,
    Printf.sprintf "groups=%d x=%d cov=%d" groups x (List.length known) )

(* [Baselines.Wwy_apsp.run] with default delta and c. *)
let wwy_apsp t ~instance g ~rng =
  if not (connected g) then invalid_arg "wwy-apsp replay: need a connected graph";
  let n = Wgraph.n g in
  let tr, tree_trace = tree t (fun () -> Congest.Tree.build g ~root:0) in
  let fl = flood t (fun () -> Baselines.All_pairs.run g ~sources:(List.init n Fun.id)) in
  let dist = fl.Baselines.All_pairs.dist in
  let apsp_rounds = fl.Baselines.All_pairs.trace.Engine.rounds in
  let values = Array.init n (column_max dist) in
  let evaluate v =
    let _, cc =
      tree t (fun () ->
          Congest.Tree.convergecast g tr
            ~values:(Array.map (fun row -> row.(v)) dist)
            ~combine:max ~size_words:(fun _ -> 1))
    in
    Some cc.Engine.rounds
  in
  let triple =
    Dqo.Framework.make ~name:"wwy-apsp" ~direction:Dqo.Optimize.Maximize ~compare
      ~setup:(fun () ->
        {
          Dqo.Framework.weights = Array.make n 1.0;
          values;
          rho = 1.0 /. float_of_int n;
          init_rounds = tree_trace.Engine.rounds + apsp_rounds;
        })
      ~evaluate ~eval_rounds:Fun.id
      ~setup_cost:(fun _ -> tr.Congest.Tree.depth + 1)
      ~finalize:(broadcast_rounds t g tr) ()
  in
  let o = framework t ~rng ~delta:0.1 ~c:3.0 triple in
  let exact =
    oracle t ~instance ~kind:"apsp" (fun () ->
        Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g))
  in
  let reference =
    oracle t ~instance ~kind:"apsp-matrix" (fun () -> Graphlib.Apsp.all_distances g)
  in
  let dist_ok =
    try
      Array.iteri
        (fun u row -> Array.iteri (fun s d -> if d <> reference.(s).(u) then raise Exit) row)
        dist;
      true
    with Exit -> false
  in
  let best = o.Dqo.Framework.best_value in
  ( o.Dqo.Framework.rounds,
    float_of_int best,
    exact,
    best = exact && dist_ok,
    Printf.sprintf "apsp=%d search=%d" apsp_rounds o.Dqo.Framework.ledger.Dqo.Cost.search_rounds )

(* --------------------------- sweep and check -------------------------- *)

(* The RNG [Harness.Runner] hands each job: seeded from the instance
   seed [131·seed + n] and the algorithm's series salt. *)
let algo_rng (j : Spec.job) =
  let salt = Harness.Fit.seed_of_series (Spec.algo_name j.Spec.algo) land 0xFFFF in
  Util.Rng.create ~seed:((j.Spec.seed * 131) + j.Spec.n + 1 + salt)

let instance (j : Spec.job) = Printf.sprintf "%d/%d" j.Spec.n j.Spec.seed

let make_graph t spec (j : Spec.job) =
  span t "harness.make_graph" (fun () ->
      Harness.Runner.make_graph spec ~n:j.Spec.n ~seed:j.Spec.seed)

let replay_job t spec (j : Spec.job) ~attempt =
  Harness.Runner.protect ~attempt j @@ fun () ->
  let g = make_graph t spec j in
  let instance = instance j in
  let rng = algo_rng j in
  let rounds, estimate, exact, within, note =
    match j.Spec.algo with
    | Spec.Thm11_diameter -> thm11 t ~instance g Core.Algorithm.Diameter ~rng
    | Spec.Thm11_radius -> thm11 t ~instance g Core.Algorithm.Radius ~rng
    | Spec.Wwy_ecc -> wwy_ecc t ~instance g ~rng
    | Spec.Wwy_apsp -> wwy_apsp t ~instance g ~rng
    | a -> invalid_arg ("no layer replay for " ^ Spec.algo_name a)
  in
  let module J = Telemetry.Tjson in
  J.obj
    [
      ("schema", J.str "qcongest-sweep-row/v2"); ("id", J.str j.Spec.id);
      ("algo", J.str (Spec.algo_name j.Spec.algo)); ("n", J.int j.Spec.n);
      ("n_actual", J.int (Wgraph.n g)); ("seed", J.int j.Spec.seed); ("attempts", J.int attempt);
      ("status", J.str "ok"); ("rounds", J.int rounds); ("messages", J.int 0);
      ("estimate", J.float estimate); ("exact", J.int exact);
      ("ratio", J.float (if exact = 0 then 0.0 else estimate /. float_of_int exact));
      ("within", J.bool within); ("note", J.str note);
    ]

let sweep t ~replay spec ~store =
  let execute spec j ~attempt =
    span t "harness.job" (fun () ->
        if replay then replay_job t spec j ~attempt else Harness.Runner.run_job ~attempt spec j)
  in
  span t "op" @@ fun () ->
  let st = span t "harness.store_load" (fun () -> Harness.Store.load ~path:store ()) in
  Fun.protect
    ~finally:(fun () -> Harness.Store.close st)
    (fun () ->
      ignore (span t "harness.runner" (fun () -> Harness.Runner.run ~jobs:1 ~execute spec st)))

let recertify t spec ~store =
  span t "op" @@ fun () ->
  let st = span t "harness.store_load" (fun () -> Harness.Store.load ~lock:false ~path:store ()) in
  let built = ref [] in
  let graph_of_job spec (j : Spec.job) =
    let g = make_graph t spec j in
    built := (g, instance j) :: !built;
    g
  in
  let timed kind f g =
    let instance = Option.value ~default:"?" (List.assq_opt g !built) in
    oracle t ~instance ~kind (fun () -> f g)
  in
  let direct = Check.Oracle.direct in
  let oracle =
    {
      Check.Oracle.weighted_ecc = timed "apsp" direct.Check.Oracle.weighted_ecc;
      hop_ecc = timed "bfs" direct.Check.Oracle.hop_ecc;
    }
  in
  let report =
    span t "check.audit" (fun () -> Check.Suite.sweep_report ~oracle ~graph_of_job spec st)
  in
  List.iter
    (fun (c : Check.Report.certificate) -> count t "check.rows_audited" c.Check.Report.checked)
    report.Check.Report.certificates;
  report

(* ------------------------------ metrics ------------------------------ *)

let metric_names =
  [
    ("graph.skeleton_s", "s"); ("graph.skeleton_mw", "Mword");
    ("graph.skeleton_sources", "count"); ("nanongkai.init_s", "s");
    ("nanongkai.eval_s", "s"); ("nanongkai.mw", "Mword");
    ("nanongkai.sets_run", "count"); ("congest.flood_s", "s");
    ("congest.flood_mw", "Mword"); ("congest.flood_runs", "count");
    ("congest.messages", "count"); ("congest.activations", "count");
    ("congest.tree_s", "s"); ("dqo.search_s", "s");
    ("dqo.grover_iterations", "count"); ("dqo.measurements", "count");
    ("graph.oracle_s", "s"); ("graph.oracle_calls", "count");
    ("graph.oracle_distinct_frac", "frac"); ("harness.make_graph_s", "s");
    ("harness.store_load_s", "s"); ("check.audit_s", "s");
    ("check.rows_audited", "count"); ("harness.sweep_jobs_s", "s");
    ("harness.sweep_overhead_s", "s"); ("untraced_frac", "frac");
  ]

(* Sum of [f node] over every node named [name], at any depth. *)
let sum_nodes t name f =
  let rec go acc = function
    | [] -> acc
    | (nd : Span.node) :: rest ->
      let acc = if nd.Span.name = name then acc +. f nd else acc in
      go (go acc nd.Span.children) rest
  in
  go 0.0 (profile t)

let self t name = sum_nodes t name (fun nd -> nd.Span.self_s)
let total t name = sum_nodes t name (fun nd -> nd.Span.total_s)
let calls t name = sum_nodes t name (fun nd -> float_of_int nd.Span.calls)
let op_seconds t = total t "op"
let mwords t names =
  let words n = Option.value ~default:0.0 (Hashtbl.find_opt t.alloc n) in
  List.fold_left (fun acc n -> acc +. words n) 0.0 names /. 1e6
let counted t name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let op_metrics (factor, t) =
  let s name = factor *. self t name in
  let oracle_calls = calls t "graph.oracle" in
  [
    ("graph.skeleton_s", s "graph.skeleton"); ("graph.skeleton_mw", mwords t [ "graph.skeleton" ]);
    ("graph.skeleton_sources", counted t "graph.skeleton_sources");
    ("nanongkai.init_s", s "nanongkai.init"); ("nanongkai.eval_s", s "nanongkai.eval");
    ("nanongkai.mw", mwords t [ "nanongkai.init"; "nanongkai.eval" ]);
    ("nanongkai.sets_run", counted t "nanongkai.sets_run"); ("congest.flood_s", s "congest.flood");
    ("congest.flood_mw", mwords t [ "congest.flood" ]);
    ("congest.flood_runs", calls t "congest.flood");
    ("congest.messages", counted t "congest.messages");
    ("congest.activations", counted t "congest.activations"); ("congest.tree_s", s "congest.tree");
    ("dqo.search_s", s "dqo.search"); ("dqo.grover_iterations", counted t "dqo.grover_iterations");
    ("dqo.measurements", counted t "dqo.measurements"); ("graph.oracle_s", s "graph.oracle");
    ("graph.oracle_calls", oracle_calls);
    ( "graph.oracle_distinct_frac",
      if oracle_calls = 0.0 then 0.0
      else float_of_int (Hashtbl.length t.oracle_keys) /. oracle_calls );
    ("harness.make_graph_s", s "harness.make_graph");
    ("harness.store_load_s", s "harness.store_load");
    ("check.audit_s", s "check.audit"); ("check.rows_audited", counted t "check.rows_audited");
    ("untraced_frac", (self t "op" +. self t "harness.job") /. op_seconds t);
  ]

let sweep_metrics (factor, t) =
  let jobs = total t "harness.job" in
  [
    ("harness.sweep_jobs_s", factor *. jobs);
    ("harness.sweep_overhead_s", factor *. (total t "harness.runner" -. jobs));
  ]

let mean_of per = function
  | [] -> []
  | xs ->
    let rows = List.map per xs in
    let k = float_of_int (List.length xs) in
    List.map
      (fun (name, _) ->
        (name, List.fold_left (fun acc r -> acc +. List.assoc name r) 0.0 rows /. k))
      (List.hd rows)

let metrics ~sweeps ~ops =
  let values = mean_of op_metrics ops @ mean_of sweep_metrics sweeps in
  List.map
    (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name values)))
    metric_names
