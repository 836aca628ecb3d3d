(* Perf-trajectory bench for the simulator hot paths.

   Times the production implementations on the three workloads every
   experiment in this repo is built from: a long relay chain (round-loop
   overhead), a dense flood (per-message ledger cost), and the exact
   APSP/eccentricity baseline ([Graphlib.Apsp.eccentricities], one
   Dijkstra per source on the calling domain). Their
   outputs are pinned elsewhere: the engine against the seed round loop
   by test_congest's golden-equivalence tests, Dijkstra against
   Bellman-Ford oracles by test_graph.

   Results go to BENCH_engine.json under bench_artifacts/ plus the
   documented root-level copy (the committed trajectory file), and
   each case also appends a qcongest-perf-row/v1 trajectory row under
   bench_artifacts/trajectory/ — the history `qcongest perf gate`
   regresses against.

   QCONGEST_PERF_SMOKE=1 (or `bench/main.exe -- --smoke perf`) shrinks
   the sizes for CI. *)

let smoke () = Sys.getenv_opt "QCONGEST_PERF_SMOKE" <> None

let now () = Telemetry.Clock.now Telemetry.Clock.wall

(* One warm-up evaluation, then [reps] timed ones. The table reports
   the best wall (least scheduler noise); the trajectory row carries
   the median (the robust statistic {!Profile.Gate} medians again
   across rows). *)
let best_of reps f =
  let y = ref (f ()) in
  let walls =
    List.init (max 1 reps) (fun _ ->
        let t0 = now () in
        y := f ();
        now () -. t0)
  in
  (!y, List.fold_left Float.min infinity walls, Util.Stats.median walls)

(* ------------------------------ Protocols -------------------------- *)

(* Relay: a token walks the path, one active node per round. Rounds
   scale with n while per-round work stays tiny, so this isolates the
   fixed cost of one engine round (the seed loop paid an O(n) inbox
   scan there). *)
let relay_protocol : (int, int) Congest.Engine.protocol =
  {
    name = "perf-relay";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Congest.Node_view.id = 0 then (0, Congest.Engine.send [ (1, 0) ])
        else (-1, Congest.Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        if Congest.Engine.Inbox.length inbox = 0 then (s, Congest.Engine.no_action)
        else
          let msg = Congest.Engine.Inbox.msg inbox 0 in
          let next = view.Congest.Node_view.id + 1 in
          if next < view.Congest.Node_view.n then
            (msg + 1, Congest.Engine.send [ (next, msg + 1) ])
          else (msg + 1, Congest.Engine.no_action));
  }

(* Flood: BFS levels; every node fires once, to all neighbors. Message
   count scales with m, so this isolates the per-message cost (ledger,
   inbox append, event-free delivery). *)
let flood_protocol : (int, int) Congest.Engine.protocol =
  {
    name = "perf-flood";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let nbrs = view.Congest.Node_view.neighbors in
        if view.Congest.Node_view.id = 0 then
          (0, Congest.Engine.send (Array.to_list (Array.map (fun (v, _) -> (v, 1)) nbrs)))
        else (-1, Congest.Engine.no_action));
    on_round =
      (fun view ~round:_ s ~inbox ->
        if s >= 0 || Congest.Engine.Inbox.length inbox = 0 then (s, Congest.Engine.no_action)
        else
          let lvl = Congest.Engine.Inbox.fold (fun acc ~src:_ ~w:_ m -> min acc m) max_int inbox in
          let nbrs = view.Congest.Node_view.neighbors in
          (lvl, Congest.Engine.send (Array.to_list (Array.map (fun (v, _) -> (v, lvl + 1)) nbrs))));
  }

(* ------------------------------ Cases ------------------------------ *)

type case = {
  name : string;
  n : int;
  wall_s : float;  (* best of reps *)
  median_s : float;  (* median of reps — the trajectory statistic *)
  metric : string; (* "rounds_per_s" | "messages_per_s" | "sources_per_s" *)
  metric_value : float;
}

let run_engine_case ~name ~metric ~count g proto ~reps =
  let n = Graphlib.Wgraph.n g in
  let (_, trace), wall_s, median_s = best_of reps (fun () -> Congest.Engine.run g proto) in
  let units = float_of_int (count trace) in
  {
    name;
    n;
    wall_s;
    median_s;
    metric;
    metric_value = (if wall_s > 0.0 then units /. wall_s else 0.0);
  }

let relay_case ~reps n =
  let g = Graphlib.Gen.path ~n ~weighting:Graphlib.Gen.Unit ~rng:(Bench_common.rng 1) in
  run_engine_case ~name:"engine-relay" ~metric:"rounds_per_s"
    ~count:(fun t -> t.Congest.Engine.rounds)
    g relay_protocol ~reps

let flood_case ~reps ~cliques ~clique_size =
  let g = Bench_common.ring_of_cliques ~cliques ~clique_size ~max_w:8 ~seed:2 in
  run_engine_case ~name:"engine-flood" ~metric:"messages_per_s"
    ~count:(fun t -> t.Congest.Engine.messages)
    g flood_protocol ~reps

let apsp_case ~reps ~cliques ~clique_size =
  let g = Bench_common.ring_of_cliques ~cliques ~clique_size ~max_w:16 ~seed:3 in
  let n = Graphlib.Wgraph.n g in
  let _, wall_s, median_s = best_of reps (fun () -> Graphlib.Apsp.eccentricities g) in
  {
    name = "apsp-ecc";
    n;
    wall_s;
    median_s;
    metric = "sources_per_s";
    metric_value = (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
  }

(* ------------------------------ Output ----------------------------- *)

let cases_to_json ~jobs ~smoke cases =
  let module J = Telemetry.Json in
  let case c =
    J.obj
      [
        ("name", J.str c.name);
        ("n", J.int c.n);
        ("wall_s", J.float c.wall_s);
        (c.metric, J.float c.metric_value);
      ]
  in
  J.obj
    [
      ("schema", J.str "qcongest-perf/v4");
      ("bench", J.str "engine-hot-path");
      ("smoke", J.bool smoke);
      ("jobs", J.int jobs);
      ("host_cores", J.int (Domain.recommended_domain_count ()));
      ("cases", J.arr (List.map case cases));
    ]

let run () =
  Bench_common.section "PERF — engine round loop and exact baselines";
  let smoke = smoke () in
  (* Even smoke keeps 3 reps: the trajectory rows carry a median, and a
     median-of-1 makes the CI regression gate flaky on shared runners.
     Smoke sizes are tiny, so the extra evals cost milliseconds. *)
  let reps = 3 in
  let relay_sizes = if smoke then [ 500 ] else [ 1000; 2000; 4000 ] in
  let flood_shapes = if smoke then [ (16, 16) ] else [ (32, 32); (32, 48); (32, 64) ] in
  let apsp_shapes = if smoke then [ (10, 12) ] else [ (40, 25); (50, 40) ] in
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("case", Util.Table.Left);
          ("n", Util.Table.Right);
          ("metric", Util.Table.Left);
          ("value", Util.Table.Right);
          ("wall s", Util.Table.Right);
        ]
  in
  let cases =
    List.map (fun n -> relay_case ~reps n) relay_sizes
    @ List.map (fun (c, s) -> flood_case ~reps ~cliques:c ~clique_size:s) flood_shapes
    @ List.map (fun (c, s) -> apsp_case ~reps ~cliques:c ~clique_size:s) apsp_shapes
  in
  List.iter
    (fun c ->
      Util.Table.add_row t
        [
          c.name;
          string_of_int c.n;
          c.metric;
          Bench_common.fmt_large c.metric_value;
          Printf.sprintf "%.4f" c.wall_s;
        ])
    cases;
  Util.Table.print t;
  (* Every case runs on one domain; [jobs] records the worker count the
     trial-fanning sections (lower, ablation, thm11) of this process use. *)
  let jobs = Util.Domain_pool.default_jobs () in
  Bench_common.note "every case ran on one domain (bench worker count: %d)" jobs;
  let json = cases_to_json ~jobs ~smoke cases in
  ignore (Bench_common.write_bench_json ~root_copy:true ~name:"BENCH_engine.json" json);
  (* Perf-trajectory rows: one qcongest-perf-row/v1 per case, appended
     to the history and snapshotted for the regression gate. *)
  let rows =
    List.map
      (fun c ->
        Profile.Trajectory.make ~case:c.name ~n:c.n ~reps ~wall_s:c.median_s
          ~throughput:c.metric_value ())
      cases
  in
  Bench_common.note "wrote %s" (Profile.Trajectory.append rows);
  Bench_common.note "wrote %s" (Profile.Trajectory.write_latest rows)
