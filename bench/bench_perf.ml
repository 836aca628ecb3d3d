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

   QCONGEST_PERF_SMOKE=1 shrinks the sizes for CI. *)

let smoke () = Sys.getenv_opt "QCONGEST_PERF_SMOKE" <> None

let now () = Telemetry.Clock.now Telemetry.Clock.wall

(* The repetition rule: one warm-up evaluation, then timed ones until
   there are at least [min_reps] and they add up to at least
   [min_timed_s] of wall time. A case that runs for 0.2 ms is timed
   thousands of times and a 1 s case three times, so no single GC
   slice or scheduler hiccup decides a reading. Every case reports the
   median of its reps, in the table, in BENCH_engine.json and in its
   trajectory row (the robust statistic {!Profile.Gate} medians again
   across rows). *)
let min_reps = 3

let min_timed_s = 0.5

let timed f =
  let y = ref (f ()) in
  let rec go walls reps total =
    if reps >= min_reps && total >= min_timed_s then walls
    else begin
      let t0 = now () in
      y := f ();
      let dt = now () -. t0 in
      go (dt :: walls) (reps + 1) (total +. dt)
    end
  in
  let walls = go [] 0 0.0 in
  (!y, Util.Stats.median walls, List.length walls)

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

(* Flood: BFS levels; every node fires once, to all neighbors, as one
   broadcast (the action every flood in [lib] uses). Message count
   scales with m, so this isolates the per-message cost (ledger, inbox
   append, event-free delivery). *)
let flood_protocol : (int, int) Congest.Engine.protocol =
  {
    name = "perf-flood";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        if view.Congest.Node_view.id = 0 then (0, Congest.Engine.broadcast [ 1 ])
        else (-1, Congest.Engine.no_action));
    on_round =
      (fun _ ~round:_ s ~inbox ->
        if s >= 0 || Congest.Engine.Inbox.length inbox = 0 then (s, Congest.Engine.no_action)
        else
          let lvl = Congest.Engine.Inbox.fold (fun acc ~src:_ ~w:_ m -> min acc m) max_int inbox in
          (lvl, Congest.Engine.broadcast [ lvl + 1 ]));
  }

(* ------------------------------ Cases ------------------------------ *)

type case = {
  name : string;
  n : int;
  wall_s : float;  (* median of reps *)
  reps : int;
  metric : string; (* "rounds_per_s" | "messages_per_s" | "sources_per_s" *)
  metric_value : float;
}

let make_case ~name ~metric ~n ~units f =
  let y, wall_s, reps = timed f in
  {
    name;
    n;
    wall_s;
    reps;
    metric;
    metric_value = (if wall_s > 0.0 then float_of_int (units y) /. wall_s else 0.0);
  }

let relay_case n =
  let g = Graphlib.Gen.path ~n ~weighting:Graphlib.Gen.Unit ~rng:(Bench_common.rng 1) in
  make_case ~name:"engine-relay" ~metric:"rounds_per_s" ~n
    ~units:(fun (_, t) -> t.Congest.Engine.rounds)
    (fun () -> Congest.Engine.run g relay_protocol)

let flood_case ~cliques ~clique_size =
  let g = Bench_common.ring_of_cliques ~cliques ~clique_size ~max_w:8 ~seed:2 in
  make_case ~name:"engine-flood" ~metric:"messages_per_s" ~n:(Graphlib.Wgraph.n g)
    ~units:(fun (_, t) -> t.Congest.Engine.messages)
    (fun () -> Congest.Engine.run g flood_protocol)

let apsp_case ~cliques ~clique_size =
  let g = Bench_common.ring_of_cliques ~cliques ~clique_size ~max_w:16 ~seed:3 in
  let n = Graphlib.Wgraph.n g in
  make_case ~name:"apsp-ecc" ~metric:"sources_per_s" ~n
    ~units:(fun _ -> n)
    (fun () -> Graphlib.Apsp.eccentricities g)

(* ------------------------------ Output ----------------------------- *)

let cases_to_json ~jobs ~smoke cases =
  let module J = Telemetry.Json in
  let case c =
    J.obj
      [
        ("name", J.str c.name);
        ("n", J.int c.n);
        ("wall_s", J.float c.wall_s);
        ("reps", J.int c.reps);
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
          ("median s", Util.Table.Right);
          ("reps", Util.Table.Right);
        ]
  in
  let cases =
    List.map relay_case relay_sizes
    @ List.map (fun (c, s) -> flood_case ~cliques:c ~clique_size:s) flood_shapes
    @ List.map (fun (c, s) -> apsp_case ~cliques:c ~clique_size:s) apsp_shapes
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
          string_of_int c.reps;
        ])
    cases;
  Util.Table.print t;
  (* Every case runs on one domain; [jobs] records the worker count the
     trial-fanning sections (lower, ablation, thm11) of this process use. *)
  let jobs = Util.Domain_pool.default_jobs () in
  Bench_common.note "every case ran on one domain (bench worker count: %d)" jobs;
  (* The artifacts directory gets the canonical copy; ./BENCH_engine.json
     is where the committed trajectory history lives and where CI's jq
     checks look. *)
  let content = Telemetry.Json.print (cases_to_json ~jobs ~smoke cases) in
  Bench_common.note "wrote %s"
    (Telemetry.Export.write_artifact ~name:"BENCH_engine.json" content);
  Telemetry.Export.write_file ~path:"BENCH_engine.json" (content ^ "\n");
  Bench_common.note "wrote BENCH_engine.json (root trajectory copy)";
  (* Perf-trajectory rows: one qcongest-perf-row/v1 per case, appended
     to the history and snapshotted for the regression gate. *)
  let rows =
    List.map
      (fun c ->
        Profile.Trajectory.make ~case:c.name ~n:c.n ~reps:c.reps ~wall_s:c.wall_s
          ~throughput:c.metric_value ())
      cases
  in
  Bench_common.note "wrote %s" (Profile.Trajectory.append rows);
  Bench_common.note "wrote %s" (Profile.Trajectory.write_latest rows)
