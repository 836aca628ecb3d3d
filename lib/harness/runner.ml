(* ------------------------- graph construction ---------------------- *)

(* Shared across algorithms: every algo cell with the same (family,
   max_w, n, seed) runs on the identical instance, which is what makes
   per-instance comparisons (the Table 1 measured block) meaningful. *)
let graph_seed ~n ~seed = (seed * 131) + n

let make_graph (spec : Spec.t) ~n ~seed =
  let rng = Util.Rng.create ~seed:(graph_seed ~n ~seed) in
  let weighting = Graphlib.Gen.Uniform { max_w = spec.Spec.max_w } in
  match spec.Spec.family with
  | Spec.Ring { cliques } ->
    Graphlib.Gen.cliques_cycle ~cliques ~clique_size:(max 1 (n / cliques)) ~weighting ~rng
  | Spec.Chain { cliques } ->
    if cliques = 1 then Graphlib.Gen.complete ~n ~weighting ~rng
    else Graphlib.Gen.cliques_path ~cliques ~clique_size:(max 1 (n / cliques)) ~weighting ~rng
  | Spec.Gnp { p } -> Graphlib.Gen.gnp_connected ~n ~p ~weighting ~rng
  | Spec.Grid ->
    let side = max 1 (Util.Int_math.isqrt n) in
    Graphlib.Gen.grid ~rows:side ~cols:(Util.Int_math.ceil_div n side) ~weighting ~rng
  | Spec.Hard -> Graphlib.Gen.weighted_hard_diameter ~n ~heavy:(spec.Spec.max_w * 50) ~rng
  | Spec.Random_tree -> Graphlib.Gen.random_tree ~n ~weighting ~rng

(* Per-algorithm RNG stream, decorrelated from the graph stream and
   from sibling algorithms on the same instance. *)
let algo_rng (j : Spec.job) =
  let salt = Fit.seed_of_series (Spec.algo_name j.Spec.algo) land 0xFFFF in
  Util.Rng.create ~seed:(graph_seed ~n:j.Spec.n ~seed:j.Spec.seed + 1 + salt)

(* ------------------------------- rows ------------------------------ *)

type ok_row = {
  rounds : int;
  messages : int;  (** 0 for algorithms without a flat trace. *)
  estimate : float;
  exact : int;
  within : bool;
  note : string;
}

let row_prefix (j : Spec.job) ~n_actual ~attempt =
  Printf.sprintf
    "{\"schema\":\"qcongest-sweep-row/v2\",\"id\":%s,\"algo\":%s,\"n\":%d,\"n_actual\":%d,\"seed\":%d,\"attempts\":%d"
    (Telemetry.Tjson.str j.Spec.id)
    (Telemetry.Tjson.str (Spec.algo_name j.Spec.algo))
    j.Spec.n n_actual j.Spec.seed attempt

let ok_json (j : Spec.job) ~n_actual ~attempt r =
  let ratio = if r.exact = 0 then 0.0 else r.estimate /. float_of_int r.exact in
  Printf.sprintf
    "%s,\"status\":\"ok\",\"rounds\":%d,\"messages\":%d,\"estimate\":%s,\"exact\":%d,\"ratio\":%s,\"within\":%b,\"note\":%s}"
    (row_prefix j ~n_actual ~attempt)
    r.rounds r.messages
    (Telemetry.Tjson.float r.estimate)
    r.exact
    (Telemetry.Tjson.float ratio)
    r.within
    (Telemetry.Tjson.str r.note)

let error_json (j : Spec.job) ~attempt ~status error_fields =
  Printf.sprintf "%s,\"status\":%s,\"error\":%s}"
    (row_prefix j ~n_actual:j.Spec.n ~attempt)
    (Telemetry.Tjson.str status)
    (Telemetry.Tjson.obj error_fields)

let failed_json (j : Spec.job) ~attempt error_fields =
  error_json j ~attempt ~status:"failed" error_fields

let protect ?(attempt = 1) (j : Spec.job) f =
  try f () with
  | Congest.Engine.Round_limit_exceeded info ->
    failed_json j ~attempt
      [
        ("kind", Telemetry.Tjson.str "round-limit");
        ("protocol", Telemetry.Tjson.str info.Congest.Engine.protocol);
        ("round", Telemetry.Tjson.int info.Congest.Engine.round_reached);
        ("partial_rounds", Telemetry.Tjson.int info.Congest.Engine.partial.Congest.Engine.rounds);
      ]
  | Congest.Engine.Deadline_exceeded info ->
    error_json j ~attempt ~status:"timeout"
      [
        ("kind", Telemetry.Tjson.str "deadline");
        ("protocol", Telemetry.Tjson.str info.Congest.Engine.deadline_protocol);
        ("round", Telemetry.Tjson.int info.Congest.Engine.round_at_deadline);
        ("elapsed_s", Telemetry.Tjson.float info.Congest.Engine.elapsed_s);
        ("budget_s", Telemetry.Tjson.float info.Congest.Engine.budget_s);
      ]
  | exn ->
    failed_json j ~attempt
      [
        ("kind", Telemetry.Tjson.str "exception");
        ("message", Telemetry.Tjson.str (Printexc.to_string exn));
      ]

(* ------------------------- retry scheduling ------------------------ *)

type retry = {
  max_attempts : int;
  backoff_s : float;
  multiplier : float;
  jitter : float;
  retry_seed : int;
}

let no_retry =
  { max_attempts = 1; backoff_s = 0.0; multiplier = 2.0; jitter = 0.0; retry_seed = 0 }

let default_retry =
  { max_attempts = 3; backoff_s = 0.05; multiplier = 2.0; jitter = 0.25; retry_seed = 0 }

(* The whole schedule is a pure function of (policy, job id): the
   jitter RNG is seeded from both, so one job's draws never perturb
   another's and a resumed run replays the identical schedule — the
   property that keeps kill-and-resume byte-identical under retries. *)
let backoff_schedule retry ~job_id =
  if retry.max_attempts <= 1 then []
  else begin
    let salt = Int64.to_int (Fnv.hash64 job_id) land 0x3FFFFFFF in
    let rng = Util.Rng.create ~seed:(retry.retry_seed lxor salt) in
    List.init
      (retry.max_attempts - 1)
      (fun i ->
        let base = retry.backoff_s *. (retry.multiplier ** float_of_int i) in
        let factor =
          if retry.jitter <= 0.0 then 1.0
          else 1.0 -. retry.jitter +. Util.Rng.float rng (2.0 *. retry.jitter)
        in
        Float.max 0.0 (base *. factor))
  end

(* --------------------------- job execution ------------------------- *)

let run_job ?(attempt = 1) ?deadline_s (spec : Spec.t) (j : Spec.job) =
  protect ~attempt j (fun () ->
      let supervised f =
        match deadline_s with
        | None -> f ()
        | Some seconds -> Congest.Engine.with_deadline ~seconds f
      in
      supervised @@ fun () ->
      let g = make_graph spec ~n:j.Spec.n ~seed:j.Spec.seed in
      let n_actual = Graphlib.Wgraph.n g in
      let rng = algo_rng j in
      let tree () = fst (Congest.Tree.build g ~root:0) in
      let r =
        match j.Spec.algo with
        | Spec.Thm11_diameter | Spec.Thm11_radius ->
          let obj =
            if j.Spec.algo = Spec.Thm11_diameter then Core.Algorithm.Diameter
            else Core.Algorithm.Radius
          in
          let r = Core.Algorithm.run g obj ~rng in
          {
            rounds = r.Core.Algorithm.rounds;
            messages = 0;
            estimate = r.Core.Algorithm.estimate;
            exact = r.Core.Algorithm.exact;
            within = r.Core.Algorithm.within_guarantee;
            note =
              Printf.sprintf "outer=%d inner=%d" r.Core.Algorithm.outer_iterations
                r.Core.Algorithm.inner_iterations_total;
          }
        | Spec.Classical_diameter | Spec.Classical_radius ->
          let run =
            if j.Spec.algo = Spec.Classical_diameter then Baselines.All_pairs.diameter
            else Baselines.All_pairs.radius
          in
          let r = run g ~tree:(tree ()) in
          {
            rounds = r.Baselines.All_pairs.rounds;
            messages = r.Baselines.All_pairs.trace.Congest.Engine.messages;
            estimate = float_of_int r.Baselines.All_pairs.value;
            exact = r.Baselines.All_pairs.value;
            within = true;
            note = "token-flood APSP";
          }
        | Spec.Lm_unweighted ->
          let r = Baselines.Legall_magniez.diameter g ~rng () in
          {
            rounds = r.Baselines.Legall_magniez.rounds;
            messages = 0;
            estimate = float_of_int r.Baselines.Legall_magniez.value;
            exact = r.Baselines.Legall_magniez.exact;
            within = r.Baselines.Legall_magniez.correct;
            note =
              Printf.sprintf "groups=%d x=%d" r.Baselines.Legall_magniez.groups
                r.Baselines.Legall_magniez.group_size;
          }
        | Spec.Approx_apsp ->
          let r = Baselines.Approx_apsp.run g ~tree:(tree ()) ~rng in
          {
            rounds = r.Baselines.Approx_apsp.rounds;
            messages = 0;
            estimate = r.Baselines.Approx_apsp.diameter_estimate;
            exact = r.Baselines.Approx_apsp.exact_diameter;
            within = r.Baselines.Approx_apsp.within_guarantee;
            note = Printf.sprintf "congestion_ok=%b" r.Baselines.Approx_apsp.congestion_ok;
          }
        | Spec.Three_halves ->
          let r = Baselines.Three_halves.diameter g ~tree:(tree ()) ~rng in
          {
            rounds = r.Baselines.Three_halves.rounds;
            messages = 0;
            estimate = float_of_int r.Baselines.Three_halves.estimate;
            exact = r.Baselines.Three_halves.exact;
            within = r.Baselines.Three_halves.within_three_halves;
            note = Printf.sprintf "|S|=%d" r.Baselines.Three_halves.sample_size;
          }
        | Spec.Sssp_two_approx ->
          let r = Baselines.Sssp_approx.diameter g ~tree:(tree ()) in
          {
            rounds = r.Baselines.Sssp_approx.rounds;
            messages = 0;
            estimate = float_of_int r.Baselines.Sssp_approx.estimate;
            exact = r.Baselines.Sssp_approx.exact;
            within = r.Baselines.Sssp_approx.within_factor_two;
            note = Printf.sprintf "sweeps=%d" r.Baselines.Sssp_approx.sweeps;
          }
        | Spec.Wwy_ecc ->
          let r = Baselines.Wwy_ecc.max_eccentricity g ~rng () in
          {
            rounds = r.Baselines.Wwy_ecc.rounds;
            messages = 0;
            estimate = float_of_int r.Baselines.Wwy_ecc.extremal;
            exact = r.Baselines.Wwy_ecc.exact;
            within = r.Baselines.Wwy_ecc.correct && r.Baselines.Wwy_ecc.ecc_ok;
            note =
              Printf.sprintf "groups=%d x=%d cov=%d" r.Baselines.Wwy_ecc.groups
                r.Baselines.Wwy_ecc.group_size r.Baselines.Wwy_ecc.coverage;
          }
        | Spec.Wwy_apsp ->
          let r = Baselines.Wwy_apsp.run g ~rng () in
          {
            rounds = r.Baselines.Wwy_apsp.rounds;
            messages = 0;
            estimate = float_of_int r.Baselines.Wwy_apsp.diameter_estimate;
            exact = r.Baselines.Wwy_apsp.exact;
            within = r.Baselines.Wwy_apsp.correct && r.Baselines.Wwy_apsp.dist_ok;
            note =
              Printf.sprintf "apsp=%d search=%d" r.Baselines.Wwy_apsp.apsp_rounds
                r.Baselines.Wwy_apsp.search_rounds;
          }
        | Spec.Bfs_reliable ->
          let f = spec.Spec.faults in
          let faults =
            Congest.Fault.make ~seed:f.Spec.fault_seed ~drop:f.Spec.drop ~delay:f.Spec.delay
              ~duplicate:f.Spec.duplicate ()
          in
          let base_tree, base = Congest.Tree.build g ~root:0 in
          let ftree, tr = Congest.Tree.build ~faults ~reliable:Congest.Reliable.default_config g ~root:0 in
          let levels_match = ftree.Congest.Tree.level = base_tree.Congest.Tree.level in
          {
            rounds = tr.Congest.Engine.rounds;
            messages = tr.Congest.Engine.messages;
            estimate = float_of_int ftree.Congest.Tree.depth;
            exact = base_tree.Congest.Tree.depth;
            within = levels_match;
            note =
              Printf.sprintf "overhead=%.2fx dropped=%d"
                (float_of_int tr.Congest.Engine.rounds
                /. float_of_int (max 1 base.Congest.Engine.rounds))
                tr.Congest.Engine.dropped;
          }
      in
      ok_json j ~n_actual ~attempt r)

(* ------------------------------- run ------------------------------- *)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let rec batches size = function
  | [] -> []
  | l -> take size l :: batches size (List.filteri (fun i _ -> i >= size) l)

let row_failed row =
  match Hjson.parse row with
  | Ok v -> Hjson.member "status" v <> Some (Hjson.Str "ok")
  | Error _ -> true

let quarantine_path store = Store.sibling (Store.path store) ~tag:"quarantine"

(* Run one job to settlement under the retry policy: re-execute failed
   attempts, sleeping the job's deterministic backoff schedule between
   them, until a row is ok or the attempt budget is spent. Runs inside
   a Domain_pool worker, so concurrent jobs back off in parallel. *)
let attempt_job ~retry ~sleep ~execute spec (j : Spec.job) =
  let rec go attempt = function
    | [] -> execute spec j ~attempt
    | delay :: rest ->
      let row = execute spec j ~attempt in
      if row_failed row then begin
        sleep delay;
        go (attempt + 1) rest
      end
      else row
  in
  go 1 (backoff_schedule retry ~job_id:j.Spec.id)

let run ?jobs ?max_jobs ?(retry = no_retry) ?deadline_s ?(sleep = Unix.sleepf)
    ?execute ?metrics ?(on_progress = fun ~completed:_ ~total:_ -> ()) spec store =
  if retry.max_attempts < 1 then invalid_arg "Runner.run: retry.max_attempts must be >= 1";
  if not (Option.fold ~none:true ~some:Congest.Engine.valid_deadline deadline_s) then
    invalid_arg "Runner.run: deadline_s must be a non-negative finite number of seconds";
  let execute =
    match execute with
    | Some f -> f
    | None -> fun spec j ~attempt -> run_job ~attempt ?deadline_s spec j
  in
  let all = Spec.jobs spec in
  let total = List.length all in
  (* Poison jobs quarantined by an earlier invocation are settled: a
     resume must neither re-run them nor wait for them. The sibling
     store is only opened (and its file only created) when needed. *)
  let qstore = ref None in
  let force_qstore () =
    match !qstore with
    | Some q -> q
    | None ->
      (* The runner appends poison rows here, so this is a writer's
         open: it takes the quarantine store's own lock (re-entrant
         for this process) rather than the read-only [~lock:false]
         path, which since the lock-coexistence fix never writes. *)
      let q = Store.load ~path:(quarantine_path store) () in
      qstore := Some q;
      q
  in
  if Sys.file_exists (quarantine_path store) then ignore (force_qstore ());
  let quarantined id = match !qstore with Some q -> Store.mem q id | None -> false in
  let pending =
    List.filter
      (fun (j : Spec.job) -> not (Store.mem store j.Spec.id || quarantined j.Spec.id))
      all
  in
  let pending = match max_jobs with Some k -> take k pending | None -> pending in
  let domain_count =
    match jobs with Some x -> max 1 x | None -> Util.Domain_pool.default_jobs ()
  in
  let executed = ref 0 and failed = ref 0 in
  let settled () =
    Store.count store + match !qstore with Some q -> Store.count q | None -> 0
  in
  (* Job wall time is observation only — it is measured on the worker
     but recorded into the (single-domain) registry on the coordinator,
     and it never enters a row, so checkpoint bytes stay a pure
     function of the job (the kill-and-resume identity). With
     [?metrics] unset no clock is read at all. *)
  let timed_job (j : Spec.job) =
    match metrics with
    | None -> (attempt_job ~retry ~sleep ~execute spec j, 0.0)
    | Some _ ->
      let t0 = Telemetry.Clock.now Telemetry.Clock.wall in
      let row = attempt_job ~retry ~sleep ~execute spec j in
      (row, Telemetry.Clock.now Telemetry.Clock.wall -. t0)
  in
  let record_job row wall_s =
    match metrics with
    | None -> ()
    | Some m ->
      Telemetry.Metrics.observe m "sweep.job.wall_ms"
        (int_of_float (Float.round (wall_s *. 1000.0)));
      Telemetry.Metrics.incr m
        (if row_failed row then "sweep.job.failed" else "sweep.job.ok")
  in
  List.iter
    (fun batch ->
      let rows = Util.Domain_pool.map_list ~jobs:domain_count timed_job batch in
      List.iter2
        (fun (j : Spec.job) (row, wall_s) ->
          let poison = row_failed row && retry.max_attempts > 1 in
          if poison then Store.append (force_qstore ()) ~id:j.Spec.id row
          else Store.append store ~id:j.Spec.id row;
          incr executed;
          if row_failed row then incr failed;
          record_job row wall_s)
        batch rows;
      on_progress ~completed:(settled ()) ~total)
    (batches (max 1 domain_count) pending);
  (* Release the quarantine store's writer lock (the main store's lock
     belongs to the caller that opened it). *)
  (match !qstore with Some q -> Store.close q | None -> ());
  (!executed, !failed)

(* ------------------------------ report ----------------------------- *)

let parsed_rows store =
  List.filter_map
    (fun (id, raw) ->
      match Hjson.parse raw with Ok v -> Some (id, raw, v) | Error _ -> None)
    (Store.rows store)

let ok_points rows (j : Spec.job) =
  (* (n_actual, rounds) of the job's row, when present and ok. *)
  List.find_map
    (fun (id, _, v) ->
      if id <> j.Spec.id then None
      else if Hjson.member "status" v <> Some (Hjson.Str "ok") then None
      else
        match
          ( Option.bind (Hjson.member "n_actual" v) Hjson.to_int_opt,
            Option.bind (Hjson.member "rounds" v) Hjson.to_int_opt )
        with
        | Some n_actual, Some rounds -> Some (n_actual, rounds)
        | _ -> None)
    rows

let series_points (spec : Spec.t) store =
  let rows = parsed_rows store in
  let all = Spec.jobs spec in
  List.map
    (fun algo ->
      let points =
        List.filter_map
          (fun n ->
            let cell =
              List.filter (fun (j : Spec.job) -> j.Spec.algo = algo && j.Spec.n = n) all
            in
            let measured = List.filter_map (ok_points rows) cell in
            match measured with
            | [] -> None
            | (n_actual, _) :: _ ->
              let rounds = List.map (fun (_, r) -> float_of_int r) measured in
              Some (float_of_int n_actual, Util.Stats.median rounds))
          spec.Spec.sizes
      in
      (Spec.algo_name algo, points))
    spec.Spec.algos

(* The quarantine sibling participates in reports (and degradation)
   whenever it exists; [?quarantine] lets callers supply an
   already-open handle instead. *)
let quarantine_rows ?quarantine store =
  match quarantine with
  | Some q -> parsed_rows q
  | None ->
    let qp = quarantine_path store in
    if Sys.file_exists qp then parsed_rows (Store.load ~lock:false ~path:qp ()) else []

(* A series degrades when its surviving ok rows can no longer support
   the verdicts built on them: fewer than two distinct sizes (no slope
   to fit) or less than half of the expected cells. *)
let series_degraded (spec : Spec.t) rows algo =
  let cells = List.filter (fun (j : Spec.job) -> j.Spec.algo = algo) (Spec.jobs spec) in
  let expected = List.length cells in
  let ok_cells = List.filter (fun j -> ok_points rows j <> None) cells in
  let distinct_sizes =
    List.sort_uniq Int.compare (List.map (fun (j : Spec.job) -> j.Spec.n) ok_cells)
  in
  expected > 0 && (List.length distinct_sizes < 2 || 2 * List.length ok_cells < expected)

let degraded_series (spec : Spec.t) store =
  let rows = parsed_rows store in
  List.filter_map
    (fun algo ->
      if series_degraded spec rows algo then Some (Spec.algo_name algo) else None)
    spec.Spec.algos

let report ?quarantine (spec : Spec.t) store =
  let module J = Telemetry.Tjson in
  let rows = parsed_rows store in
  let qrows = quarantine_rows ?quarantine store in
  let all = Spec.jobs spec in
  let find_status rows (j : Spec.job) =
    List.find_map
      (fun (id, _, v) ->
        if id = j.Spec.id then Option.bind (Hjson.member "status" v) Hjson.to_string_opt
        else None)
      rows
  in
  let status_of j = find_status rows j in
  let attempts_of (j : Spec.job) rows =
    List.find_map
      (fun (id, _, v) ->
        if id = j.Spec.id then Option.bind (Hjson.member "attempts" v) Hjson.to_int_opt
        else None)
      rows
  in
  let ok = ref 0 and failed = ref 0 and timeout = ref 0 and missing = ref 0 in
  let quarantined = ref 0 in
  List.iter
    (fun j ->
      match status_of j with
      | Some "ok" -> incr ok
      | Some "timeout" ->
        (* A timeout is a failure for exit purposes, surfaced separately. *)
        incr failed;
        incr timeout
      | Some _ -> incr failed
      | None -> if find_status qrows j <> None then incr quarantined else incr missing)
    all;
  (* Per-series metric registries, merged into one snapshot — counters
     and histogram buckets add across series. *)
  let merged =
    List.fold_left
      (fun acc algo ->
        let m = Telemetry.Metrics.create () in
        List.iter
          (fun (j : Spec.job) ->
            if j.Spec.algo = algo then begin
              (match ok_points rows j with
              | Some (_, rounds) ->
                Telemetry.Metrics.incr m "sweep.jobs.ok";
                Telemetry.Metrics.add m "sweep.rounds.total" rounds;
                Telemetry.Metrics.observe m "sweep.rounds" rounds
              | None -> (
                match status_of j with
                | Some "timeout" ->
                  Telemetry.Metrics.incr m "sweep.jobs.failed";
                  Telemetry.Metrics.incr m "sweep.jobs.timeout"
                | Some _ -> Telemetry.Metrics.incr m "sweep.jobs.failed"
                | None ->
                  if find_status qrows j <> None then
                    Telemetry.Metrics.incr m "sweep.jobs.quarantined"));
              match
                (attempts_of j rows, attempts_of j qrows)
              with
              | Some a, _ | None, Some a ->
                Telemetry.Metrics.add m "sweep.attempts.total" a;
                if a > 1 then Telemetry.Metrics.incr m "sweep.jobs.retried"
              | None, None -> ()
            end)
          all;
        Telemetry.Metrics.merge acc (Telemetry.Metrics.snapshot m))
      Telemetry.Metrics.empty spec.Spec.algos
  in
  let fit_json = function
    | None -> "null"
    | Some (f : Fit.series_fit) ->
      J.obj
        [
          ("slope", J.float f.Fit.slope);
          ("intercept", J.float f.Fit.intercept);
          ("r2", J.float f.Fit.r2);
          ("ci_lo", J.float f.Fit.ci.Fit.lo);
          ("ci_hi", J.float f.Fit.ci.Fit.hi);
        ]
  in
  let degraded_names = degraded_series spec store in
  let series =
    List.map
      (fun (name, points) ->
        J.obj
          [
            ("algo", J.str name);
            ( "points",
              J.arr (List.map (fun (x, y) -> J.arr [ J.float x; J.float y ]) points) );
            ("fit", fit_json (Fit.fit_series ~seed:(Fit.seed_of_series name) points));
            ("degraded", J.bool (List.mem name degraded_names));
          ])
      (series_points spec store)
  in
  let sorted_rows =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) rows
    |> List.map (fun (_, raw, _) -> raw)
  in
  let sorted_quarantine =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) qrows
    |> List.map (fun (_, raw, _) -> raw)
  in
  J.obj
    [
      ("schema", J.str "qcongest-sweep/v1");
      ("name", J.str spec.Spec.name);
      ("version", J.int spec.Spec.version);
      ("spec", Spec.to_json spec);
      ("total", J.int (List.length all));
      ("ok", J.int !ok);
      ("failed", J.int !failed);
      ("timeout", J.int !timeout);
      ("quarantined", J.int !quarantined);
      ("missing", J.int !missing);
      ("degraded", J.arr (List.map J.str degraded_names));
      ("series", J.arr series);
      ("metrics", Telemetry.Metrics.to_json merged);
      ("rows", J.arr sorted_rows);
      ("quarantine_rows", J.arr sorted_quarantine);
    ]
