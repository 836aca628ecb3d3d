(* ------------------------- graph construction ---------------------- *)

(* Shared across algorithms: every algo cell with the same (family,
   max_w, n, seed) runs on the identical instance, which is what makes
   per-instance comparisons (the Table 1 measured block) meaningful. *)
let graph_seed ~n ~seed = (seed * 131) + n

let make_graph (spec : Spec.t) ~n ~seed =
  Spec.build_graph spec.Spec.family ~max_w:spec.Spec.max_w ~n
    ~rng:(Util.Rng.create ~seed:(graph_seed ~n ~seed))

(* Per-algorithm RNG stream, decorrelated from the graph stream and
   from sibling algorithms on the same instance. *)
let algo_rng (j : Spec.job) =
  let salt = Fit.seed_of_series (Spec.algo_name j.Spec.algo) land 0xFFFF in
  Util.Rng.create ~seed:(graph_seed ~n:j.Spec.n ~seed:j.Spec.seed + 1 + salt)

(* ------------------------------- rows ------------------------------ *)

module J = Telemetry.Json

type ok_row = {
  rounds : int;
  messages : int;  (** 0 for algorithms without a flat trace. *)
  estimate : float;
  exact : int;
  within : bool;
  note : string;
}

let row_fields (j : Spec.job) ~n_actual ~attempt =
  [
    ("schema", J.str "qcongest-sweep-row/v2");
    ("id", J.str j.Spec.id);
    ("algo", J.str (Spec.algo_name j.Spec.algo));
    ("n", J.int j.Spec.n);
    ("n_actual", J.int n_actual);
    ("seed", J.int j.Spec.seed);
    ("attempts", J.int attempt);
  ]

let ok_json (j : Spec.job) ~n_actual ~attempt r =
  let ratio = if r.exact = 0 then 0.0 else r.estimate /. float_of_int r.exact in
  J.print
    (J.obj
       (row_fields j ~n_actual ~attempt
       @ [
           ("status", J.str "ok");
           ("rounds", J.int r.rounds);
           ("messages", J.int r.messages);
           ("estimate", J.float r.estimate);
           ("exact", J.int r.exact);
           ("ratio", J.float ratio);
           ("within", J.bool r.within);
           ("note", J.str r.note);
         ]))

let error_json (j : Spec.job) ~attempt ~status error_fields =
  J.print
    (J.obj
       (row_fields j ~n_actual:j.Spec.n ~attempt
       @ [ ("status", J.str status); ("error", J.obj error_fields) ]))

let failed_json (j : Spec.job) ~attempt error_fields =
  error_json j ~attempt ~status:"failed" error_fields

let protect ?(attempt = 1) (j : Spec.job) f =
  try f () with
  | Congest.Engine.Round_limit_exceeded info ->
    failed_json j ~attempt
      [
        ("kind", J.str "round-limit");
        ("protocol", J.str info.Congest.Engine.protocol);
        ("round", J.int info.Congest.Engine.round_reached);
        ("partial_rounds", J.int info.Congest.Engine.partial.Congest.Engine.rounds);
      ]
  | Congest.Engine.Deadline_exceeded info ->
    error_json j ~attempt ~status:"timeout"
      [
        ("kind", J.str "deadline");
        ("protocol", J.str info.Congest.Engine.deadline_protocol);
        ("round", J.int info.Congest.Engine.round_at_deadline);
        ("elapsed_s", J.float info.Congest.Engine.elapsed_s);
        ("budget_s", J.float info.Congest.Engine.budget_s);
      ]
  | exn ->
    failed_json j ~attempt
      [
        ("kind", J.str "exception");
        ("message", J.str (Printexc.to_string exn));
      ]

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
  match J.parse row with
  | Ok v -> J.member "status" v <> Some (J.Str "ok")
  | Error _ -> true

let run ?jobs ?max_jobs ?deadline_s ?execute ?metrics
    ?(on_progress = fun ~completed:_ ~total:_ -> ()) spec store =
  if not (Option.fold ~none:true ~some:Congest.Engine.valid_deadline deadline_s) then
    invalid_arg "Runner.run: deadline_s must be a non-negative finite number of seconds";
  let execute =
    match execute with
    | Some f -> f
    | None -> fun spec j ~attempt -> run_job ~attempt ?deadline_s spec j
  in
  let all = Spec.jobs spec in
  let total = List.length all in
  let pending = List.filter (fun (j : Spec.job) -> not (Store.mem store j.Spec.id)) all in
  let pending = match max_jobs with Some k -> take k pending | None -> pending in
  let domain_count =
    match jobs with Some x -> max 1 x | None -> Util.Domain_pool.default_jobs ()
  in
  let executed = ref 0 and failed = ref 0 in
  (* Job wall time is observation only — it is measured on the worker
     but recorded into the (single-domain) registry on the coordinator,
     and it never enters a row, so checkpoint bytes stay a pure
     function of the job (the kill-and-resume identity). With
     [?metrics] unset no clock is read at all. *)
  let timed_job (j : Spec.job) =
    match metrics with
    | None -> (execute spec j ~attempt:1, 0.0)
    | Some _ ->
      let t0 = Telemetry.Clock.now Telemetry.Clock.wall in
      let row = execute spec j ~attempt:1 in
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
          Store.append store ~id:j.Spec.id row;
          incr executed;
          if row_failed row then incr failed;
          record_job row wall_s)
        batch rows;
      on_progress ~completed:(Store.count store) ~total)
    (batches (max 1 domain_count) pending);
  (!executed, !failed)

(* ------------------------------ report ----------------------------- *)

let parsed_rows store =
  List.filter_map
    (fun (id, raw) -> match J.parse raw with Ok v -> Some (id, v) | Error _ -> None)
    (Store.rows store)

let ok_points rows (j : Spec.job) =
  (* (n_actual, rounds) of the job's row, when present and ok. *)
  List.find_map
    (fun (id, v) ->
      if id <> j.Spec.id then None
      else if J.member "status" v <> Some (J.Str "ok") then None
      else
        match
          ( Option.bind (J.member "n_actual" v) J.to_int_opt,
            Option.bind (J.member "rounds" v) J.to_int_opt )
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

let report (spec : Spec.t) store =
  let rows = parsed_rows store in
  let all = Spec.jobs spec in
  (* The store holds at most one row per id. *)
  let field_of name conv (j : Spec.job) =
    Option.bind (List.assoc_opt j.Spec.id rows) (fun v -> Option.bind (J.member name v) conv)
  in
  let status_of = field_of "status" J.to_string_opt in
  let attempts_of = field_of "attempts" J.to_int_opt in
  let ok = ref 0 and failed = ref 0 and timeout = ref 0 and missing = ref 0 in
  List.iter
    (fun j ->
      match status_of j with
      | Some "ok" -> incr ok
      | Some "timeout" ->
        (* A timeout is a failure for exit purposes, surfaced separately. *)
        incr failed;
        incr timeout
      | Some _ -> incr failed
      | None -> incr missing)
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
                | None -> ()));
              Option.iter (Telemetry.Metrics.add m "sweep.attempts.total") (attempts_of j)
            end)
          all;
        Telemetry.Metrics.merge acc (Telemetry.Metrics.snapshot m))
      Telemetry.Metrics.empty spec.Spec.algos
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
            ("fit", Fit.fit_to_json (Fit.fit_series ~seed:(Fit.seed_of_series name) points));
            ("degraded", J.bool (List.mem name degraded_names));
          ])
      (series_points spec store)
  in
  let sorted_rows = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) rows) in
  J.obj
    [
      ("schema", J.str "qcongest-sweep/v1");
      ("name", J.str spec.Spec.name);
      ("version", J.int spec.Spec.version);
      ("spec", Spec.json spec);
      ("total", J.int (List.length all));
      ("ok", J.int !ok);
      ("failed", J.int !failed);
      ("timeout", J.int !timeout);
      (* Every job settles in the one store, so [quarantined] is
         always 0 and [quarantine_rows] always empty; both keys stay
         for the qcongest-sweep/v1 format. *)
      ("quarantined", J.int 0);
      ("missing", J.int !missing);
      ("degraded", J.arr (List.map J.str degraded_names));
      ("series", J.arr series);
      ("metrics", Telemetry.Metrics.to_json merged);
      ("rows", J.arr sorted_rows);
      ("quarantine_rows", J.arr []);
    ]
