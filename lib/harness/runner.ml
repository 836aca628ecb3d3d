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
  rounds : int; messages : int; estimate : float; exact : int; within : bool; note : string;
}

type error = { kind : string; detail : (string * J.t) list }

type outcome =
  | Succeeded of { result : ok_row; ratio : float }
  | Failed of error
  | Timed_out of error

type row = {
  id : string; algo : Spec.algo; n : int; n_actual : int; seed : int; attempts : int;
  outcome : outcome;
}

type row_error = Unparseable of string | No_status | Bad_field of string

let schema = "qcongest-sweep-row/v2"

let row_to_json r =
  let error status e =
    [ ("status", J.str status); ("error", J.obj (("kind", J.str e.kind) :: e.detail)) ]
  in
  J.obj
    ([ ("schema", J.str schema); ("id", J.str r.id); ("algo", J.str (Spec.algo_name r.algo));
       ("n", J.int r.n); ("n_actual", J.int r.n_actual); ("seed", J.int r.seed);
       ("attempts", J.int r.attempts) ]
    @
    match r.outcome with
    | Succeeded { result = o; ratio } ->
      [ ("status", J.str "ok"); ("rounds", J.int o.rounds); ("messages", J.int o.messages);
        ("estimate", J.float o.estimate); ("exact", J.int o.exact); ("ratio", J.float ratio);
        ("within", J.bool o.within); ("note", J.str o.note) ]
    | Failed e -> error "failed" e
    | Timed_out e -> error "timeout" e)

let row_of_json v =
  let ( let* ) = Result.bind in
  let field name conv =
    Option.to_result ~none:(Bad_field name) (Option.bind (J.member name v) conv)
  in
  let error () =
    field "error" (function
      | J.Obj (("kind", J.Str kind) :: detail) -> Some { kind; detail }
      | _ -> None)
  in
  let* status =
    Option.to_result ~none:No_status (Option.bind (J.member "status" v) J.to_string_opt)
  in
  let* _ = field "schema" (fun s -> if s = J.Str schema then Some () else None) in
  let* id = field "id" J.to_string_opt in
  let* algo = field "algo" (fun a -> Option.bind (J.to_string_opt a) Spec.algo_of_name) in
  let* n = field "n" J.to_int_opt in
  let* n_actual = field "n_actual" J.to_int_opt in
  let* seed = field "seed" J.to_int_opt in
  let* attempts = field "attempts" J.to_int_opt in
  let* outcome =
    match status with
    | "ok" ->
      let* rounds = field "rounds" J.to_int_opt in
      let* messages = field "messages" J.to_int_opt in
      let* estimate = field "estimate" J.to_float_opt in
      let* exact = field "exact" J.to_int_opt in
      let* ratio = field "ratio" J.to_float_opt in
      let* within = field "within" J.to_bool_opt in
      let* note = field "note" J.to_string_opt in
      Ok (Succeeded { result = { rounds; messages; estimate; exact; within; note }; ratio })
    | "failed" -> Result.map (fun e -> Failed e) (error ())
    | "timeout" -> Result.map (fun e -> Timed_out e) (error ())
    | _ -> Error (Bad_field "status")
  in
  Ok { id; algo; n; n_actual; seed; attempts; outcome }

let row_of_string s =
  match J.parse s with Ok v -> row_of_json v | Error msg -> Error (Unparseable msg)

let row_failed s =
  match row_of_string s with Ok { outcome = Succeeded _; _ } -> false | Ok _ | Error _ -> true

(* The printed row of a job that settled with [outcome]. *)
let settle (j : Spec.job) ~n_actual ~attempt outcome =
  J.print
    (row_to_json
       { id = j.Spec.id; algo = j.Spec.algo; n = j.Spec.n; n_actual; seed = j.Spec.seed;
         attempts = attempt; outcome })

let protect ?(attempt = 1) (j : Spec.job) f =
  let settle = settle j ~n_actual:j.Spec.n ~attempt in
  try f () with
  | Congest.Engine.Round_limit_exceeded info ->
    settle
      (Failed
         { kind = "round-limit";
           detail =
             [ ("protocol", J.str info.Congest.Engine.protocol);
               ("round", J.int info.Congest.Engine.round_reached);
               ("partial_rounds", J.int info.Congest.Engine.partial.Congest.Engine.rounds) ] })
  | Congest.Engine.Deadline_exceeded info ->
    settle
      (Timed_out
         { kind = "deadline";
           detail =
             [ ("protocol", J.str info.Congest.Engine.deadline_protocol);
               ("round", J.int info.Congest.Engine.round_at_deadline);
               ("elapsed_s", J.float info.Congest.Engine.elapsed_s);
               ("budget_s", J.float info.Congest.Engine.budget_s) ] })
  | exn ->
    settle (Failed { kind = "exception"; detail = [ ("message", J.str (Printexc.to_string exn)) ] })

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
      let ratio = if r.exact = 0 then 0.0 else r.estimate /. float_of_int r.exact in
      settle j ~n_actual ~attempt (Succeeded { result = r; ratio }))

(* ------------------------------- run ------------------------------- *)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let rec batches size = function
  | [] -> []
  | l -> take size l :: batches size (List.filteri (fun i _ -> i >= size) l)

let store_path (spec : Spec.t) =
  Filename.concat (Telemetry.Export.artifacts_dir ()) (spec.Spec.name ^ ".jsonl")

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

(* Every stored row, read once: [(id, row or why it does not read)]. *)
let read_rows store = List.map (fun (id, raw) -> (id, row_of_string raw)) (Store.rows store)

let ok_points rows (j : Spec.job) =
  (* (n_actual, rounds) of the job's row, when present and ok. *)
  match List.assoc_opt j.Spec.id rows with
  | Some (Ok { n_actual; outcome = Succeeded { result; _ }; _ }) -> Some (n_actual, result.rounds)
  | Some _ | None -> None

let series_points (spec : Spec.t) store =
  let rows = read_rows store in
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
  let rows = read_rows store in
  List.filter_map
    (fun algo ->
      if series_degraded spec rows algo then Some (Spec.algo_name algo) else None)
    spec.Spec.algos

let report (spec : Spec.t) store =
  let rows = read_rows store in
  let all = Spec.jobs spec in
  (* One registry over every job, whose counters are the job counts.
     The store holds at most one row per id; one that does not read
     counts as failed. *)
  let m = Telemetry.Metrics.create () in
  let incr = Telemetry.Metrics.incr m in
  List.iter
    (fun (j : Spec.job) ->
      match List.assoc_opt j.Spec.id rows with
      | None -> ()
      | Some (Error _) -> incr "sweep.jobs.failed"
      | Some (Ok { attempts; outcome; _ }) -> (
        Telemetry.Metrics.add m "sweep.attempts.total" attempts;
        match outcome with
        | Succeeded { result; _ } ->
          incr "sweep.jobs.ok";
          Telemetry.Metrics.add m "sweep.rounds.total" result.rounds;
          Telemetry.Metrics.observe m "sweep.rounds" result.rounds
        | Failed _ -> incr "sweep.jobs.failed"
        | Timed_out _ ->
          (* A timeout is a failure for exit purposes, surfaced separately. *)
          incr "sweep.jobs.failed";
          incr "sweep.jobs.timeout"))
    all;
  let metrics = Telemetry.Metrics.snapshot m in
  let count name = Option.value ~default:0 (Telemetry.Metrics.counter_value metrics name) in
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
  let sorted_rows =
    List.sort (fun (a, _) (b, _) -> compare a b) rows
    |> List.filter_map (fun (_, row) -> Result.to_option (Result.map row_to_json row))
  in
  J.obj
    [
      ("schema", J.str "qcongest-sweep/v1");
      ("name", J.str spec.Spec.name);
      ("version", J.int spec.Spec.version);
      ("spec", Spec.json spec);
      ("total", J.int (List.length all));
      ("ok", J.int (count "sweep.jobs.ok"));
      ("failed", J.int (count "sweep.jobs.failed"));
      ("timeout", J.int (count "sweep.jobs.timeout"));
      (* Every job settles in the one store, so [quarantined] is
         always 0 and [quarantine_rows] always empty; both keys stay
         for the qcongest-sweep/v1 format. *)
      ("quarantined", J.int 0);
      ("missing", J.int (List.length all - count "sweep.jobs.ok" - count "sweep.jobs.failed"));
      ("degraded", J.arr (List.map J.str degraded_names));
      ("series", J.arr series);
      ("metrics", Telemetry.Metrics.to_json metrics);
      ("rows", J.arr sorted_rows);
      ("quarantine_rows", J.arr []);
    ]
