(* Exit-code regression for the qcongest CLI, focused on the sweep
   subcommand's contract:

     0  clean run (including "jobs still pending")
     1  the sweep completed but checkpointed failures
     2  sweep usage errors (unknown spec, bad file)
     3  a scaling gate rejected the measured exponents
     124  cmdliner CLI parse errors

   Run via `dune build @cli-exit-codes` (also under `dune runtest`);
   argv.(1) is the CLI executable. The driver links the harness
   library so it can fabricate specs and checkpoint rows directly. *)

let failures = ref 0

let expect ~what code cmd =
  let rc = Sys.command (cmd ^ " > /dev/null") in
  if rc = code then Printf.printf "ok   exit %-3d %s\n%!" code what
  else begin
    Printf.printf "FAIL exit %d (wanted %d): %s\n   %s\n%!" rc code what cmd;
    incr failures
  end

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: cli_exit_smoke <qcongest-cli-exe>";
    exit 2
  end;
  let exe = Filename.quote Sys.argv.(1) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcongest_cli_smoke.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Unix.putenv "ARTIFACTS_DIR" dir;
  let sweep args = Printf.sprintf "%s sweep %s" exe args in

  (* 0: nothing executed yet, jobs pending — still a clean exit. *)
  expect ~what:"sweep run with --max-jobs 0 (jobs pending)" 0
    (sweep "run --builtin ci-smoke --max-jobs 0");

  (* 2: usage errors the sweep layer detects itself. *)
  expect ~what:"unknown built-in spec" 2 (sweep "run --builtin no-such-spec");
  expect ~what:"unreadable spec file" 2 (sweep "run --spec /nonexistent/spec.json");
  expect ~what:"--retries below 1" 2 (sweep "run --builtin ci-smoke --retries 0");

  (* 2: a malformed QCONGEST_JOBS is rejected at startup, before any
     command dispatch, with a clear message. *)
  expect ~what:"invalid QCONGEST_JOBS fails fast" 2
    (Printf.sprintf "QCONGEST_JOBS=banana %s sweep run --builtin ci-smoke --max-jobs 0" exe);

  (* 2: a checkpoint store held by another live process is refused. *)
  let locked_path = Filename.concat dir "locked.jsonl" in
  Out_channel.with_open_text (locked_path ^ ".lock") (fun oc ->
      output_string oc (string_of_int (Unix.getpid ()) ^ "\n"));
  expect ~what:"store locked by a live process" 2
    (sweep
       (Printf.sprintf "report --builtin ci-smoke --store %s" (Filename.quote locked_path)));

  (* 3: the negative control — synthesized mis-scaled series that a
     healthy gate must reject. *)
  expect ~what:"gate --negative-control rejects mis-scaled series" 3
    (sweep "gate --builtin ci-smoke --negative-control");

  (* 124: cmdliner's own CLI-error exit for an unknown command. *)
  expect ~what:"unknown subcommand" 124 (Printf.sprintf "%s frobnicate" exe);

  (* The perf gate's 0/1/3 contract, driven by fabricated trajectory
     rows: identical rows pass, a halved baseline (current looks 2x
     slower) is a measured regression, a missing baseline is
     inconclusive — never a pass, never a regression. *)
  let perf_row ~case ~wall =
    Printf.sprintf
      "{\"schema\":\"qcongest-perf-row/v1\",\"case\":%S,\"n\":64,\"reps\":3,\"wall_s\":%g,\"throughput\":1000,\"host\":\"smoke\",\"git_rev\":\"unknown\",\"unix_s\":0}"
      case wall
  in
  let write_rows name rows =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun r -> output_string oc (r ^ "\n")) rows);
    path
  in
  let current =
    write_rows "perf-current.jsonl"
      [ perf_row ~case:"relay" ~wall:0.01; perf_row ~case:"flood" ~wall:0.02 ]
  in
  let forged =
    write_rows "perf-forged.jsonl"
      [ perf_row ~case:"relay" ~wall:0.005; perf_row ~case:"flood" ~wall:0.02 ]
  in
  let gate args = Printf.sprintf "%s perf gate %s" exe args in
  expect ~what:"perf gate vs identical baseline" 0
    (gate (Printf.sprintf "--baseline %s --current %s" (Filename.quote current)
             (Filename.quote current)));
  expect ~what:"perf gate vs forged faster baseline (regression)" 1
    (gate (Printf.sprintf "--baseline %s --current %s" (Filename.quote forged)
             (Filename.quote current)));
  expect ~what:"perf gate with missing baseline (inconclusive)" 3
    (gate
       (Printf.sprintf "--baseline %s --current %s"
          (Filename.quote (Filename.concat dir "no-baseline.jsonl"))
          (Filename.quote current)));

  (* qcongest top: read-only observation; a missing store is a usage
     error (2), a real store renders and exits clean. *)
  let missing_store = Filename.quote (Filename.concat dir "no-store.jsonl") in
  expect ~what:"top on a missing store" 2 (Printf.sprintf "%s top %s" exe missing_store);
  (* check sweep likewise: a mistyped path is a usage error, not an
     inconclusive audit of nothing (an existing empty store exits 3). *)
  expect ~what:"check sweep on a missing store" 2
    (Printf.sprintf "%s check sweep --store %s" exe missing_store);

  (* A real tiny sweep: two 4–6 node exact-classical jobs, gated by an
     absurd exponent so `run` passes and `gate` fails. *)
  let tiny =
    Harness.Spec.make ~name:"exit-smoke"
      ~algos:[ Harness.Spec.Classical_diameter ]
      ~family:(Harness.Spec.Chain { cliques = 2 })
      ~max_w:4 ~sizes:[ 4; 6 ] ~seeds:[ 7 ]
      ~gates:
        [ { Harness.Spec.series = "classical-diameter"; expected = 99.0; tol = 0.01;
            min_r2 = 0.0 } ]
      ()
  in
  let spec_path = Filename.concat dir "exit-smoke.spec.json" in
  Out_channel.with_open_text spec_path (fun oc ->
      output_string oc (Harness.Spec.to_json tiny));
  let spec = Printf.sprintf "--spec %s" (Filename.quote spec_path) in
  expect ~what:"tiny sweep runs clean" 0 (sweep ("run " ^ spec));
  expect ~what:"absurd gate rejects a clean sweep" 3 (sweep ("gate " ^ spec));
  expect ~what:"report on a finished store" 0 (sweep ("report " ^ spec));

  (* 1: a complete store that checkpointed a failure. Fabricate the
     failed row directly (a genuine round-limit takes the engine's
     full 10^6-round budget to produce). *)
  let failing =
    Harness.Spec.make ~name:"exit-smoke-failed"
      ~algos:[ Harness.Spec.Classical_diameter ]
      ~family:(Harness.Spec.Chain { cliques = 2 })
      ~max_w:4 ~sizes:[ 4 ] ~seeds:[ 7 ] ()
  in
  let spec_path = Filename.concat dir "exit-smoke-failed.spec.json" in
  Out_channel.with_open_text spec_path (fun oc ->
      output_string oc (Harness.Spec.to_json failing));
  let store = Harness.Store.load ~path:(Filename.concat dir "exit-smoke-failed.jsonl") () in
  List.iter
    (fun (j : Harness.Spec.job) ->
      Harness.Store.append store ~id:j.Harness.Spec.id
        (Telemetry.Tjson.obj
           [ ("id", Telemetry.Tjson.str j.Harness.Spec.id);
             ("status", Telemetry.Tjson.str "failed") ]))
    (Harness.Spec.jobs failing);
  (* Release the lock before the CLI subprocess opens the store. *)
  Harness.Store.close store;
  expect ~what:"complete store with failures exits 1" 1
    (sweep (Printf.sprintf "run --spec %s" (Filename.quote spec_path)));
  expect ~what:"top renders a real store" 0
    (Printf.sprintf "%s top --total 1 %s" exe
       (Filename.quote (Filename.concat dir "exit-smoke-failed.jsonl")));

  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  if !failures > 0 then begin
    Printf.printf "%d exit-code regression(s)\n" !failures;
    exit 1
  end;
  print_endline "cli exit codes: all checks passed"
