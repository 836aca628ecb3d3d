(* Exit-code regression for the qcongest CLI, mostly the sweep
   subcommand's contract:

     0  clean run (including "jobs still pending")
     1  the sweep completed but checkpointed failures
     2  usage errors, each one `qcongest...:` line on stderr: unknown
        spec, bad file, a spec name that is not a file name, bad
        --deadline, a malformed QCONGEST_JOBS, a
        negative --max-jobs, a missing or locked store; on the graph
        subcommands an unknown family, an --n below 1 (check run's -n
        too) or a size below the family's floor, an --input file that
        does not load or is not one connected graph, fewer than 2
        nodes for diameter, radius or unweighted, and params --n/--d
        below 1; adversary flags outside their range (--drop/--dup
        outside [0,1], a negative --delay); gadget --height that is
        odd or below 2, and --density outside [0,1]
     3  a scaling gate rejected the measured exponents
     124  cmdliner CLI parse errors (an unknown command or option,
          --jobs included: QCONGEST_JOBS is the one worker count)

   It also renders every command's --help=plain page and fails if one
   writes to stderr, and runs `check sweep`'s negative control: a row
   that keeps `within: true` over a forged estimate must exit 1.

   Run via `dune build @cli-exit-codes` (also under `dune runtest`);
   argv.(1) is the CLI executable and argv.(2) the pinned ci-smoke
   store, from which it builds two stores with one broken row each
   that every store reader must count alike. The driver links the
   harness library so it can fabricate specs and checkpoint rows
   directly. *)

let failures = ref 0

(* [row] with the number stored under [key] replaced by [by]. *)
let set_number key by row =
  let key = Printf.sprintf "\"%s\":" key in
  let klen = String.length key and len = String.length row in
  let rec find i =
    if i + klen > len then None else if String.sub row i klen = key then Some i else find (i + 1)
  in
  match find 0 with
  | None -> row
  | Some i ->
    let j = ref (i + klen) in
    while
      !j < len && match row.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr j
    done;
    String.sub row 0 i ^ key ^ by ^ String.sub row !j (len - !j)

let expect ~what code cmd =
  let rc = Sys.command (cmd ^ " > /dev/null") in
  if rc = code then Printf.printf "ok   exit %-3d %s\n%!" code what
  else begin
    Printf.printf "FAIL exit %d (wanted %d): %s\n   %s\n%!" rc code what cmd;
    incr failures
  end

(* A usage error: exit 2 and exactly one line on stderr, starting with
   [prefix] (no backtrace, no uncaught-exception report). *)
let expect_usage ?(prefix = "qcongest: ") ~what ~dir cmd =
  let err = Filename.concat dir "usage.err" in
  let rc = Sys.command (Printf.sprintf "%s > /dev/null 2> %s" cmd (Filename.quote err)) in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin err In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  match lines with
  | [ line ] when rc = 2 && String.starts_with ~prefix line ->
    Printf.printf "ok   exit 2   %s\n%!" what
  | _ ->
    Printf.printf "FAIL exit %d (wanted 2 and one %S line): %s\n   %s\n   stderr: %s\n%!" rc
      prefix what cmd (String.concat " | " lines);
    incr failures

(* The subcommand names listed in a help page's COMMANDS section. *)
let subcommands page =
  let rec skip = function
    | [] -> []
    | "COMMANDS" :: rest -> collect rest
    | _ :: rest -> skip rest
  and collect = function
    | line :: rest when line = "" || line.[0] = ' ' ->
      let names =
        if String.length line > 7 && String.sub line 0 7 = "       " && line.[7] <> ' ' then
          [ List.hd (String.split_on_char ' ' (String.sub line 7 (String.length line - 7))) ]
        else []
      in
      names @ collect rest
    | _ -> []
  in
  skip (String.split_on_char '\n' page)

(* Every command's --help=plain must exit 0 and write nothing to
   stderr: cmdliner reports a malformed doc string there and still
   renders the page. The command tree is read from the help pages, so
   a new subcommand is covered without a list to maintain. *)
let check_help_pages exe dir =
  let out = Filename.concat dir "help.out" and err = Filename.concat dir "help.err" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let rec visit path =
    let what = String.concat " " ("qcongest" :: path) in
    let cmd = String.concat " " ((exe :: path) @ [ "--help=plain" ]) in
    let rc =
      Sys.command (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out) (Filename.quote err))
    in
    let page = read out and stderr = read err in
    if rc = 0 && stderr = "" then Printf.printf "ok   help     %s\n%!" what
    else begin
      Printf.printf "FAIL help (exit %d): %s\n   stderr: %s\n%!" rc what (String.trim stderr);
      incr failures
    end;
    List.iter (fun sub -> visit (path @ [ sub ])) (subcommands page)
  in
  visit []

(* `qcongest trace` keeps one account of its run, and its artifacts
   must agree with it: the rounds on the printed TOTAL line equal
   trace.metrics.json's congest.rounds and trace.phases.json's
   total.rounds, whose phases are the scenario's three in run order.
   The stream files hold what the replay check counted: one
   trace.events.jsonl line per event, and a Chrome trace with one
   balanced span per phase. *)
let check_trace exe dir =
  let module H = Telemetry.Json in
  let tdir = Filename.concat dir "trace" and out = Filename.concat dir "trace.out" in
  let rc =
    Sys.command
      (Printf.sprintf "%s trace --family gnp --n 24 --artifacts %s > %s" exe
         (Filename.quote tdir) (Filename.quote out))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let artifact name = read (Filename.concat tdir name) in
  let at keys v = List.fold_left (fun v k -> Option.bind v (H.member k)) (Some v) keys in
  let int_at name keys = Option.bind (at keys (H.parse_exn (artifact name))) H.to_int_opt in
  let verdicts () =
    let lines = String.split_on_char '\n' (read out) in
    let scan fmt = List.find_map (fun l -> try Some (Scanf.sscanf l fmt Fun.id) with _ -> None) lines in
    let total = scan "TOTAL rounds=%d" and events = scan "replay check: %d events" in
    let phases =
      Option.bind (at [ "phases" ] (H.parse_exn (artifact "trace.phases.json"))) H.to_list_opt
      |> Option.map (List.filter_map (fun p -> Option.bind (H.member "name" p) H.to_string_opt))
    in
    let chrome_ph ph =
      Option.bind (at [ "traceEvents" ] (H.parse_exn (artifact "trace.chrome.json"))) H.to_list_opt
      |> Option.map (List.filter (fun e -> H.member "ph" e = Some (H.Str ph)))
      |> Option.map List.length
    in
    let jsonl_lines =
      List.length (List.filter (( <> ) "") (String.split_on_char '\n' (artifact "trace.events.jsonl")))
    in
    [
      ("TOTAL line printed", total <> None);
      ("metrics congest.rounds = TOTAL rounds",
       int_at "trace.metrics.json" [ "congest.rounds"; "value" ] = total);
      ("phases total.rounds = TOTAL rounds", int_at "trace.phases.json" [ "total"; "rounds" ] = total);
      ("phases in run order",
       phases = Some [ "bfs-tree"; "degree-convergecast"; "token-broadcast" ]);
      ("one events.jsonl line per replayed event", events = Some jsonl_lines);
      ("one balanced chrome span per phase", chrome_ph "B" = Some 3 && chrome_ph "E" = Some 3);
    ]
  in
  match if rc = 0 then verdicts () else [ ("trace exits 0", false) ] with
  | exception (Sys_error msg | Invalid_argument msg) ->
    Printf.printf "FAIL trace    artifacts unreadable: %s\n%!" msg;
    incr failures
  | verdicts ->
    List.iter
      (fun (what, ok) ->
        if ok then Printf.printf "ok   trace    %s\n%!" what
        else begin
          Printf.printf "FAIL trace    %s\n%!" what;
          incr failures
        end)
      verdicts

(* Two ci-smoke stores that each hold one row that is not a whole
   row: the first n = 32 thm11-diameter row loses its status in one
   and carries rounds "lots" in the other. Every reader must count it
   as a failed job: `sweep report` (ok 35, failed 1, missing 0), `top`
   (ok 35 fail 1 timeout 0), `sweep run` (exit 1, nothing executed)
   and `check sweep` (exit 1, a corrupt-row naming the field). The
   stores are built with Store.append, which checks only the id. *)
let check_bad_stores exe dir golden =
  let module H = Telemetry.Json in
  let spec = Harness.Spec.ci_smoke in
  let victim =
    List.find
      (fun (j : Harness.Spec.job) ->
        j.Harness.Spec.algo = Harness.Spec.Thm11_diameter && j.Harness.Spec.n = 32)
      (Harness.Spec.jobs spec)
  in
  let rows = Harness.Store.rows (Harness.Store.load ~lock:false ~path:golden ()) in
  let capture cmd =
    let out = Filename.concat dir "bad-store.out" in
    let rc = Sys.command (Printf.sprintf "%s > %s 2> /dev/null" cmd (Filename.quote out)) in
    (rc, In_channel.with_open_bin out In_channel.input_all)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (field, edit) ->
      let path = Filename.concat dir (Printf.sprintf "bad-%s.jsonl" field) in
      let store = Harness.Store.load ~path () in
      List.iter
        (fun (id, raw) ->
          let raw =
            if id <> victim.Harness.Spec.id then raw
            else
              match H.parse_exn raw with
              | H.Obj fields -> H.print (H.Obj (edit fields))
              | _ -> raw
          in
          Harness.Store.append store ~id raw)
        rows;
      Harness.Store.close store;
      let store = Filename.quote path in
      let on = Printf.sprintf "--builtin ci-smoke --store %s" store in
      let report_rc, report = capture (Printf.sprintf "%s sweep report %s" exe on) in
      let count name =
        Option.bind (H.member name (H.parse_exn report)) H.to_int_opt
      in
      let _, top = capture (Printf.sprintf "%s top %s --total 36" exe store) in
      let run_rc, run = capture (Printf.sprintf "%s sweep run %s" exe on) in
      let check_rc, _ = capture (Printf.sprintf "%s check sweep %s" exe on) in
      let corrupt =
        let cert =
          H.parse_exn
            (In_channel.with_open_bin (Filename.concat dir "ci-smoke.check.json")
               In_channel.input_all)
        in
        let list name v = Option.value ~default:[] (Option.bind (H.member name v) H.to_list_opt) in
        let violations = List.concat_map (list "violations") (list "certificates" cert) in
        List.exists
          (fun v ->
            H.member "code" v = Some (H.Str "corrupt-row")
            && Option.fold ~none:false ~some:(fun d -> contains d field)
                 (Option.bind (H.member "detail" v) H.to_string_opt))
          violations
      in
      List.iter
        (fun (what, ok) ->
          if ok then Printf.printf "ok   bad %-7s %s\n%!" field what
          else begin
            Printf.printf "FAIL bad %-7s %s\n%!" field what;
            incr failures
          end)
        [
          ("sweep report: ok 35, failed 1, missing 0",
           report_rc = 0 && count "ok" = Some 35 && count "failed" = Some 1
           && count "missing" = Some 0);
          ("top: ok 35 fail 1 timeout 0", contains top "ok 35 fail 1 timeout 0");
          ("sweep run: exit 1, nothing executed", run_rc = 1 && contains run "executed 0 job(s)");
          ("check sweep: exit 1, corrupt-row names " ^ field, check_rc = 1 && corrupt);
        ])
    [
      ("status", List.filter (fun (k, _) -> k <> "status"));
      ("rounds",
       List.map (fun (k, v) -> if k = "rounds" then (k, Telemetry.Json.str "lots") else (k, v)));
    ]

let () =
  if Array.length Sys.argv < 3 then begin
    prerr_endline "usage: cli_exit_smoke <qcongest-cli-exe> <ci-smoke-store>";
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

  check_help_pages exe dir;

  (* 0: nothing executed yet, jobs pending — still a clean exit. *)
  expect ~what:"sweep run with --max-jobs 0 (jobs pending)" 0
    (sweep "run --builtin ci-smoke --max-jobs 0");

  (* 2: usage errors the sweep layer detects itself. *)
  expect ~what:"unknown built-in spec" 2 (sweep "run --builtin no-such-spec");
  expect ~what:"unreadable spec file" 2 (sweep "run --spec /nonexistent/spec.json");
  (* Each job runs once: --retries is not an option (cmdliner's 124). *)
  expect ~what:"--retries is not an option" 124
    (sweep "run --builtin ci-smoke --retries 2 --max-jobs 0");
  (* QCONGEST_JOBS is the one worker-count setting: --jobs is not an
     option either (cmdliner's 124). *)
  expect ~what:"diameter --jobs is not an option" 124
    (Printf.sprintf "%s diameter --jobs 2 --n 8" exe);
  expect ~what:"sweep run --jobs is not an option" 124
    (sweep "run --builtin ci-smoke --jobs 2 --max-jobs 0");
  (* A budget that is negative, NaN or infinite is a usage error, before
     any job runs: a negative one would checkpoint every job as a
     settled timeout row, and a NaN one would never fire. *)
  expect ~what:"negative --deadline" 2
    (sweep "run --builtin ci-smoke --max-jobs 3 --deadline=-1");
  expect ~what:"NaN --deadline (resume)" 2
    (sweep "resume --builtin ci-smoke --max-jobs 3 --deadline=nan");
  expect ~what:"negative check chaos --deadline" 2
    (Printf.sprintf "%s check chaos --deadline=-1" exe);
  (* A negative --max-jobs would run nothing and exit 0; 0 stays valid
     (the first case above). *)
  expect_usage ~prefix:"qcongest sweep: " ~what:"negative --max-jobs" ~dir
    (sweep "run --builtin ci-smoke --max-jobs=-1");
  expect_usage ~prefix:"qcongest sweep: " ~what:"negative --max-jobs (resume)" ~dir
    (sweep "resume --builtin ci-smoke --max-jobs=-1");
  (* A spec name is the stem of the files a sweep writes in the
     artifacts directory, so one that is not a file name is a usage
     error, and nothing lands outside that directory. *)
  List.iter
    (fun (what, name) ->
      let path = Filename.concat dir "bad-name.spec.json" in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            Telemetry.Json.(
              print
                (obj
                   [ ("name", str name); ("algos", arr [ str "classical-diameter" ]);
                     ("family", str "chain:2"); ("max_w", int 4); ("sizes", arr [ int 4 ]);
                     ("seeds", arr [ int 7 ]) ])));
      expect_usage ~prefix:(Printf.sprintf "qcongest sweep: %s: Spec: " path) ~what ~dir
        (sweep (Printf.sprintf "run --spec %s" (Filename.quote path))))
    [ ("spec name with a NUL byte", "x\000y"); ("spec name ../escaped", "../escaped") ];
  List.iter
    (fun file ->
      if Sys.file_exists (Filename.concat (Filename.dirname dir) file) then begin
        Printf.printf "FAIL a spec named ../escaped wrote %s outside the artifacts dir\n%!" file;
        incr failures
      end)
    [ "escaped.jsonl"; "escaped.jsonl.lock"; "escaped.sweep.json" ];

  (* 2: graph subcommands. Every instance is built by Spec.build_graph,
     so a family it cannot build is one usage line, not an uncaught
     exception (exit 125). *)
  let graph args = Printf.sprintf "%s %s" exe args in
  List.iter
    (fun (what, args) -> expect_usage ~what ~dir (graph args))
    [
      ("unknown --family", "classical --family nosuch");
      ("ring of 2 cliques", "classical --family ring --cliques 2");
      ("chain of 0 cliques", "classical --family chain --cliques 0 --n 8");
      ("--max-weight 0", "classical --max-weight 0");
      ("hard family below 4 nodes", "classical --family hard --n 3");
      ("diameter on 1 node", "diameter --family gnp --n 1");
      ("radius on 1 node", "radius --family gnp --n 1");
      ("unweighted on 1 node", "unweighted --family gnp --n 1");
      ("params --n 0", "params --n 0");
      ("params --d 0", "params --d 0");
    ];
  (* An --n below 1 names the floor on every family, ring and chain
     included (they round a small --n up to one node per clique). *)
  List.iter
    (fun (what, args) ->
      expect_usage ~prefix:"qcongest: Spec: target size needs n >= 1" ~what ~dir (graph args))
    [
      ("empty grid", "classical --family grid --n 0");
      ("empty ring", "classical --family ring --n 0");
      ("empty chain", "classical --family chain --n 0");
      ("empty gnp", "classical --family gnp --n 0");
      ("empty tree", "classical --family tree --n 0");
      ("negative --n", "diameter --family ring --n=-5");
    ];
  List.iter
    (fun flag ->
      expect_usage ~prefix:"qcongest check: Spec: target size needs n >= 1"
        ~what:("check run " ^ flag ^ " 0") ~dir
        (Printf.sprintf "%s check run %s 0 --only congest" exe flag))
    [ "-n"; "--nodes" ];
  (* Adversary and gadget flags outside their range, before any work. *)
  List.iter
    (fun (what, args) -> expect_usage ~what ~dir (graph args))
    [
      ("faults --drop 2", "faults --family ring --n 12 --drop 2");
      ("trace --drop 2", "trace --family ring --n 12 --drop 2");
      ("trace --dup 1.5", "trace --family ring --n 12 --dup 1.5");
      ("trace --delay=-1", "trace --family ring --n 12 --delay=-1");
      ("gadget --height 3", "gadget --height 3");
      ("gadget --height 0", "gadget --height 0");
      ("gadget --density 2", "gadget --density 2");
      ("gadget --density=-0.5", "gadget --density=-0.5");
    ];
  expect ~what:"trace with every adversary flag at 0" 0
    (graph "trace --family ring --n 12 --drop 0 --dup 0 --delay 0");
  check_trace exe dir;
  check_bad_stores exe dir Sys.argv.(2);
  (* The algorithms that run on one node keep running. *)
  expect ~what:"classical on 1 node" 0 (graph "classical --family gnp --n 1");
  expect ~what:"faults on 1 node" 0 (graph "faults --family gnp --n 1");
  expect ~what:"params --n 1 --d 1" 0 (graph "params --n 1 --d 1");
  (* --input files that do not load, or load as no connected graph. *)
  let graph_file name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Filename.quote path
  in
  let missing = Filename.quote (Filename.concat dir "no-such-graph.txt") in
  let malformed = graph_file "malformed.txt" "n 3\n0 1 1\nbogus\n" in
  let out_of_range = graph_file "out-of-range.txt" "n 3\n0 1 1\n1 7 1\n" in
  let disconnected = graph_file "disconnected.txt" "n 4\n0 1 1\n2 3 1\n" in
  List.iter
    (fun cmd ->
      List.iter
        (fun (what, file) ->
          expect_usage ~what:(Printf.sprintf "%s --input %s" cmd what) ~dir
            (graph (Printf.sprintf "%s --input %s" cmd file)))
        [
          ("missing file", missing);
          ("malformed file", malformed);
          ("endpoint out of range", out_of_range);
          ("disconnected graph", disconnected);
        ])
    [ "diameter"; "radius"; "classical"; "faults"; "trace" ];

  (* 2: a malformed QCONGEST_JOBS is rejected at startup, before any
     command dispatch, with a clear message. *)
  expect ~what:"invalid QCONGEST_JOBS fails fast" 2
    (Printf.sprintf "QCONGEST_JOBS=banana %s sweep run --builtin ci-smoke --max-jobs 0" exe);

  (* The engine has one round loop and no shard setting: QCONGEST_SHARDS
     is ignored, and --shards is an unknown option (cmdliner's 124). *)
  expect ~what:"QCONGEST_SHARDS is ignored" 0
    (Printf.sprintf "QCONGEST_SHARDS=banana %s sweep run --builtin ci-smoke --max-jobs 0" exe);
  expect ~what:"--shards is not an option" 124
    (Printf.sprintf "%s diameter --shards 2 --family ring --n 8" exe);

  (* 2: a checkpoint store held by another live process is refused.
     The store file exists, so this is the lock's refusal and not the
     missing-store check below. *)
  let locked_path = Filename.concat dir "locked.jsonl" in
  Out_channel.with_open_text locked_path ignore;
  Out_channel.with_open_text (locked_path ^ ".lock") (fun oc ->
      output_string oc (string_of_int (Unix.getpid ()) ^ "\n"));
  expect ~what:"store locked by a live process" 2
    (sweep
       (Printf.sprintf "report --builtin ci-smoke --store %s" (Filename.quote locked_path)));
  (* The lock is reported by the subcommand that met it. *)
  expect_usage ~prefix:"qcongest check: store is locked" ~what:"check sweep on a locked store"
    ~dir
    (Printf.sprintf "%s check sweep --store %s" exe (Filename.quote locked_path));

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
  (* A wall time that overflows float64 is not a number the parser
     accepts, so a file holding only that row has nothing to compare
     (3), against itself too. *)
  let overflow =
    Filename.quote (write_rows "perf-overflow.jsonl" [ {|{"case":"x","n":5,"wall_s":1e400}|} ])
  in
  expect ~what:"perf gate on a row that overflows float64 (inconclusive)" 3
    (gate (Printf.sprintf "--baseline %s --current %s" overflow overflow));

  (* qcongest top: read-only observation; a missing store is a usage
     error (2), a real store renders and exits clean. *)
  let missing_store = Filename.quote (Filename.concat dir "no-store.jsonl") in
  expect ~what:"top on a missing store" 2 (Printf.sprintf "%s top %s" exe missing_store);
  (* check sweep likewise: a mistyped path is a usage error, not an
     inconclusive audit of nothing (an existing empty store exits 3). *)
  expect ~what:"check sweep on a missing store" 2
    (Printf.sprintf "%s check sweep --store %s" exe missing_store);
  (* sweep report and gate only read a store: a missing one is a usage
     error, and neither creates the file or its directory. *)
  let nodir = Filename.concat dir "nodir" in
  let nodir_store = Filename.quote (Filename.concat nodir "x.jsonl") in
  expect ~what:"sweep report on a missing store" 2
    (sweep (Printf.sprintf "report --builtin ci-smoke --store %s" nodir_store));
  expect ~what:"sweep gate on a missing store" 2
    (sweep (Printf.sprintf "gate --builtin ci-smoke --store %s" nodir_store));
  if Sys.file_exists nodir then begin
    Printf.printf "FAIL report/gate on a missing store created %s\n%!" nodir;
    incr failures
  end;

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
        Telemetry.Json.(print (obj [ ("id", str j.Harness.Spec.id); ("status", str "failed") ])))
    (Harness.Spec.jobs failing);
  (* Release the lock before the CLI subprocess opens the store. *)
  Harness.Store.close store;
  expect ~what:"complete store with failures exits 1" 1
    (sweep (Printf.sprintf "run --spec %s" (Filename.quote spec_path)));
  let failed_store = Filename.quote (Filename.concat dir "exit-smoke-failed.jsonl") in
  expect ~what:"top renders a real store" 0
    (Printf.sprintf "%s top --total 1 %s" exe failed_store);
  (* A --watch the sleep cannot take is a usage error before the first
     line; 0 and negative values print once. *)
  expect ~what:"top --watch nan" 2 (Printf.sprintf "%s top %s --watch nan" exe failed_store);
  expect ~what:"top --watch inf" 2 (Printf.sprintf "%s top %s --watch inf" exe failed_store);
  expect ~what:"top --watch -1 prints once" 0
    (Printf.sprintf "%s top %s --watch=-1" exe failed_store);

  (* check sweep's negative control. The ci-smoke instance n = 32,
     seed 1, run by Theorem 1.1 (exact diameter 75), then its row
     forged to an estimate ten times the exact value, with a consistent
     ratio of 10, `within: true` as stored and a valid crc: the honest
     store certifies (0) and the forged one is a violation (1). *)
  let thm11 =
    Harness.Spec.make ~name:"exit-smoke-thm11"
      ~algos:[ Harness.Spec.Thm11_diameter ]
      ~family:(Harness.Spec.Ring { cliques = 8 })
      ~max_w:16 ~sizes:[ 32 ] ~seeds:[ 1 ] ()
  in
  let spec_path = Filename.concat dir "exit-smoke-thm11.spec.json" in
  Out_channel.with_open_text spec_path (fun oc ->
      output_string oc (Harness.Spec.to_json thm11));
  let spec = Printf.sprintf "--spec %s" (Filename.quote spec_path) in
  let check_sweep args = Printf.sprintf "%s check sweep %s %s" exe spec args in
  expect ~what:"thm11 sweep runs clean" 0 (sweep ("run " ^ spec));
  expect ~what:"check sweep certifies the honest store" 0 (check_sweep "");
  let honest = Harness.Store.load ~path:(Filename.concat dir "exit-smoke-thm11.jsonl") () in
  let forged_path = Filename.concat dir "exit-smoke-thm11.forged.jsonl" in
  let forged = Harness.Store.load ~path:forged_path () in
  List.iter
    (fun (j : Harness.Spec.job) ->
      let id = j.Harness.Spec.id in
      let row = Option.get (Harness.Store.find honest id) in
      let exact =
        Option.get
          (Option.bind (Telemetry.Json.member "exact" (Telemetry.Json.parse_exn row))
             Telemetry.Json.to_int_opt)
      in
      Harness.Store.append forged ~id
        (row |> set_number "estimate" (string_of_int (10 * exact)) |> set_number "ratio" "10"))
    (Harness.Spec.jobs thm11);
  Harness.Store.close honest;
  Harness.Store.close forged;
  expect ~what:"check sweep rejects a forged within flag" 1
    (check_sweep (Printf.sprintf "--store %s" (Filename.quote forged_path)));

  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  if !failures > 0 then begin
    Printf.printf "%d exit-code regression(s)\n" !failures;
    exit 1
  end;
  print_endline "cli exit codes: all checks passed"
