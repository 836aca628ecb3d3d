(* Supervision overhead: what the robustness layer costs when nothing
   goes wrong, and proof that it still works when something does.

   Three arms:
   - deadline guard: the relay chain with no deadline vs. a generous
     one. States and traces are asserted identical first, so the delta
     is the pure per-round cost of the cooperative clock check.
   - v2 checkpoint frames: Store.append / reload throughput with the
     per-row FNV-1a checksum enabled (every row in this repo pays it).
   - detection path: one poisoned byte mid-file must land the damaged
     row in the *.corrupt.jsonl sibling while every other row survives.

   Results go to BENCH_chaos.json under bench_artifacts/.

   QCONGEST_PERF_SMOKE=1 shrinks the sizes for CI. *)

module J = Telemetry.Json

let smoke () = Sys.getenv_opt "QCONGEST_PERF_SMOKE" <> None
let now () = Telemetry.Clock.now Telemetry.Clock.wall

let best_of reps f =
  let y = ref (f ()) in
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let t0 = now () in
    y := f ();
    let w = now () -. t0 in
    if w < !best then best := w
  done;
  (!y, !best)

(* One active node per round: rounds scale with n while per-round work
   stays tiny, which maximises the relative weight of the deadline
   check (one clock read per scheduled round). *)
let relay_protocol : (int, int) Congest.Engine.protocol =
  {
    name = "chaos-relay";
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

let deadline_arm () =
  Bench_common.subsection "deadline guard on the relay chain";
  let n = if smoke () then 2_000 else 20_000 in
  let rng = Util.Rng.create ~seed:5 in
  let g = Graphlib.Gen.path ~n ~weighting:Graphlib.Gen.Unit ~rng in
  let reps = if smoke () then 3 else 5 in
  let unsupervised () = Congest.Engine.run ~max_rounds:(n + 5) g relay_protocol in
  let supervised () =
    Congest.Engine.run ~deadline:3600.0 ~max_rounds:(n + 5) g relay_protocol
  in
  let (s0, t0), (s1, t1) = (best_of reps unsupervised, best_of reps supervised) in
  if fst s0 <> fst s1 || snd s0 <> snd s1 then
    failwith "deadline guard changed the run's outputs";
  let rounds = (snd s0).Congest.Engine.rounds in
  let per_round = (t1 -. t0) /. float_of_int rounds *. 1e9 in
  Bench_common.note "n = %d, %d rounds: %.3f ms unsupervised, %.3f ms with a 1 h deadline"
    n rounds (t0 *. 1e3) (t1 *. 1e3);
  Bench_common.note "guard overhead: %.1f ns/round (%.1f%%)" per_round
    (if t0 > 0.0 then (t1 -. t0) /. t0 *. 100.0 else 0.0);
  [
    ("relay_n", J.int n);
    ("rounds", J.int rounds);
    ("unsupervised_s", J.float t0);
    ("supervised_s", J.float t1);
    ("guard_ns_per_round", J.float per_round);
  ]

let row ~id =
  J.print
    (J.obj
       [
         ("id", J.str id);
         ("status", J.str "ok");
         ("rounds", J.int 12345);
         ("messages", J.int 678910);
       ])

let store_arm () =
  Bench_common.subsection "v2 checkpoint frames (FNV-1a per row)";
  let rows = if smoke () then 2_000 else 20_000 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qcongest_bench_chaos.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let path = Filename.concat dir "bench.jsonl" in
      let t_append =
        let s = Harness.Store.load ~path () in
        let t0 = now () in
        for i = 0 to rows - 1 do
          let id = Printf.sprintf "job-%06d" i in
          Harness.Store.append s ~id (row ~id)
        done;
        let dt = now () -. t0 in
        Harness.Store.close s;
        dt
      in
      let t_load =
        let t0 = now () in
        let s = Harness.Store.load ~path () in
        let dt = now () -. t0 in
        if Harness.Store.count s <> rows then failwith "reload lost rows";
        Harness.Store.close s;
        dt
      in
      Bench_common.note "%d rows: append %.0f rows/s, checksummed reload %.0f rows/s"
        rows
        (float_of_int rows /. t_append)
        (float_of_int rows /. t_load);
      (* Detection path: poison one byte in the middle of the file. *)
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string bytes in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x20));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let t0 = now () in
      let s = Harness.Store.load ~path () in
      let t_detect = now () -. t0 in
      let survivors = Harness.Store.count s
      and quarantined = Harness.Store.quarantined_lines s in
      Harness.Store.close s;
      if quarantined <> 1 || survivors <> rows - 1 then
        failwith "mid-file corruption was not quarantined";
      Bench_common.note
        "one poisoned byte: %d/%d rows survive, 1 quarantined, reload %.1f ms"
        survivors rows (t_detect *. 1e3);
      [
        ("store_rows", J.int rows);
        ("append_rows_per_s", J.float (float_of_int rows /. t_append));
        ("load_rows_per_s", J.float (float_of_int rows /. t_load));
        ("corrupt_reload_s", J.float t_detect);
        ("corrupt_survivors", J.int survivors);
        ("corrupt_quarantined", J.int quarantined);
      ])

let run () =
  Bench_common.section "SUPERVISION OVERHEAD — deadlines, checksummed checkpoints";
  let deadline_fields = deadline_arm () in
  let store_fields = store_arm () in
  let fields = deadline_fields @ store_fields in
  ignore
    (Bench_common.write_bench_json ~name:"BENCH_chaos.json" (J.obj fields))
