(* Chaos-injection certifier for the supervised execution layer.

   Each certificate stages a real failure against real sweeps in a
   throwaway directory — a run killed mid-batch with its checkpoint
   store corrupted in place, a planted never-terminating job — and
   then certifies the supervision invariants: no row lost, resume
   byte-identical to an uninterrupted run, deadlines firing within
   tolerance, and a timed-out job settling as a row that degrades its
   series instead of wedging the sweep.

   [negative_control] arms one sabotage per certificate (a silently
   deleted row, a supervisor that forgot to arm the deadline), so the
   audit must come back Fail — the proof that it can reject. *)

module J = Telemetry.Json
module Spec = Harness.Spec
module Store = Harness.Store
module Runner = Harness.Runner
module Fit = Harness.Fit

(* ---------------------------- plumbing ----------------------------- *)

let temp_dir =
  let counter = ref 0 in
  let rec fresh () =
    incr counter;
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qcongest_chaos.%d.%d" (Unix.getpid ()) !counter)
    in
    match Unix.mkdir p 0o700 with
    | () -> p
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  fresh

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let file_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

(* A tiny but real sweep: two fast algorithms, two sizes, one seed —
   four jobs, each cheap enough that chaos runs it several times. *)
let tiny_spec ~name ~seed =
  Spec.make ~name
    ~algos:[ Spec.Classical_diameter; Spec.Sssp_two_approx ]
    ~family:(Spec.Chain { cliques = 2 })
    ~max_w:4 ~sizes:[ 6; 9 ] ~seeds:[ seed ] ()

let row_member row name get =
  match J.parse row with
  | Ok v -> Option.bind (J.member name v) get
  | Error _ -> None

let row_status row = row_member row "status" J.to_string_opt

let row_error_kind row =
  match J.parse row with
  | Ok v ->
    Option.bind (J.member "error" v) (fun e ->
        Option.bind (J.member "kind" e) J.to_string_opt)
  | Error _ -> None

(* Per-certificate check/violation accumulator, sweep_audit idiom. *)
type ledger = { mutable checked : int; mutable violations : Report.violation list }

let ledger () = { checked = 0; violations = [] }

let check l cond ~code ~data detail =
  l.checked <- l.checked + 1;
  if not cond then l.violations <- Report.violation ~code ~data detail :: l.violations

let finish l ?notes ~name ~claim () =
  Report.certificate ?notes ~name ~claim ~checked:l.checked (List.rev l.violations)

(* A protocol that never terminates: node 0 starts a token and every
   recipient bounces every copy back, forever. *)
let infinite_protocol : (unit, unit) Congest.Engine.protocol =
  {
    name = "chaos-infinite";
    size_words = (fun () -> 1);
    init =
      (fun view ->
        if view.Congest.Node_view.id = 0 && Array.length view.Congest.Node_view.neighbors > 0
        then ((), Congest.Engine.send [ (fst view.Congest.Node_view.neighbors.(0), ()) ])
        else ((), Congest.Engine.no_action));
    on_round =
      (fun _view ~round:_ () ~inbox ->
        ((), Congest.Engine.send (List.map (fun e -> (e.Congest.Engine.src, ())) inbox)));
  }

(* The round-limit backstop under the planted infinite protocol: if a
   broken deadline never fires, the audit must fail fast (with a
   round-limit row or violation), not hang. *)
let backstop_rounds = 2_000_000

let flip_byte line =
  let i = String.length line / 2 in
  let b = Bytes.of_string line in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* --------------------------- chaos-resume -------------------------- *)

let resume_certificate ~seed ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-resume" ~seed in
  let total = List.length (Spec.jobs spec) in
  let ref_store = Store.load ~path:(Filename.concat dir "reference.jsonl") () in
  let (_ : int * int) = Runner.run ~jobs:1 spec ref_store in
  let ref_report = Runner.report spec ref_store in
  (* Kill a second run mid-batch: three of four jobs checkpointed. *)
  let vpath = Filename.concat dir "victim.jsonl" in
  let victim = Store.load ~path:vpath () in
  let (_ : int * int) = Runner.run ~jobs:1 ~max_jobs:3 spec victim in
  Store.close victim;
  (* Corrupt the checkpoint in place: bit-flip the first row, splice a
     foreign line after the second, truncate the third mid-row. *)
  (match file_lines vpath with
  | [ a; b; c ] ->
    write_file vpath
      (String.concat "\n"
         [
           flip_byte a;
           b;
           "this is not a checkpoint row {\"id\":42";
           String.sub c 0 (String.length c - 7);
         ])
  | lines ->
    check l false ~code:"setup"
      ~data:[ ("lines", J.int (List.length lines)) ]
      "expected exactly 3 checkpointed rows before corruption");
  let reloaded = Store.load ~path:vpath () in
  check l
    (Store.count reloaded = 1)
    ~code:"survivor-lost"
    ~data:[ ("survivors", J.int (Store.count reloaded)) ]
    "mid-file corruption must keep the intact row around it";
  check l
    (Store.quarantined_lines reloaded = 2)
    ~code:"corruption-not-quarantined"
    ~data:[ ("quarantined", J.int (Store.quarantined_lines reloaded)) ]
    "the bit-flipped row and the spliced line must both be quarantined";
  check l
    (Store.dropped_lines reloaded = 1)
    ~code:"tail-not-truncated"
    ~data:[ ("dropped", J.int (Store.dropped_lines reloaded)) ]
    "the truncated trailing row is a partial append and must be dropped";
  check l
    (Sys.file_exists (Store.corrupt_path reloaded)
    && List.length (file_lines (Store.corrupt_path reloaded)) = 2)
    ~code:"corrupt-lines-lost"
    ~data:[ ("path", J.str (Store.corrupt_path reloaded)) ]
    "quarantined lines must be preserved in the corrupt sibling for forensics";
  (* Resume over the repaired store. *)
  let executed, failures = Runner.run ~jobs:1 spec reloaded in
  check l
    (executed = 3 && failures = 0)
    ~code:"resume-miscounted"
    ~data:[ ("executed", J.int executed); ("failed", J.int failures) ]
    "resume must re-execute exactly the quarantined/truncated jobs";
  Store.close reloaded;
  if negative_control then begin
    (* Sabotage: silently delete the last checkpoint row and present
       the store as complete. *)
    match List.rev (file_lines vpath) with
    | _last :: rest -> write_file vpath (String.concat "\n" (List.rev rest) ^ "\n")
    | [] -> ()
  end;
  let final = Store.load ~path:vpath () in
  check l
    (Store.count final = total)
    ~code:"row-lost"
    ~data:[ ("rows", J.int (Store.count final)); ("expected", J.int total) ]
    "no row may be lost across kill, corruption and resume";
  check l
    (J.print (Runner.report spec final) = J.print ref_report)
    ~code:"report-divergence" ~data:[]
    "the resumed report must be byte-identical to the uninterrupted run's";
  Store.close final;
  Store.close ref_store;
  finish l ~name:"chaos-resume"
    ~claim:
      "a sweep killed mid-batch with a mid-file-corrupted store resumes to a \
       byte-identical report, losing no row"
    ~notes:[ ("jobs", J.int total) ]
    ()

(* -------------------------- chaos-deadline ------------------------- *)

let deadline_certificate ~seed ~deadline_s ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-deadline" ~seed in
  let g = Runner.make_graph spec ~n:6 ~seed in
  (* Engine level: the planted infinite protocol must be interrupted
     by the cooperative deadline, not by the round-limit backstop. *)
  let t0 = Unix.gettimeofday () in
  let outcome =
    match Congest.Engine.run ~deadline:deadline_s ~max_rounds:backstop_rounds g infinite_protocol with
    | _ -> `Quiesced
    | exception Congest.Engine.Deadline_exceeded info -> `Deadline info
    | exception Congest.Engine.Round_limit_exceeded _ -> `Round_limit
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | `Deadline info ->
    check l true ~code:"deadline-not-raised" ~data:[] "";
    check l
      (info.Congest.Engine.elapsed_s >= deadline_s)
      ~code:"deadline-fired-early"
      ~data:
        [ ("elapsed_s", J.float info.Congest.Engine.elapsed_s);
          ("budget_s", J.float deadline_s) ]
      "a cooperative deadline can only fire after its budget has elapsed";
    check l
      (elapsed <= deadline_s +. 2.0)
      ~code:"deadline-fired-late"
      ~data:[ ("elapsed_s", J.float elapsed); ("budget_s", J.float deadline_s) ]
      "the deadline must fire within tolerance of its budget, not eventually";
    check l
      (info.Congest.Engine.budget_s = deadline_s)
      ~code:"budget-misreported"
      ~data:[ ("budget_s", J.float info.Congest.Engine.budget_s) ]
      "Deadline_exceeded must carry the budget it enforced"
  | `Quiesced | `Round_limit ->
    check l false ~code:"deadline-not-raised"
      ~data:[ ("elapsed_s", J.float elapsed) ]
      "the planted infinite protocol must be stopped by Deadline_exceeded");
  (* Runner level: the planted job must settle as a timeout row. *)
  let victim = List.hd (Spec.jobs spec) in
  let execute spec (j : Spec.job) ~attempt =
    if j.Spec.id = victim.Spec.id then
      Runner.protect ~attempt j (fun () ->
          (if negative_control then
             (* Sabotage: the supervisor forgot to arm the deadline;
                the job dies on the round limit instead. *)
             ignore (Congest.Engine.run ~max_rounds:100_000 g infinite_protocol)
           else
             ignore
               (Congest.Engine.run ~deadline:deadline_s ~max_rounds:backstop_rounds g
                  infinite_protocol));
          "{}")
    else Runner.run_job ~attempt spec j
  in
  let store = Store.load ~path:(Filename.concat dir "deadline.jsonl") () in
  let (_ : int * int) = Runner.run ~jobs:1 ~execute spec store in
  (match Store.find store victim.Spec.id with
  | Some row ->
    check l
      (row_status row = Some "timeout" && row_error_kind row = Some "deadline")
      ~code:"timeout-row-missing"
      ~data:
        [ ("id", J.str victim.Spec.id);
          ("status", J.str (Option.value ~default:"?" (row_status row))) ]
      "a job stopped by its deadline must checkpoint as a status:\"timeout\" row"
  | None ->
    check l false ~code:"timeout-row-missing"
      ~data:[ ("id", J.str victim.Spec.id) ]
      "the planted job settled no row at all");
  check l
    (Store.count store = List.length (Spec.jobs spec))
    ~code:"sweep-wedged"
    ~data:[ ("rows", J.int (Store.count store)) ]
    "the sweep must complete around the timed-out job";
  let report = Runner.report spec store in
  let report_int name =
    Option.value ~default:(-1) (Option.bind (J.member name report) J.to_int_opt)
  in
  check l
    (report_int "timeout" = 1 && report_int "missing" = 0)
    ~code:"report-miscounts"
    ~data:
      [ ("timeout", J.int (report_int "timeout"));
        ("missing", J.int (report_int "missing")) ]
    "the report must count the timed-out job as a timeout, not missing";
  (* Degradation: the victim was its series' only job at n = 6, so
     the series has one size left — no slope to fit — and a gate on
     it must come back Inconclusive, never a verdict. *)
  let degraded = Runner.degraded_series spec store in
  let victim_series = Spec.algo_name victim.Spec.algo in
  check l
    (List.mem victim_series degraded)
    ~code:"degradation-unmarked"
    ~data:[ ("degraded", J.arr (List.map J.str degraded)) ]
    "a series with too few ok rows must be marked degraded";
  let verdict =
    Fit.evaluate ~degraded
      [ { Spec.series = victim_series; expected = 1.0; tol = 100.0; min_r2 = 0.0 } ]
      ~series:(Runner.series_points spec store)
  in
  check l
    (verdict.Fit.status = Fit.Inconclusive && Fit.exit_code verdict = 3)
    ~code:"spurious-verdict"
    ~data:[ ("status", J.str (Fit.status_name verdict.Fit.status)) ]
    "gates over a degraded series must be Inconclusive (exit 3), not a verdict";
  Store.close store;
  finish l ~name:"chaos-deadline"
    ~claim:
      "a planted never-terminating job is stopped by the cooperative wall-clock \
       deadline within tolerance and surfaces as a timeout row, with the sweep \
       completing, the report counting it and gates over its degraded series \
       Inconclusive"
    ~notes:[ ("budget_s", J.float deadline_s) ]
    ()

(* ------------------------------ entry ------------------------------ *)

let certify ?(seed = 11) ?(deadline_s = 0.05) ?(negative_control = false) () =
  [
    resume_certificate ~seed ~negative_control;
    deadline_certificate ~seed ~deadline_s ~negative_control;
  ]
