(* Negative controls: every tampered input must come back as a failed
   op or a refused row, never as a certified result. Run by
   `dune runtest perfbench` with the qcongest executable as argument. *)

module W = Perfbench.Workload
module Spec = Harness.Spec

let cli = Sys.argv.(1)

let fresh name =
  let dir = Filename.concat (Sys.getcwd ()) name in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "artifacts") 0o755;
  dir

let goldens = W.load_goldens "goldens.json"

(* The recertify set-up of the pinned seed: its store rows certify
   against the oracle and the golden rows. *)
let setup =
  lazy
    (W.prepare W.Recertify ~seed:W.default_seed ~cli ~work:(fresh "work-recertify") ~domains:1
       ~goldens:(Some goldens) ~seen:(Hashtbl.create 64))

let is_error = function Ok _ -> false | Error _ -> true
let is_wrong = function Error (W.Wrong _) -> true | Ok () | Error (W.Missed _) -> false
let rows ctx = Result.get_ok (W.store_rows ctx.W.store)

let test_honest () =
  let ctx = Lazy.force setup in
  let o = W.run_op ctx 0 in
  Alcotest.(check int) "check sweep exits 0" 0 o.W.op.Perfbench.Op.exit_code;
  Alcotest.(check bool) "honest op certifies" true (Result.is_ok o.W.verdict)

let test_golden_rounds () =
  let ctx = Lazy.force setup in
  let tampered =
    { ctx with W.goldens = Some (W.with_rounds goldens succ); seen = Hashtbl.create 64 }
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "rounds + 1 is wrong" true (is_wrong (W.check_row tampered r)))
    (rows ctx)

(* Rewrite the audited store with one row's exact answer off by one
   (through Store.append, so the row's checksum is valid). *)
let test_store_exact () =
  let ctx = Lazy.force setup in
  let path = Filename.concat ctx.W.work "tampered.jsonl" in
  let src = Harness.Store.load ~lock:false ~path:ctx.W.store () in
  let dst = Harness.Store.load ~path () in
  List.iteri
    (fun i (id, raw) ->
      let raw =
        if i > 0 then raw
        else
          let r = Result.get_ok (W.parse_row raw) in
          let field = Printf.sprintf "\"exact\":%d," in
          Str.global_replace (Str.regexp_string (field r.W.exact)) (field (r.W.exact + 1)) raw
      in
      Harness.Store.append dst ~id raw)
    (Harness.Store.rows src);
  Harness.Store.close dst;
  let o = W.run_op { ctx with W.store = path } 0 in
  Alcotest.(check int) "check sweep exits 1" 1 o.W.op.Perfbench.Op.exit_code;
  Alcotest.(check bool) "op is wrong" true (is_wrong o.W.verdict)

let test_empty_store () =
  let ctx = Lazy.force setup in
  let path = Filename.concat ctx.W.work "empty.jsonl" in
  Out_channel.with_open_bin path ignore;
  let o = W.run_op { ctx with W.store = path } 0 in
  Alcotest.(check int) "check sweep exits 3" 3 o.W.op.Perfbench.Op.exit_code;
  Alcotest.(check bool) "op is wrong" true (is_wrong o.W.verdict)

(* Spec seed 321 at n = 64 is an instance where Theorem 1.1's diameter
   search misses its guarantee (estimate 55 < exact 56): a truthful row
   fails its op without being wrong; the same row claiming success is
   wrong. *)
let test_missed_guarantee () =
  let ctx = Lazy.force setup in
  let spec =
    Spec.make ~name:"missed" ~algos:[ Spec.Thm11_diameter ] ~family:(Spec.Ring { cliques = 8 })
      ~sizes:[ 64 ] ~seeds:[ 321 ] ()
  in
  let refs = Hashtbl.create 1 in
  Hashtbl.add refs (64, 321) (W.reference spec ~n:64 ~seed:321);
  let ctx = { ctx with W.refs; goldens = None; seen = Hashtbl.create 4 } in
  let row within =
    { W.algo = Spec.Thm11_diameter; n = 64; seed = 321; n_actual = 64; rounds = 25664131;
      estimate = 55.0; exact = 56; ratio = 55.0 /. 56.0; within; note = "" }
  in
  (match W.check_row ctx (row false) with
  | Error (W.Missed _) -> ()
  | _ -> Alcotest.fail "a truthful missed guarantee must fail as Missed");
  Alcotest.(check bool) "a false within=true is wrong" true (is_wrong (W.check_row ctx (row true)))

(* A small Theorem 1.1 cell: the op's row, its layer replay, and the
   replay of a different seed. *)
let test_replay_seed () =
  let work = fresh "work-replay" in
  let spec seed =
    Spec.make ~name:"replay" ~algos:[ Spec.Thm11_diameter ] ~family:(Spec.Ring { cliques = 8 })
      ~sizes:[ 32 ] ~seeds:[ seed ] ()
  in
  let spec_file = Filename.concat work "spec.json" in
  Out_channel.with_open_bin spec_file (fun oc -> output_string oc (Spec.to_json (spec 5)));
  let store = Filename.concat work "op.jsonl" in
  let op =
    Perfbench.Op.run
      ~env:(Perfbench.Op.env ~domains:1 ~artifacts:(Filename.concat work "artifacts"))
      ~dir:work cli
      [ "sweep"; "run"; "--spec"; spec_file; "--store"; store ]
  in
  Alcotest.(check int) "sweep run exits 0" 0 op.Perfbench.Op.exit_code;
  let op_rows = Result.get_ok (W.store_rows store) in
  let replay seed =
    let path = Filename.concat work (Printf.sprintf "replay-%d.jsonl" seed) in
    Perfbench.Layers.sweep (Perfbench.Layers.create ()) ~replay:true (spec seed) ~store:path;
    Result.get_ok (W.store_rows path)
  in
  Alcotest.(check bool) "same seed replays the row" true
    (Result.is_ok (W.same_rows (replay 5) op_rows));
  Alcotest.(check bool) "another seed is a mismatch" true
    (is_error (W.same_rows (replay 6) op_rows))

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "negative controls",
        [
          Alcotest.test_case "honest recertify op" `Quick test_honest;
          Alcotest.test_case "golden rounds + 1" `Quick test_golden_rounds;
          Alcotest.test_case "store exact + 1" `Quick test_store_exact;
          Alcotest.test_case "store with no auditable rows" `Quick test_empty_store;
          Alcotest.test_case "missed guarantee is not wrong" `Quick test_missed_guarantee;
          Alcotest.test_case "thm11 replay under another seed" `Quick test_replay_seed;
        ] );
    ]
