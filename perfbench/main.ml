(* The benchmark executable. [perfbench/run.py] builds the tree, pins this
   process to one CPU and runs

     main.exe --workload W --seed N --seconds S --trace 0|1

   from the checkout root. A metric run (--trace 0) runs closed-loop
   ops, one [qcongest] process at a time, and prints every end-to-end
   metric; a traced run (--trace 1) pairs each op with an in-process,
   span-traced replay and prints every per-layer metric. The last
   stdout line is the result JSON.

   [main.exe goldens --out FILE] re-pins the golden rows of the default
   seed. *)

module W = Perfbench.Workload
module L = Perfbench.Layers
module Kernel = Perfbench_kernel.Kernel

let now = Unix.gettimeofday

type config = {
  kind : W.kind;
  seed : int;
  seconds : float;
  cli : string;
  work : string;
  domains : int;
  goldens : W.goldens;
}

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "perfbench: %s\n" m;
      exit 2)
    fmt

(* ------------------------------ statistics ---------------------------- *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank. *)
let percentile p xs =
  let a = sorted xs in
  a.(max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1))

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* ------------------------------ host speed ---------------------------- *)

(* Each op is bracketed by kernel samples and its wall time scaled by
   nominal / measured kernel time, so a slow spell of the host shows in
   the kernel rather than in the op. A sample is the median of [units]
   kernel units: about 80 ms beside the one-second sweeps, 25 ms
   beside the ~45 ms re-certify. The median keeps a hiccup of a few
   milliseconds, which a long op absorbs, from rescaling the op. *)
type host = { units : int; mutable series : float list  (** Per-unit seconds, newest first. *) }

let host kind = { units = (match kind with W.Recertify -> 2 | W.Thm11 | W.Wwy -> 6); series = [] }

let sample h =
  let k = median (List.init h.units (fun _ -> Kernel.run ())) in
  h.series <- k :: h.series;
  k

let factor before after = Kernel.nominal_unit_s /. ((before +. after) /. 2.0)

(* ------------------------------- output ------------------------------- *)

(* Every digit, and a finite stand-in for "no certified result". *)
let num f = Printf.sprintf "%.17g" (if Float.is_finite f then f else Float.max_float)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, value) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num value) unit
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat "," (List.map metric metrics))

(* A wrong output makes the run incorrect; a missed guarantee only fails its op. *)
let is_wrong = function Error (W.Wrong _) -> true | Ok () | Error (W.Missed _) -> false

let note = function
  | Ok () -> ""
  | Error (W.Wrong m) -> ", WRONG: " ^ m
  | Error (W.Missed m) -> ", FAILED: " ^ m

let print_series h =
  Printf.printf "kernel series (ms per unit, %d units per sample): %s\n" h.units
    (String.concat " " (List.rev_map (fun k -> Printf.sprintf "%.3f" (1000.0 *. k)) h.series))

(* ------------------------------ work dir ------------------------------ *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_work dir =
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "artifacts") 0o755

let prepare cfg ~seen =
  W.prepare cfg.kind ~seed:cfg.seed ~cli:cfg.cli ~work:cfg.work ~domains:cfg.domains
    ~goldens:(Some cfg.goldens) ~seen

(* ------------------------------ metric run ---------------------------- *)

type sample = { corrected_s : float; ok : bool; wrong : bool; alloc_mw : float; heap_mb : float }

let mib_of_words w = w *. 8.0 /. 1048576.0

let set_ups = 3

let metric_run cfg =
  let h = host cfg.kind in
  let seen = Hashtbl.create 64 in
  (* Set-up is cold each time: fresh work dir, pool, oracle answers,
     (recertify) the store-writing sweep, and the first certified op. *)
  let set_up i =
    fresh_work cfg.work;
    let kb = sample h in
    let t0 = now () in
    let ctx = prepare cfg ~seen in
    let first = W.run_op ctx 0 in
    let raw = now () -. t0 in
    let ka = sample h in
    (match first.W.verdict with
    | Error (W.Wrong m) -> failwith ("set-up: the first op is wrong: " ^ m)
    | Ok () | Error (W.Missed _) -> ());
    let corrected = raw *. factor kb ka in
    Printf.printf "set-up %d: raw %.4f s, kernel %.3f ms, corrected %.4f s%s\n%!" i raw
      (500.0 *. (kb +. ka))
      corrected (note first.W.verdict);
    (ctx, corrected, ka)
  in
  let setups = List.init set_ups set_up in
  let ctx, _, k0 = List.nth setups (set_ups - 1) in
  let start = now () in
  let rec loop j kb acc =
    if now () -. start >= cfg.seconds then List.rev acc
    else begin
      let o = W.run_op ctx j in
      let ka = sample h in
      let op = o.W.op in
      let stats =
        match (op.Perfbench.Op.alloc_words, op.Perfbench.Op.top_heap_words) with
        | Some a, Some t -> Some (a, t)
        | _ -> None
      in
      let verdict =
        match (o.W.verdict, stats) with
        | Ok (), None -> Error (W.Wrong "no runtime exit statistics")
        | v, _ -> v
      in
      let alloc, heap = Option.value ~default:(0.0, 0.0) stats in
      let s =
        {
          corrected_s = op.Perfbench.Op.wall_s *. factor kb ka;
          ok = Result.is_ok verdict;
          wrong = is_wrong verdict;
          alloc_mw = alloc /. 1e6;
          heap_mb = mib_of_words heap;
        }
      in
      Printf.printf
        "op %d: raw %.4f s, kernel %.3f ms, corrected %.4f s, %.3f Mword, heap %.2f MiB%s\n%!" j
        op.Perfbench.Op.wall_s
        (500.0 *. (kb +. ka))
        s.corrected_s s.alloc_mw s.heap_mb (note verdict);
      loop (j + 1) ka (s :: acc)
    end
  in
  let ops = loop 0 k0 [] in
  let attempted = List.length ops in
  let good = List.filter (fun s -> s.ok) ops in
  let n_ok = List.length good in
  (* A failed op counts as slower than every certified one. *)
  let times = List.map (fun s -> if s.ok then s.corrected_s else Float.infinity) ops in
  let busy = List.fold_left (fun acc s -> acc +. s.corrected_s) 0.0 ops in
  let setup_s = median (List.map (fun (_, c, _) -> c) setups) in
  let metrics =
    [
      ("ops_per_s", "1/s", float_of_int n_ok /. busy);
      ("op_s.p50", "s", median times);
      ("op_s.p90", "s", percentile 0.9 times);
      ("setup_s", "s", setup_s);
      ("alloc_mw_per_op", "Mword", mean (List.map (fun s -> s.alloc_mw) good));
      ("peak_heap_mb", "MiB", List.fold_left (fun acc s -> Float.max acc s.heap_mb) 0.0 ops);
      ("ok_frac", "frac", float_of_int n_ok /. float_of_int attempted);
    ]
  in
  Printf.printf "%d ops attempted, %d certified; timings in reference-host seconds\n" attempted
    n_ok;
  List.iter
    (fun (name, unit, v) ->
      let samples =
        match name with
        | "setup_s" -> Printf.sprintf "median of %d set-ups" set_ups
        | "ops_per_s" | "op_s.p50" | "op_s.p90" | "ok_frac" -> Printf.sprintf "%d ops" attempted
        | _ -> Printf.sprintf "%d certified ops" n_ok
      in
      Printf.printf "  %-16s %14.6f %-6s (%s)\n" name v unit samples)
    metrics;
  print_series h;
  print_result
    ~correct:(not (List.exists (fun s -> s.wrong) ops))
    ~attempted ~failed:(attempted - n_ok) metrics

(* ------------------------------- traced run --------------------------- *)

let raw_rows path = List.map snd (Harness.Store.rows (Harness.Store.load ~lock:false ~path ()))

let write_profile cfg name profile =
  let base = Filename.concat cfg.work (W.name cfg.kind ^ name) in
  Out_channel.with_open_bin (base ^ ".profile.json") (fun oc ->
      output_string oc (Profile.Span.to_json profile));
  Out_channel.with_open_bin (base ^ ".folded") (fun oc ->
      output_string oc (Profile.Span.folded profile));
  Printf.printf "wrote %s.profile.json and %s.folded\n" base base

let trace_run cfg =
  let h = host cfg.kind in
  fresh_work cfg.work;
  let ctx = prepare cfg ~seen:(Hashtbl.create 64) in
  (* The recertify set-up sweep, traced in-process: it must write the
     rows the op's set-up process wrote. *)
  let setup =
    match cfg.kind with
    | W.Thm11 | W.Wwy -> []
    | W.Recertify ->
      let t = L.create () in
      let store = Filename.concat cfg.work "traced-setup.jsonl" in
      let kb = sample h in
      L.sweep t ~replay:false ctx.W.specs.(0) ~store;
      let ka = sample h in
      if raw_rows store <> raw_rows ctx.W.store then
        failwith "traced set-up wrote rows that differ from the set-up sweep's";
      write_profile cfg "-setup" (L.profile t);
      [ (factor kb ka, t) ]
  in
  let start = now () in
  let rec loop j acc =
    if now () -. start >= cfg.seconds then List.rev acc
    else begin
      let o = W.run_op ctx j in
      let km = sample h in
      let t = L.create () in
      let spec = ctx.W.specs.(j mod Array.length ctx.W.specs) in
      let replayed =
        match cfg.kind with
        | W.Thm11 | W.Wwy ->
          let store = Filename.concat cfg.work "traced.jsonl" in
          if Sys.file_exists store then Sys.remove store;
          L.sweep t ~replay:true spec ~store;
          if is_wrong o.W.verdict then o.W.verdict
          else (
            match Result.bind (W.store_rows store) (W.same_rows o.W.rows) with
            | Ok () -> o.W.verdict
            | Error m -> Error (W.Wrong m))
        | W.Recertify ->
          let report = L.recertify t spec ~store:ctx.W.store in
          if Check.Report.exit_code report <> 0 then
            Error (W.Wrong "in-process re-certification did not pass")
          else o.W.verdict
      in
      let ka = sample h in
      let traced = L.op_seconds t and untraced = o.W.op.Perfbench.Op.wall_s in
      Printf.printf
        "op %d: untraced %.4f s, traced %.4f s, overhead %+.4f s, kernel %.3f ms%s\n%!" j untraced
        traced (traced -. untraced)
        (500.0 *. (km +. ka))
        (note replayed);
      loop (j + 1) ((factor km ka, t, replayed, traced -. untraced) :: acc)
    end
  in
  let ops = loop 0 [] in
  let traces = List.map (fun (f, t, _, _) -> (f, t)) ops in
  let sweeps = match cfg.kind with W.Recertify -> setup | W.Thm11 | W.Wwy -> traces in
  let metrics = L.metrics ~sweeps ~ops:traces in
  let op_s = mean (List.map (fun (f, t) -> f *. L.op_seconds t) traces) in
  let verdicts = List.map (fun (_, _, v, _) -> v) ops in
  let failed = List.length (List.filter Result.is_error verdicts) in
  write_profile cfg "" (Profile.Span.merge_all (List.map (fun (_, t) -> L.profile t) traces));
  Printf.printf
    "%d traced ops, %.4f s per traced op (reference host); tracing overhead %+.4f s per op\n"
    (List.length ops) op_s
    (mean (List.map (fun (_, _, _, d) -> d) ops));
  List.iter
    (fun (name, unit) ->
      let v = List.assoc name metrics in
      Printf.printf "  %-28s %16.6f %-6s%s\n" name v unit
        (if unit = "s" && not (String.starts_with ~prefix:"harness.sweep" name) then
           Printf.sprintf " %5.1f%% of op" (100.0 *. v /. op_s)
         else ""))
    L.metric_names;
  print_series h;
  print_result
    ~correct:(not (List.exists is_wrong verdicts))
    ~attempted:(List.length ops) ~failed
    (List.map (fun (name, unit) -> (name, unit, List.assoc name metrics)) L.metric_names)

(* ------------------------------- goldens ------------------------------ *)

let write_goldens ~cli ~work ~out =
  let rows =
    List.concat_map
      (fun kind ->
        fresh_work work;
        let seen = Hashtbl.create 64 in
        let ctx =
          W.prepare kind ~seed:W.default_seed ~cli ~work ~domains:1 ~goldens:None ~seen
        in
        if kind <> W.Recertify then
          Array.iteri
            (fun i _ ->
              match (W.run_op ctx i).W.verdict with
              | Ok () -> ()
              | Error (W.Wrong m | W.Missed m) -> failwith m)
            ctx.W.specs;
        Hashtbl.fold (fun _ r acc -> r :: acc) seen [])
      W.all
  in
  let key (r : W.row) = (Harness.Spec.algo_name r.W.algo, r.W.n, r.W.seed) in
  let rows = List.sort (fun a b -> compare (key a) (key b)) rows in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (W.goldens_to_json ~seed:W.default_seed rows));
  Printf.printf "wrote %d golden rows to %s\n" (List.length rows) out

(* --------------------------------- main ------------------------------- *)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10 and trace = ref 0 in
  let cli = ref "_build/default/bin/qcongest_cli.exe" and goldens = ref "perfbench/goldens.json" in
  let work = ref "_perfbench" and out = ref "" and nproc = ref 0 in
  let revision = ref "unknown" and pinned = ref "none" and mode = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W thm11 | wwy | recertify");
      ("--seed", Arg.Set_int seed, "N workload seed (selects the instance pool)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 metric run or traced run");
      ("--cli", Arg.Set_string cli, "PATH the qcongest executable");
      ("--goldens", Arg.Set_string goldens, "PATH the golden rows");
      ("--work", Arg.Set_string work, "DIR work directory (wiped)");
      ("--nproc", Arg.Set_int nproc, "N processors available before pinning");
      ("--revision", Arg.Set_string revision, "REV revision of the measured tree");
      ("--pinned", Arg.Set_string pinned, "CPUS the CPU set this process is pinned to");
      ("--out", Arg.Set_string out, "FILE (goldens) where to write the golden rows");
    ]
  in
  Arg.parse spec
    (fun a -> mode := a :: !mode)
    "main.exe [goldens] --workload W --seed N --seconds S --trace 0|1";
  let nproc = if !nproc > 0 then !nproc else Domain.recommended_domain_count () in
  if Sys.getenv_opt Congest.Shard.env_var <> None then
    usage_error "%s is set; the benchmark measures unsharded engines only" Congest.Shard.env_var;
  let domains =
    match Sys.getenv_opt Util.Domain_pool.env_var with
    | None -> 1
    | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 && j <= nproc -> j
      | _ ->
        usage_error "%s=%s must be a count from 1 to nproc (%d)" Util.Domain_pool.env_var s nproc)
  in
  Util.Domain_pool.set_default_jobs domains;
  match !mode with
  | [ "goldens" ] ->
    if !out = "" then usage_error "goldens needs --out FILE";
    write_goldens ~cli:!cli ~work:!work ~out:!out
  | _ :: _ -> usage_error "unknown mode"
  | [] ->
    let kind =
      match W.of_name !workload with
      | Some k -> k
      | None -> usage_error "unknown workload %S (thm11, wwy, recertify)" !workload
    in
    if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
      usage_error "need --seed >= 0, --seconds >= 1 and --trace 0 or 1";
    if not (Sys.file_exists !cli) then usage_error "no qcongest executable at %s" !cli;
    let cfg =
      {
        kind;
        seed = !seed;
        seconds = float_of_int !seconds;
        cli = !cli;
        work = !work;
        domains;
        goldens = W.load_goldens !goldens;
      }
    in
    Printf.printf "perfbench: workload %s, seed %d%s, %d s, trace %d\n" !workload !seed
      (if !seed = W.goldens_seed cfg.goldens then " (golden rows pinned)"
       else if !seed = W.held_out_seed then " (held out)"
       else "")
      !seconds !trace;
    Printf.printf
      "perfbench: nproc %d, domains %d, shards 1 (%s unset), pinned to CPU %s, OCaml %s, \
       revision %s\n%!"
      nproc domains Congest.Shard.env_var !pinned Sys.ocaml_version !revision;
    try if !trace = 1 then trace_run cfg else metric_run cfg
    with Failure m ->
      Printf.eprintf "perfbench: %s\n" m;
      exit 1
