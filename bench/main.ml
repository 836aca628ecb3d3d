(* Benchmark harness entry point.

   Regenerates every table and figure of Wu & Yao (PODC 2022):
   Table 1 (complexity landscape), Table 2 (gadget distances),
   Figures 1-4 (lower-bound constructions), plus the scaling/quality
   experiments behind Theorems 1.1 and 1.2, two ablations, and a block
   of Bechamel micro-benchmarks (one per artifact).

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1 fig2 thm11   # selected sections *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("table1", "Table 1: complexity landscape (formulas + measured)", Bench_table1.run);
    ("table2", "Table 2: contracted-gadget distance bounds", Bench_table2.run);
    ("figures", "Figures 1-4: gadget constructions and gaps", Bench_figures.run);
    ("thm11", "Theorem 1.1: scaling, quality, crossover", Bench_thm11.run);
    ("lower", "Theorems 1.2/4.2/4.8: lower-bound chain", Bench_lower.run);
    ("ablation", "Ablations: k-shortcut trade-off, search strategies", Bench_ablation.run);
    ("micro", "Bechamel micro-benchmarks", Bench_micro.run);
    ("perf", "Engine/APSP hot-path trajectory (BENCH_engine.json)", Bench_perf.run);
    ("check", "Guarantee auditor over live engine streams", Bench_check.run);
    ("chaos", "Supervision overhead: deadline guard, checksummed store", Bench_chaos.run);
  ]

let flag_value a ~prefix =
  let pl = String.length prefix in
  if String.length a > pl && String.sub a 0 pl = prefix then
    Some (String.sub a pl (String.length a - pl))
  else None

let () =
  (* [--jobs=N] (anywhere on the command line) sets the Domain_pool
     default for every section; QCONGEST_JOBS overrides it.
     [--shards=K] likewise sets the engine's default shard count
     (QCONGEST_SHARDS overrides). [--sizes=N,N,...] pins the perf
     section's scale-case sizes (exported as QCONGEST_PERF_SIZES).
     [--smoke] shrinks sizes for the sections that honor
     QCONGEST_PERF_SMOKE. *)
  let args =
    List.filter
      (fun a ->
        if a = "--" then false
        else if a = "--smoke" then begin
          Unix.putenv "QCONGEST_PERF_SMOKE" "1";
          false
        end
        else
          match flag_value a ~prefix:"--jobs=" with
          | Some v ->
            (match int_of_string_opt v with
            | Some j when j >= 1 ->
              Util.Domain_pool.set_default_jobs j;
              false
            | _ ->
              Printf.eprintf "bad --jobs value in %S\n" a;
              exit 1)
          | None ->
            (match flag_value a ~prefix:"--shards=" with
            | Some v ->
              (match int_of_string_opt v with
              | Some k when k >= 1 ->
                Congest.Shard.set_default_shards k;
                false
              | _ ->
                Printf.eprintf "bad --shards value in %S\n" a;
                exit 1)
            | None ->
              (match flag_value a ~prefix:"--sizes=" with
              | Some v ->
                let ok =
                  String.split_on_char ',' v
                  |> List.for_all (fun t ->
                         match int_of_string_opt (String.trim t) with
                         | Some n -> n >= 2
                         | None -> false)
                in
                if ok && v <> "" then begin
                  Unix.putenv "QCONGEST_PERF_SIZES" v;
                  false
                end
                else begin
                  Printf.eprintf "bad --sizes value in %S (want N,N,... with N >= 2)\n" a;
                  exit 1
                end
              | None -> true)))
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with
    | _ :: _ as names -> names
    | [] -> List.map (fun (name, _, _) -> name) sections
  in
  let t0 = Sys.time () in
  Printf.printf
    "Reproduction harness: \"Quantum Complexity of Weighted Diameter and Radius in\n\
     CONGEST Networks\" (Wu & Yao, PODC 2022)\n";
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) sections with
      | Some (_, _, run) -> run ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) sections));
        exit 1)
    requested;
  Printf.printf "\nAll sections completed in %.1f s (CPU).\n" (Sys.time () -. t0)
