(* Benchmark harness entry point.

   Regenerates every table and figure of Wu & Yao (PODC 2022):
   Table 1 (complexity landscape), Table 2 (gadget distances),
   Figures 1-4 (lower-bound constructions), plus the scaling/quality
   experiments behind Theorems 1.1 and 1.2 and two ablations; [perf]
   records the simulator's hot-path trajectory.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1 figures thm11   # selected sections *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("table1", "Table 1: complexity landscape (formulas + measured)", Bench_table1.run);
    ("table2", "Table 2: contracted-gadget distance bounds", Bench_table2.run);
    ("figures", "Figures 1-4: gadget constructions and gaps", Bench_figures.run);
    ("thm11", "Theorem 1.1: scaling, quality, crossover", Bench_thm11.run);
    ("lower", "Theorems 1.2/4.2/4.8: lower-bound chain", Bench_lower.run);
    ("ablation", "Ablations: k-shortcut trade-off, search strategies", Bench_ablation.run);
    ("perf", "Engine/APSP hot-path trajectory (BENCH_engine.json)", Bench_perf.run);
  ]

let () =
  (* The sections that fan trials out take their worker count from
     QCONGEST_JOBS; QCONGEST_PERF_SMOKE=1 shrinks [perf]'s sizes. *)
  let args = List.filter (fun a -> a <> "--") (List.tl (Array.to_list Sys.argv)) in
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
