(* Shared helpers for the benchmark harness. *)

let section title =
  let bar = String.make 78 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

let rng seed = Util.Rng.create ~seed

(* The workhorse family for Theorem 1.1: a ring of cliques keeps the
   unweighted diameter pinned by the number of cliques while n grows
   with the clique size. *)
let ring_of_cliques ~cliques ~clique_size ~max_w ~seed =
  Graphlib.Gen.cliques_cycle ~cliques ~clique_size
    ~weighting:(Graphlib.Gen.Uniform { max_w })
    ~rng:(rng seed)

let chain_of_cliques ~cliques ~clique_size ~max_w ~seed =
  Graphlib.Gen.cliques_path ~cliques ~clique_size
    ~weighting:(Graphlib.Gen.Uniform { max_w })
    ~rng:(rng seed)

let d_unweighted g = Graphlib.Dist.to_int_exn (Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g))

let fit_exponent points =
  (* points : (x, y) with positive coordinates. *)
  let fit = Util.Stats.loglog_fit points in
  (fit.Util.Stats.slope, fit.Util.Stats.r2)

let fmt_large x =
  if x >= 1e7 then Printf.sprintf "%.3g" x
  else if Float.is_integer x then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.1f" x

(* ------------------------------------------------------------------ *)
(* Machine-readable trace artifacts.                                   *)
(* ------------------------------------------------------------------ *)

(* Resolution order: ARTIFACTS_DIR env override, then the historical
   "bench_artifacts" default; created (with parents) if missing. *)
let artifact_dir () = Telemetry.Export.artifacts_dir ()

(* Dump a trace (with its fault counters) as [<name>.trace.json] under
   bench_artifacts/, so downstream tooling can parse runs without
   scraping the console tables. *)
let write_trace_json ~name trace =
  let path =
    Telemetry.Export.write_artifact ~name:(name ^ ".trace.json")
      (Congest.Engine.trace_to_json trace)
  in
  note "wrote %s" path

(* Every bench section's top-level JSON artifact goes through here:
   the canonical copy lands under bench_artifacts/ (ARTIFACTS_DIR
   override respected). [~root_copy:true] — used only by the perf
   trajectory (BENCH_engine.json) — additionally writes an identical
   copy at ./<name>, which is where the committed trajectory history
   lives and where CI's jq checks have always looked. Returns the
   artifacts-dir path. *)
let write_bench_json ?(root_copy = false) ~name content =
  let path = Telemetry.Export.write_artifact ~name content in
  note "wrote %s" path;
  if root_copy then begin
    Telemetry.Export.write_file ~path:name (content ^ "\n");
    note "wrote %s (root trajectory copy)" name
  end;
  path
