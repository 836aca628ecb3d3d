(* Command-line interface to the library.

   Subcommands:
     diameter / radius  — run the Theorem 1.1 quantum approximation on a
                          generated network and report the estimate,
                          guarantees and round accounting;
     classical          — run the exact classical APSP baseline;
     unweighted         — run the Le Gall–Magniez-style quantum search;
     gadget             — build the Section 4 lower-bound gadget and
                          check the diameter/radius gap;
     faults             — BFS under a seeded fault adversary with the
                          reliable-delivery wrapper, vs fault-free;
     trace              — a multi-phase CONGEST scenario with the
                          telemetry sink attached: replay-checked event
                          stream plus JSONL/Chrome/CSV/metrics exports
                          (and phase spans with --profile);
     params             — print Eq. (1)/(2) parameters and formulas;
     sweep              — run/resume/report/gate checkpointed sweeps;
     top                — read-only progress line of a sweep store;
     perf               — gate perf trajectories against a baseline;
     check              — the guarantee auditor (run/sweep/chaos). *)

open Cmdliner

(* ------------------------- common arguments ------------------------ *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (deterministic runs).")

let family_arg =
  let doc =
    "Graph family: ring (ring of cliques), chain (path of cliques), gnp, grid, hard \
     (low-hop/heavy-weight), tree."
  in
  Arg.(value & opt string "ring" & info [ "family" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 48 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Target node count.")

let max_w_arg =
  Arg.(value & opt int 16 & info [ "max-weight" ] ~docv:"W" ~doc:"Maximum edge weight.")

let cliques_arg =
  Arg.(value & opt int 6 & info [ "cliques" ] ~docv:"C" ~doc:"Cliques for ring/chain families.")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE"
        ~doc:"Load the graph from an edge-list file (overrides --family; format: 'n <count>' \
              header then 'u v w' lines).")

(* A usage error: one line on stderr and exit 2, before any algorithm
   runs. *)
let usage_error msg =
  Printf.eprintf "qcongest: %s\n" msg;
  exit 2

(* An edge-list file every subcommand can run on: it loads, and it is
   one connected graph with at least one node. *)
let load_input path =
  match Graphlib.Io.load ~path with
  | exception Sys_error msg -> usage_error msg
  | exception (Failure msg | Invalid_argument msg) ->
    usage_error (Printf.sprintf "%s: %s" path msg)
  | g when Graphlib.Wgraph.n g = 0 -> usage_error (path ^ ": the graph has no nodes")
  | g when not (Graphlib.Wgraph.is_connected g) ->
    usage_error (path ^ ": the graph is not connected")
  | g -> g

let make_graph ?input family n max_w cliques seed =
  match input with
  | Some path -> load_input path
  | None -> (
    let family =
      match family with
      | "ring" -> Harness.Spec.Ring { cliques }
      | "chain" -> Harness.Spec.Chain { cliques }
      | "gnp" -> Harness.Spec.Gnp { p = 0.15 }
      | "grid" -> Harness.Spec.Grid
      | "hard" -> Harness.Spec.Hard
      | "tree" -> Harness.Spec.Random_tree
      | other -> usage_error (Printf.sprintf "unknown family %S" other)
    in
    try Harness.Spec.build_graph family ~max_w ~n ~rng:(Util.Rng.create ~seed)
    with Invalid_argument msg -> usage_error msg)

(* Theorem 1.1 and Le Gall–Magniez search over at least two nodes. *)
let require_two_nodes g =
  if Graphlib.Wgraph.n g < 2 then
    usage_error
      (Printf.sprintf "the instance has %d node(s); this algorithm needs at least 2"
         (Graphlib.Wgraph.n g))

let describe g =
  Printf.printf "graph: n = %d, m = %d, W = %d, D_G = %d\n" (Graphlib.Wgraph.n g)
    (Graphlib.Wgraph.m g) (Graphlib.Wgraph.max_weight g)
    (Graphlib.Dist.to_int_exn (Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g)))

(* --------------------------- subcommands --------------------------- *)

let run_quantum objective input family n max_w cliques seed =
  let g = make_graph ?input family n max_w cliques seed in
  require_two_nodes g;
  describe g;
  let rng = Util.Rng.create ~seed:(seed + 1) in
  let r = Core.Algorithm.run g objective ~rng in
  Format.printf "%a@." Core.Algorithm.pp_result r;
  Printf.printf "round breakdown:\n";
  List.iter (fun (k, v) -> Printf.printf "  %-42s %d\n" k v) r.Core.Algorithm.breakdown;
  if r.Core.Algorithm.within_guarantee then 0
  else begin
    Printf.eprintf "qcongest: estimate outside the (1+eps)^2 guarantee\n";
    1
  end

let diameter_cmd =
  let term =
    Term.(
      const (run_quantum Core.Algorithm.Diameter)
      $ input_arg $ family_arg $ n_arg $ max_w_arg $ cliques_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "diameter" ~doc:"Quantum (1+o(1))-approximate weighted diameter (Theorem 1.1).")
    term

let radius_cmd =
  let term =
    Term.(
      const (run_quantum Core.Algorithm.Radius)
      $ input_arg $ family_arg $ n_arg $ max_w_arg $ cliques_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "radius" ~doc:"Quantum (1+o(1))-approximate weighted radius (Theorem 1.1).") term

let run_classical input family n max_w cliques seed =
  let g = make_graph ?input family n max_w cliques seed in
  describe g;
  let tree, ttrace = Congest.Tree.build g ~root:0 in
  let d = Baselines.All_pairs.diameter g ~tree in
  let r = Baselines.All_pairs.radius g ~tree in
  Printf.printf "exact weighted diameter = %d (in %d rounds)\n" d.Baselines.All_pairs.value
    d.Baselines.All_pairs.rounds;
  Printf.printf "exact weighted radius   = %d (in %d rounds)\n" r.Baselines.All_pairs.value
    r.Baselines.All_pairs.rounds;
  Printf.printf "(BFS tree construction: %d rounds)\n" ttrace.Congest.Engine.rounds;
  0

let classical_cmd =
  let term =
    Term.(
      const run_classical
      $ input_arg $ family_arg $ n_arg $ max_w_arg $ cliques_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "classical" ~doc:"Exact classical APSP baseline (token-flood protocol).") term

let run_unweighted family n max_w cliques seed =
  let g = make_graph family n max_w cliques seed in
  require_two_nodes g;
  describe g;
  let rng = Util.Rng.create ~seed:(seed + 1) in
  let r = Baselines.Legall_magniez.diameter g ~rng () in
  Printf.printf
    "quantum unweighted diameter = %d (exact %d, correct %b) in %d rounds\n\
     groups = %d of size %d; outer iterations = %d\n"
    r.Baselines.Legall_magniez.value r.Baselines.Legall_magniez.exact
    r.Baselines.Legall_magniez.correct r.Baselines.Legall_magniez.rounds
    r.Baselines.Legall_magniez.groups r.Baselines.Legall_magniez.group_size
    r.Baselines.Legall_magniez.outer_iterations;
  if r.Baselines.Legall_magniez.correct then 0
  else begin
    Printf.eprintf "qcongest: search returned a wrong diameter\n";
    1
  end

let unweighted_cmd =
  let term =
    Term.(const run_unweighted $ family_arg $ n_arg $ max_w_arg $ cliques_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "unweighted" ~doc:"Le Gall–Magniez-style quantum unweighted diameter (Õ(√(nD))).")
    term

let run_gadget h density seed =
  let p = try Lowerbound.Gadget.params_of_h ~h with Invalid_argument msg -> usage_error msg in
  if not (density >= 0.0 && density <= 1.0) then usage_error "--density must be in [0,1]";
  let rng = Util.Rng.create ~seed in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  let input = Lowerbound.Boolfun.random_input ~rng ~s2 ~ell:p.Lowerbound.Gadget.ell ~p:density in
  Printf.printf "h = %d: s = %d, ell = %d, m = %d, n = %d\n" h p.Lowerbound.Gadget.s
    p.Lowerbound.Gadget.ell p.Lowerbound.Gadget.m p.Lowerbound.Gadget.expected_n;
  let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h ~input () in
  let structural = Lowerbound.Gadget.structural_ok gd in
  Printf.printf "structural invariants: %b\n" structural;
  let gap = Lowerbound.Contraction_check.lemma_4_4 gd in
  Printf.printf
    "F(x,y) = %b; D_{G'} = %d; thresholds YES <= %d / NO >= %d; gap holds = %b\n"
    gap.Lowerbound.Contraction_check.f_value gap.Lowerbound.Contraction_check.measured
    gap.Lowerbound.Contraction_check.yes_threshold gap.Lowerbound.Contraction_check.no_threshold
    gap.Lowerbound.Contraction_check.ok;
  let gdr = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Radius_gadget ~h ~input () in
  let gapr = Lowerbound.Contraction_check.lemma_4_9 gdr in
  Printf.printf "F'(x,y) = %b; R_{G'} = %d; gap holds = %b\n"
    gapr.Lowerbound.Contraction_check.f_value gapr.Lowerbound.Contraction_check.measured
    gapr.Lowerbound.Contraction_check.ok;
  let b = Lowerbound.Theorem.bound_measured ~h in
  Printf.printf "lower bound: Q^sv >= %.0f, T >= %.2f (n^{2/3} = %.1f)\n" b.Lowerbound.Theorem.q_sv
    b.Lowerbound.Theorem.t_lower b.Lowerbound.Theorem.n_two_thirds;
  if structural && gap.Lowerbound.Contraction_check.ok && gapr.Lowerbound.Contraction_check.ok
  then 0
  else begin
    Printf.eprintf "qcongest: gadget invariant or Lemma 4.4/4.9 gap check failed\n";
    1
  end

let gadget_cmd =
  let h_arg =
    Arg.(value & opt int 4 & info [ "height" ] ~docv:"H" ~doc:"Gadget height (even, >= 2).")
  in
  let density_arg =
    Arg.(value & opt float 0.6 & info [ "density" ] ~docv:"P" ~doc:"Input bit density.")
  in
  Cmd.v (Cmd.info "gadget" ~doc:"Build the Section 4 lower-bound gadget and verify the gaps.")
    Term.(const run_gadget $ h_arg $ density_arg $ seed_arg)

let run_faults input family n max_w cliques seed drop dup delay crashes strict bandwidth
    fault_seed timeout json =
  let faults =
    try
      Congest.Fault.make ~seed:fault_seed ~drop ~duplicate:dup ~delay ~crashes
        ~strict_bandwidth:strict ()
    with Invalid_argument msg -> usage_error msg
  in
  let g = make_graph ?input family n max_w cliques seed in
  describe g;
  Format.printf "adversary: %a@." Congest.Fault.pp faults;
  let base_tree, base = Congest.Tree.build ~bandwidth g ~root:0 in
  let config = { Congest.Reliable.default_config with Congest.Reliable.timeout } in
  let tree, tr =
    try Congest.Tree.build ~bandwidth ~faults ~reliable:config g ~root:0
    with Invalid_argument msg -> usage_error msg
  in
  Format.printf "fault-free BFS : %a@." Congest.Engine.pp_trace base;
  Format.printf "reliable BFS   : %a@." Congest.Engine.pp_trace tr;
  Printf.printf "overhead: %.2fx rounds, %.2fx messages\n"
    (float_of_int tr.Congest.Engine.rounds /. float_of_int base.Congest.Engine.rounds)
    (float_of_int tr.Congest.Engine.messages /. float_of_int base.Congest.Engine.messages);
  let mismatches = ref 0 in
  Array.iteri
    (fun v l -> if l <> base_tree.Congest.Tree.level.(v) then incr mismatches)
    tree.Congest.Tree.level;
  (if !mismatches = 0 then
     print_endline "BFS levels identical to the fault-free run."
   else
     (* Expected as soon as nodes fail-stop; any other cause is a bug. *)
     Printf.printf "BFS levels differ on %d node(s) (crashed: %d).\n" !mismatches
       tr.Congest.Engine.crashed);
  if json then print_endline (Telemetry.Json.print (Congest.Engine.trace_to_json tr));
  (* Divergence without a crashed node means reliable delivery failed. *)
  if !mismatches > 0 && tr.Congest.Engine.crashed = 0 then begin
    Printf.eprintf "qcongest: BFS diverged from the fault-free run with no crashes\n";
    1
  end
  else 0

let faults_cmd =
  let drop_arg =
    Arg.(
      value & opt float 0.1
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability in [0,1].")
  in
  let dup_arg =
    Arg.(
      value & opt float 0.
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability in [0,1].")
  in
  let delay_arg =
    Arg.(
      value & opt int 0
      & info [ "delay" ] ~docv:"R" ~doc:"Maximum extra delivery delay in rounds (uniform jitter).")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' int int) []
      & info [ "crash" ] ~docv:"NODE:ROUND"
          ~doc:"Fail-stop crash of $(i,NODE) at the start of $(i,ROUND); repeatable.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict-bandwidth" ]
          ~doc:
            "Drop (instead of just counting) words that exceed the per-edge bandwidth. The \
             reliable wrapper's data messages carry a 1-word header, so pair this with \
             $(b,--bandwidth) >= 2 or nothing gets through.")
  in
  let bandwidth_arg =
    Arg.(
      value & opt int 2
      & info [ "bandwidth" ] ~docv:"B" ~doc:"Per-edge per-round bandwidth in words.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the fault adversary's RNG.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt int Congest.Reliable.default_config.Congest.Reliable.timeout
      & info [ "timeout" ] ~docv:"R" ~doc:"Retransmission timeout in rounds (>= 3).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Also print the faulty trace as JSON.")
  in
  let term =
    Term.(
      const run_faults $ input_arg $ family_arg $ n_arg $ max_w_arg $ cliques_arg $ seed_arg
      $ drop_arg $ dup_arg $ delay_arg $ crash_arg $ strict_arg $ bandwidth_arg $ fault_seed_arg
      $ timeout_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run BFS-tree construction under a seeded fault adversary (drop/duplicate/delay/crash) \
          with the reliable-delivery wrapper, and compare against the fault-free run.")
    term

let run_trace input family n max_w cliques seed drop dup delay fault_seed artifacts
    events_path chrome_path heatmap_path timeline_path profile =
  let faults =
    match Congest.Fault.make ~seed:fault_seed ~drop ~duplicate:dup ~delay () with
    | exception Invalid_argument msg -> usage_error msg
    | f -> if Congest.Fault.is_benign f then None else Some f
  in
  let g = make_graph ?input family n max_w cliques seed in
  describe g;
  let dir = Telemetry.Export.artifacts_dir ?override:artifacts () in
  let sink, drain = Telemetry.Events.collector () in
  (match faults with
  | Some f -> Format.printf "adversary: %a@." Congest.Fault.pp f
  | None -> ());
  (* Each phase runs inside a span: [Span_begin]/[Span_end] bracket its
     slice of the stream, stamped with the cumulative simulated rounds
     and the wall clock. [phases] keeps (name, trace, wall_s), latest
     first. *)
  let phases = ref [] in
  let phase name f =
    let round = List.fold_left (fun acc (_, tr, _) -> acc + tr.Congest.Engine.rounds) 0 !phases in
    let t0 = Telemetry.Clock.now Telemetry.Clock.wall in
    sink (Telemetry.Events.Span_begin { name; round; wall_s = t0 });
    let value, trace = f () in
    let t1 = Telemetry.Clock.now Telemetry.Clock.wall in
    phases := (name, trace, t1 -. t0) :: !phases;
    sink
      (Telemetry.Events.Span_end { name; round = round + trace.Congest.Engine.rounds; wall_s = t1 });
    value
  in
  (* With --profile every engine round is additionally bracketed into
     engine.heap/delivery/compute spans, nested under the phase spans. *)
  let scoped f = if profile then Congest.Engine.with_phase_spans f else f () in
  scoped @@ fun () ->
  (* A representative multi-phase scenario: BFS tree, an aggregation
     up it, a pipelined broadcast down it — each phase a span. *)
  let tree = phase "bfs-tree" (fun () -> Congest.Tree.build ?faults ~sink g ~root:0) in
  let nn = Graphlib.Wgraph.n g in
  let degrees = Array.init nn (fun v -> Array.length (Graphlib.Wgraph.neighbors g v)) in
  let total_degree =
    phase "degree-convergecast" (fun () ->
        Congest.Tree.convergecast ?faults ~sink g tree ~values:degrees ~combine:( + )
          ~size_words:(fun _ -> 1))
  in
  let _per_node =
    phase "token-broadcast" (fun () ->
        Congest.Tree.broadcast_tokens ?faults ~sink g tree ~tokens:[ tree.Congest.Tree.depth ]
          ~size_words:(fun _ -> 1))
  in
  Printf.printf "tree depth = %d, sum of degrees = %d (= 2m = %d)\n" tree.Congest.Tree.depth
    total_degree (2 * Graphlib.Wgraph.m g);
  let phases = List.rev !phases in
  let total =
    List.fold_left
      (fun acc (_, tr, _) -> Congest.Engine.add_traces acc tr)
      Congest.Engine.empty_trace phases
  in
  let wall_s = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 phases in
  List.iter
    (fun (name, tr, _) -> Format.printf "%-28s %a@." name Congest.Engine.pp_trace tr)
    phases;
  Format.printf "%-28s %a@." "TOTAL" Congest.Engine.pp_trace total;
  let events = drain () in
  (* Conservation: the whole stream replays to the summed trace, and
     each phase's slice to the trace that phase returned — the same
     invariant the property tests pin. *)
  let check_replay ~where recorded events =
    let replayed = Congest.Replay.trace_of_events events in
    if replayed <> recorded then begin
      Format.eprintf "qcongest trace: replay mismatch%s!@.  recorded: %a@.  replayed: %a@." where
        Congest.Engine.pp_trace recorded Congest.Engine.pp_trace replayed;
      exit 1
    end
  in
  check_replay ~where:"" total events;
  List.iter
    (fun (name, tr, _) ->
      check_replay ~where:(" in phase " ^ name) tr (Congest.Replay.span_slice name events))
    phases;
  Printf.printf "replay check: %d events reconstruct the trace counters exactly\n"
    (List.length events);
  (* One round clock: on it every message, delivery and fault lies in
     [0, TOTAL], and each phase's inside its span. (A segment's rounds
     count communication only, so a node woken by a timer after the
     segment's last message runs past them with no traffic.) *)
  let rebased = Telemetry.Export.rebase events in
  let check_rows ~where ~lo ~hi events =
    List.iter
      (fun (ev : Telemetry.Events.t) ->
        match ev with
        | Message { round; _ } | Deliver { round; _ } | Fault { round; _ }
          when round < lo || round > hi ->
          Printf.eprintf "qcongest trace: traffic at round %d%s outside [%d, %d]\n" round where
            lo hi;
          exit 1
        | _ -> ())
      events
  in
  check_rows ~where:"" ~lo:0 ~hi:total.Congest.Engine.rounds rebased;
  ignore
    (List.fold_left
       (fun lo (name, tr, _) ->
         let hi = lo + tr.Congest.Engine.rounds in
         check_rows ~where:(" in phase " ^ name) ~lo ~hi (Congest.Replay.span_slice name rebased);
         hi)
       0 phases);
  let metrics = Telemetry.Metrics.create () in
  let counter name v = Telemetry.Metrics.add metrics ("congest." ^ name) v in
  let gauge name v = Telemetry.Metrics.set_gauge metrics ("congest." ^ name) v in
  counter "rounds" total.Congest.Engine.rounds;
  counter "messages" total.Congest.Engine.messages;
  counter "words" total.Congest.Engine.words;
  counter "activations" total.Congest.Engine.activations;
  counter "congestion_violations" total.Congest.Engine.congestion_violations;
  counter "dropped" total.Congest.Engine.dropped;
  counter "delayed" total.Congest.Engine.delayed;
  counter "duplicated" total.Congest.Engine.duplicated;
  gauge "max_edge_load" (float_of_int total.Congest.Engine.max_edge_load);
  gauge "crashed" (float_of_int total.Congest.Engine.crashed);
  gauge "wall_s" wall_s;
  List.iter
    (fun (name, tr, w) ->
      counter ("phase." ^ name ^ ".rounds") tr.Congest.Engine.rounds;
      counter ("phase." ^ name ^ ".messages") tr.Congest.Engine.messages;
      gauge ("phase." ^ name ^ ".wall_s") w)
    phases;
  let out default override =
    match override with Some p -> p | None -> Filename.concat dir default
  in
  let wrote path = Printf.printf "wrote %s\n" path in
  let events_file = out "trace.events.jsonl" events_path in
  Telemetry.Export.write_events_jsonl ~path:events_file events;
  wrote events_file;
  let chrome_file = out "trace.chrome.json" chrome_path in
  Telemetry.Export.write_chrome_trace ~path:chrome_file events;
  wrote chrome_file;
  let heatmap_file = out "trace.heatmap.csv" heatmap_path in
  Telemetry.Export.write_file ~path:heatmap_file (Telemetry.Export.heatmap_csv events);
  wrote heatmap_file;
  let timeline_file = out "trace.timeline.csv" timeline_path in
  Telemetry.Export.write_file ~path:timeline_file (Telemetry.Export.timeline_csv events);
  wrote timeline_file;
  let metrics_file = Filename.concat dir "trace.metrics.json" in
  Telemetry.Export.write_file ~path:metrics_file
    (Telemetry.Json.print (Telemetry.Metrics.to_json (Telemetry.Metrics.snapshot metrics)));
  wrote metrics_file;
  let phases_file = Filename.concat dir "trace.phases.json" in
  let module J = Telemetry.Json in
  let phase_json (name, tr, w) =
    J.obj [ ("name", J.str name); ("wall_s", J.float w); ("trace", Congest.Engine.trace_to_json tr) ]
  in
  Telemetry.Export.write_file ~path:phases_file
    (J.print
       (J.obj
          [
            ("phases", J.arr (List.map phase_json phases));
            ("wall_s", J.float wall_s);
            ("total", Congest.Engine.trace_to_json total);
          ]));
  wrote phases_file;
  if profile then begin
    (* Span attribution from the recorded stream: the phase spans and
       (under --profile) the per-round engine spans aggregate into one
       call tree, exported as JSON, folded stacks for flamegraph/
       speedscope, and the metrics snapshot as Prometheus text. *)
    let spans = Profile.Span.of_events events in
    let profile_file = Filename.concat dir "trace.profile.json" in
    Telemetry.Export.write_file ~path:profile_file (Profile.Span.to_json spans ^ "\n");
    wrote profile_file;
    let folded_file = Filename.concat dir "trace.folded.txt" in
    Telemetry.Export.write_file ~path:folded_file (Profile.Span.folded spans);
    wrote folded_file;
    let prom_file = Filename.concat dir "trace.metrics.prom" in
    Telemetry.Export.write_file ~path:prom_file
      (Telemetry.Export.prometheus (Telemetry.Metrics.snapshot metrics));
    wrote prom_file
  end;
  0

let trace_cmd =
  let drop_arg =
    Arg.(
      value & opt float 0.
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message drop probability in [0,1].")
  in
  let dup_arg =
    Arg.(
      value & opt float 0.
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability in [0,1].")
  in
  let delay_arg =
    Arg.(
      value & opt int 0
      & info [ "delay" ] ~docv:"R" ~doc:"Maximum extra delivery delay in rounds.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of the fault adversary's RNG.")
  in
  let artifacts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Output directory for trace artifacts (created if missing). Defaults to the \
             $(b,ARTIFACTS_DIR) environment variable, then $(b,bench_artifacts).")
  in
  let path_arg names docv doc = Arg.(value & opt (some string) None & info names ~docv ~doc) in
  let events_arg = path_arg [ "events" ] "FILE" "Structured event log (JSONL), one event per line." in
  let chrome_arg =
    path_arg [ "chrome" ] "FILE"
      "Chrome trace-event JSON, loadable in chrome://tracing or Perfetto (ui.perfetto.dev)."
  in
  let heatmap_arg = path_arg [ "heatmap" ] "FILE" "Per-directed-edge load CSV (src,dst,messages,words)." in
  let timeline_arg =
    path_arg [ "timeline" ] "FILE" "Per-round timeline CSV (round,active,messages,words,...)."
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable per-round engine phase spans (engine.heap/delivery/compute) and export \
             span attribution: $(b,trace.profile.json) (the qcongest-profile/v1 call tree), \
             $(b,trace.folded.txt) (folded stacks for flamegraph.pl/speedscope) and \
             $(b,trace.metrics.prom) (Prometheus text exposition of the metrics snapshot).")
  in
  let term =
    Term.(
      const run_trace $ input_arg $ family_arg $ n_arg $ max_w_arg $ cliques_arg
      $ seed_arg $ drop_arg $ dup_arg $ delay_arg $ fault_seed_arg $ artifacts_arg $ events_arg
      $ chrome_arg $ heatmap_arg $ timeline_arg $ profile_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a multi-phase CONGEST scenario (BFS tree + convergecast + broadcast, optionally \
          under a fault adversary) with the telemetry sink attached, verify the event stream \
          replays to the measured trace, and export JSONL events, a Chrome/Perfetto trace, \
          per-round timeline and per-edge heatmap CSVs, phase spans and a metrics snapshot.")
    term

let run_params n d =
  if n < 1 then usage_error "--n must be >= 1";
  if d < 1 then usage_error "--d must be >= 1";
  let p = Core.Params.of_graph_params ~n ~d_hat:d () in
  Format.printf "Eq. (1): %a@." Core.Params.pp p;
  let t0, t1, t2 = Core.Params.lemma_3_5_terms p in
  Printf.printf "Lemma 3.5 terms (log-free): T0 = %.1f, T1 = %.1f, T2 = %.1f\n" t0 t1 t2;
  Printf.printf "one evaluation of f(i): %.1f rounds\n" (Core.Params.lemma_3_5_rounds p);
  Printf.printf "Theorem 1.1 total: %.1f (asymptotic min{n^0.9 D^0.3, n} = %.1f)\n"
    (Core.Params.total_rounds p)
    (Core.Params.theorem_1_1_rounds ~n ~d);
  Printf.printf "quantum advantage (D < n^{1/3} = %.1f): %b\n"
    (Baselines.Table1.crossover_d ~n)
    (float_of_int d < Baselines.Table1.crossover_d ~n);
  0

let params_cmd =
  let n_arg = Arg.(value & opt int 1024 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Node count.") in
  let d_arg = Arg.(value & opt int 16 & info [ "d"; "diameter" ] ~docv:"D" ~doc:"Unweighted diameter.") in
  Cmd.v (Cmd.info "params" ~doc:"Print Eq. (1) parameters and the paper's cost formulas.")
    Term.(const run_params $ n_arg $ d_arg)

(* ------------------------------ sweep ------------------------------ *)

let builtin_names =
  List.map (fun (s : Harness.Spec.t) -> s.Harness.Spec.name) Harness.Spec.builtins

(* The spec a sweep or check subcommand runs on, shared by both. *)
let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"FILE" ~doc:"Sweep spec JSON file (overrides $(b,--builtin)).")

let builtin_arg =
  Arg.(
    value & opt string "ci-smoke"
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:("Built-in spec, one of: " ^ String.concat ", " builtin_names ^ "."))

let load_spec spec_file builtin =
  match spec_file with
  | Some path -> (
    match Harness.Spec.load ~path with
    | Ok s -> Ok s
    | Error m -> Error (Printf.sprintf "%s: %s" path m))
  | None -> (
    match
      List.find_opt
        (fun (s : Harness.Spec.t) -> s.Harness.Spec.name = builtin)
        Harness.Spec.builtins
    with
    | Some s -> Ok s
    | None ->
      Error
        (Printf.sprintf "unknown built-in spec %S (have: %s)" builtin
           (String.concat ", " builtin_names)))

let resolve_store_path spec override =
  match override with Some p -> p | None -> Harness.Runner.store_path spec

let deadline_usage = "--deadline must be a non-negative finite number of seconds"

let sweep_error msg =
  Printf.eprintf "qcongest sweep: %s\n" msg;
  2

let load_store ?fsync spec override =
  let path = resolve_store_path spec override in
  let store = Harness.Store.load ?fsync ~path () in
  if Harness.Store.quarantined_lines store > 0 then
    Printf.printf "checkpoint %s: quarantined %d corrupt line(s) to %s\n" path
      (Harness.Store.quarantined_lines store)
      (Harness.Store.corrupt_path store);
  if Harness.Store.dropped_lines store > 0 then
    Printf.printf "checkpoint %s: dropped %d truncated trailing line(s)\n" path
      (Harness.Store.dropped_lines store);
  store

(* Open the store for the duration of [f], surfacing a held lock as a
   usage error (reported through the calling subcommand's [usage])
   instead of a raw exception. *)
let with_store ?fsync ~usage spec override f =
  match load_store ?fsync spec override with
  | exception Harness.Store.Locked { lock_path; holder } ->
    usage
      (Printf.sprintf
         "store is locked by running process %d (%s); wait for it or remove the lock file \
          if that process is gone"
         holder lock_path)
  | store -> Fun.protect ~finally:(fun () -> Harness.Store.close store) (fun () -> f store)

(* Print a JSON artifact into the artifacts directory and say where. *)
let write_json name v =
  Printf.printf "wrote %s\n" (Telemetry.Export.write_artifact ~name (Telemetry.Json.print v))

(* Audit a sweep's checkpoint rows through the guarantee auditor and
   print/export the certificate. Shared by `sweep run --audit` and
   `check sweep`. *)
let audit_sweep_store (spec : Harness.Spec.t) store =
  let report = Check.Suite.sweep_report spec store in
  List.iter
    (Format.printf "%a@." Check.Report.pp_certificate)
    report.Check.Report.certificates;
  write_json (spec.Harness.Spec.name ^ ".check.json") (Check.Report.to_json report);
  Check.Report.exit_code report

let sweep_run spec_file builtin store_override max_jobs audit fsync deadline progress =
  if not (Option.fold ~none:true ~some:Congest.Engine.valid_deadline deadline) then
    sweep_error deadline_usage
  else if Option.fold ~none:false ~some:(fun k -> k < 0) max_jobs then
    sweep_error "--max-jobs must be >= 0"
  else
    match load_spec spec_file builtin with
    | Error m -> sweep_error m
    | Ok spec ->
      with_store ~fsync ~usage:sweep_error spec store_override @@ fun store ->
      let total = List.length (Harness.Spec.jobs spec) in
      Printf.printf "sweep %s: %d jobs (%d already checkpointed in %s)\n%!"
        spec.Harness.Spec.name total (Harness.Store.count store)
        (Harness.Store.path store);
      (* --progress: a single \r-rewritten status line counting the
         rows of the store this process holds, plus a live metrics
         registry (job wall-time histogram) exported as Prometheus
         text. *)
      let metrics = if progress then Some (Telemetry.Metrics.create ()) else None in
      let t0 = Unix.gettimeofday () in
      let baseline = Harness.Store.count store in
      let on_progress =
        if progress then fun ~completed:_ ~total ->
          let stats =
            Profile.Monitor.of_rows ~total ~rows:(Harness.Store.rows store) ~skipped:0 ()
          in
          Printf.printf "\r%s%!"
            (Profile.Monitor.render ~width:78 ~baseline
               ~elapsed_s:(Unix.gettimeofday () -. t0)
               stats)
        else fun ~completed ~total -> Printf.printf "  checkpoint: %d/%d jobs\n%!" completed total
      in
      let executed, failed =
        Harness.Runner.run ?max_jobs ?deadline_s:deadline ?metrics spec store
          ~on_progress
      in
      if progress then print_newline ();
      Printf.printf "executed %d job(s), %d failed in this invocation\n" executed failed;
      (match metrics with
      | Some m ->
        Printf.printf "wrote %s\n"
          (Telemetry.Export.write_artifact
             ~name:(spec.Harness.Spec.name ^ ".metrics.prom")
             (Telemetry.Export.prometheus (Telemetry.Metrics.snapshot m)))
      | None -> ());
      write_json (spec.Harness.Spec.name ^ ".sweep.json") (Harness.Runner.report spec store);
      let audit_rc = if audit then audit_sweep_store spec store else 0 in
      let settled = Harness.Store.count store in
      let failures =
        List.length
          (List.filter (fun (_, row) -> Harness.Runner.row_failed row) (Harness.Store.rows store))
      in
      if settled < total then begin
        Printf.printf "%d job(s) still pending — rerun `sweep run` to resume\n"
          (total - settled);
        0
      end
      else if failures > 0 then begin
        Printf.eprintf "qcongest sweep: %d of %d jobs failed (see the report artifact)\n"
          failures total;
        1
      end
      else if audit_rc <> 0 then begin
        Printf.eprintf "qcongest sweep: checkpoint audit did not certify (exit %d)\n"
          audit_rc;
        audit_rc
      end
      else 0

(* For the commands that only read a store (sweep report and gate,
   check sweep) a missing one is a usage error: loading would create
   it and its directory, and answer for a sweep that never ran. *)
let with_existing_store ~usage spec override f =
  let path = resolve_store_path spec override in
  if not (Sys.file_exists path) then usage ("no store at " ^ path)
  else with_store ~usage spec (Some path) f

let sweep_report spec_file builtin store_override =
  match load_spec spec_file builtin with
  | Error m -> sweep_error m
  | Ok spec ->
    with_existing_store ~usage:sweep_error spec store_override @@ fun store ->
    print_endline (Telemetry.Json.print (Harness.Runner.report spec store));
    0

let print_gate_verdict (spec : Harness.Spec.t) ~negative_control verdict =
  List.iter
    (fun (c : Harness.Fit.check) ->
      Printf.printf "gate %-20s %s  %s\n" c.Harness.Fit.series
        (String.uppercase_ascii (Harness.Fit.status_name c.Harness.Fit.status))
        c.Harness.Fit.reason)
    verdict.Harness.Fit.checks;
  let artifact =
    spec.Harness.Spec.name
    ^ (if negative_control then ".negative.gate.json" else ".gate.json")
  in
  write_json artifact (Harness.Fit.verdict_to_json verdict);
  Harness.Fit.exit_code verdict

let sweep_gate spec_file builtin store_override negative_control =
  match load_spec spec_file builtin with
  | Error m -> sweep_error m
  | Ok spec ->
    if spec.Harness.Spec.gates = [] then sweep_error "spec has no gates to check"
    else if negative_control then begin
      (* Synthetic mis-scaled series: one extra power of n beyond
         each gate's tolerance band, so a healthy gate MUST reject
         it (the test that the gate can actually fail). *)
      let series =
        List.map
          (fun (g : Harness.Spec.gate) ->
            let bad = g.Harness.Spec.expected +. g.Harness.Spec.tol +. 1.0 in
            ( g.Harness.Spec.series,
              List.map
                (fun n -> (float_of_int n, float_of_int n ** bad))
                spec.Harness.Spec.sizes ))
          spec.Harness.Spec.gates
      in
      print_gate_verdict spec ~negative_control
        (Harness.Fit.evaluate spec.Harness.Spec.gates ~series)
    end
    else
      with_existing_store ~usage:sweep_error spec store_override @@ fun store ->
      (* Series degraded by failed or timed-out jobs gate as
         Inconclusive (exit 3), never as a measured pass or fail. *)
      let degraded = Harness.Runner.degraded_series spec store in
      let series = Harness.Runner.series_points spec store in
      print_gate_verdict spec ~negative_control
        (Harness.Fit.evaluate ~degraded spec.Harness.Spec.gates ~series)

let sweep_cmd =
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Checkpoint store (JSONL, one row per completed job). Defaults to \
             $(i,ARTIFACTS_DIR)/$(i,spec-name).jsonl. An existing store resumes the sweep: \
             completed jobs are skipped and the final results are byte-identical to an \
             uninterrupted run.")
  in
  let max_jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-jobs" ] ~docv:"K"
          ~doc:
            "Execute at most $(docv) pending jobs then stop (for partial/staged runs). A \
             negative $(docv) is a usage error (exit 2).")
  in
  let negative_arg =
    Arg.(
      value & flag
      & info [ "negative-control" ]
          ~doc:
            "Evaluate the gates against a synthetic mis-scaled series instead of the store; a \
             healthy gate exits 3. Verifies the gate can fail.")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "After the sweep completes, re-certify every checkpointed row against a recomputed \
             oracle (the $(b,check sweep) auditor); a violated row makes the command exit \
             non-zero.")
  in
  let fsync_arg =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the checkpoint store after every appended row (and every store repair), \
             trading throughput for power-loss durability. Without it rows are flushed to \
             the OS but not forced to disk.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per job, checked cooperatively at round granularity; \
             a job over budget is checkpointed as a $(b,status:\"timeout\") row and the \
             sweep continues. A budget that is not a finite number >= 0 is a usage error \
             (exit 2).")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Replace the per-batch checkpoint lines with a single live status line (rows \
             done/total, rows/s, ETA, failure/timeout counts, redrawn in place \
             after a carriage return) and export the run's job wall-time metrics as \
             $(i,spec-name).metrics.prom (Prometheus text exposition).")
  in
  let run_term =
    Term.(
      const sweep_run $ spec_arg $ builtin_arg $ store_arg $ max_jobs_arg $ audit_arg
      $ fsync_arg $ deadline_arg $ progress_arg)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Execute the sweep's pending jobs over $(b,QCONGEST_JOBS) worker domains (default: \
            the machine's recommended domain count), checkpointing each result; exits 1 if \
            any checkpointed job failed.")
      run_term
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Alias of $(b,run): an existing checkpoint store already makes $(b,run) skip \
            completed jobs.")
      run_term
  in
  let report_cmd =
    Cmd.v
      (Cmd.info "report" ~doc:"Print the sweep report JSON (accounting, series, fits, rows).")
      Term.(const sweep_report $ spec_arg $ builtin_arg $ store_arg)
  in
  let gate_cmd =
    Cmd.v
      (Cmd.info "gate"
         ~doc:
           "Fit each gated series' round-complexity exponent and compare against the spec's \
            prediction band; exits 3 on any failed gate.")
      Term.(const sweep_gate $ spec_arg $ builtin_arg $ store_arg $ negative_arg)
  in
  Cmd.group
    (Cmd.info "sweep"
       ~doc:
         "Declarative experiment sweeps: run/resume checkpointed job grids, report results, \
          and gate empirical scaling exponents against Table 1 predictions.")
    [ run_cmd; resume_cmd; report_cmd; gate_cmd ]

(* ------------------------------- top ------------------------------- *)

let run_top store_path total watch =
  if not (Float.is_finite watch) then begin
    (* Checked before the first line: the watch loop's Unix.sleepf
       would raise on NaN or infinity only after printing it. *)
    Printf.eprintf "qcongest top: --watch must be a finite number of seconds\n";
    2
  end
  else if not (Sys.file_exists store_path) then begin
    Printf.eprintf "qcongest top: no store at %s\n" store_path;
    2
  end
  else if watch <= 0.0 then begin
    let stats = Profile.Monitor.observe ~total ~path:store_path () in
    print_endline (Profile.Monitor.render stats);
    0
  end
  else begin
    (* Watch loop: observe read-only, rewrite one line in place, stop
       once the store reaches --total (forever without it: the store
       alone cannot know how many jobs remain). *)
    let t0 = Unix.gettimeofday () in
    let baseline = (Profile.Monitor.observe ~total ~path:store_path ()).Profile.Monitor.settled in
    let rec loop () =
      let stats = Profile.Monitor.observe ~total ~path:store_path () in
      Printf.printf "\r%s%!"
        (Profile.Monitor.render ~width:78 ~baseline
           ~elapsed_s:(Unix.gettimeofday () -. t0)
           stats);
      if total > 0 && stats.Profile.Monitor.settled >= total then begin
        print_newline ();
        0
      end
      else begin
        Unix.sleepf watch;
        loop ()
      end
    in
    loop ()
  end

let top_cmd =
  let store_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STORE" ~doc:"Checkpoint store (JSONL) to observe.")
  in
  let total_arg =
    Arg.(
      value & opt int 0
      & info [ "total" ] ~docv:"N"
          ~doc:"Expected job count (enables percentage and ETA; 0 = unknown).")
  in
  let watch_arg =
    Arg.(
      value & opt float 0.0
      & info [ "watch" ] ~docv:"SECONDS"
          ~doc:
            "Re-observe every $(docv) seconds, rewriting the status line in place; exits \
             when $(b,--total) rows are settled (without $(b,--total): watches forever). \
             Default 0 = print once and exit, as does any value <= 0; NaN or infinity is a \
             usage error (exit 2).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Read-only tail of a sweep checkpoint store: rows settled, ok/failed/timeout \
          counts, rate and ETA. Never locks, repairs or mutates the store, so it is safe \
          against a live $(b,sweep run).")
    Term.(const run_top $ store_arg $ total_arg $ watch_arg)

(* ------------------------------- perf ------------------------------- *)

let perf_gate baseline_path current_path tol min_points =
  let current_path =
    match current_path with Some p -> p | None -> Profile.Trajectory.latest_path ()
  in
  let baseline = Profile.Trajectory.read ~path:baseline_path in
  let current = Profile.Trajectory.read ~path:current_path in
  if baseline = [] then
    Printf.printf "perf gate: no baseline rows at %s (inconclusive)\n" baseline_path;
  if current = [] then
    Printf.printf "perf gate: no current rows at %s (inconclusive)\n" current_path;
  match Profile.Gate.evaluate ?tolerance:tol ~min_points ~baseline ~current () with
  | exception Invalid_argument msg ->
    Printf.eprintf "qcongest perf: %s\n" msg;
    2
  | verdict ->
    Format.printf "%a@?" Profile.Gate.pp verdict;
    write_json "perf.gate.json" (Profile.Gate.to_json verdict);
    Profile.Gate.exit_code verdict

let perf_cmd =
  let baseline_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Pinned baseline rows: a trajectory file of either shape (JSONL history or JSON \
             array snapshot).")
  in
  let current_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:
            "Rows of the run under test. Defaults to \
             $(i,ARTIFACTS_DIR)/trajectory/latest.json (what $(b,bench perf) just wrote).")
  in
  let tol_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "tol" ] ~docv:"R"
          ~doc:
            "Noise band as a relative tolerance: a case regresses when its median wall time \
             exceeds baseline by more than $(docv) (default 0.35).")
  in
  let min_points_arg =
    Arg.(
      value & opt int 1
      & info [ "min-points" ] ~docv:"K"
          ~doc:
            "Minimum comparable (case, n) points for a measured verdict; fewer is \
             inconclusive (exit 3).")
  in
  let gate_cmd =
    Cmd.v
      (Cmd.info "gate"
         ~doc:
           "Compare current perf-trajectory rows against a pinned baseline with a noise \
            band: medians per (case, n), regression when current > baseline * (1 + tol). \
            Exits 0 on pass, 1 on a measured regression, 3 when inconclusive (no baseline, \
            disjoint cases).")
      Term.(const perf_gate $ baseline_arg $ current_arg $ tol_arg $ min_points_arg)
  in
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "Performance trajectory tooling over the qcongest-perf-row/v1 files $(b,bench \
          perf) writes under $(i,ARTIFACTS_DIR)/trajectory/.")
    [ gate_cmd ]

(* ------------------------------ check ------------------------------ *)

let check_run only seed n trials h negative_control artifacts =
  let cfg = { Check.Suite.seed; n; trials; h; negative_control; only } in
  match Check.Suite.run cfg with
  | exception Invalid_argument msg ->
    Printf.eprintf "qcongest check: %s\n" msg;
    2
  | report ->
    List.iter
      (Format.printf "%a@." Check.Report.pp_certificate)
      report.Check.Report.certificates;
    let name = if negative_control then "check.negative.json" else "check.report.json" in
    Printf.printf "wrote %s\n"
      (Telemetry.Export.write_artifact ?dir:artifacts ~name
         (Telemetry.Json.print (Check.Report.to_json report)));
    Printf.printf "check: %s\n"
      (Check.Report.status_name (Check.Report.status report));
    Check.Report.exit_code report

let check_sweep spec_file builtin store_override =
  let usage msg =
    Printf.eprintf "qcongest check: %s\n" msg;
    2
  in
  match load_spec spec_file builtin with
  | Error m -> usage m
  | Ok spec ->
    (* An empty store is only inconclusive, so a mistyped path must
       not read as "nothing to audit". *)
    with_existing_store ~usage spec store_override (audit_sweep_store spec)

let check_chaos seed deadline negative_control artifacts =
  if not (Congest.Engine.valid_deadline deadline) then begin
    Printf.eprintf "qcongest check: %s\n" deadline_usage;
    2
  end
  else begin
    let report = Check.Suite.chaos ~seed ~deadline_s:deadline ~negative_control () in
    List.iter
      (Format.printf "%a@." Check.Report.pp_certificate)
      report.Check.Report.certificates;
    let name = if negative_control then "chaos.negative.json" else "chaos.report.json" in
    Printf.printf "wrote %s\n"
      (Telemetry.Export.write_artifact ?dir:artifacts ~name
         (Telemetry.Json.print (Check.Report.to_json report)));
    Printf.printf "check: %s\n" (Check.Report.status_name (Check.Report.status report));
    Check.Report.exit_code report
  end

let check_cmd =
  let only_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "only" ] ~docv:"NAME"
          ~doc:
            ("Run only this certifier (repeatable), one of: "
            ^ String.concat ", " Check.Suite.certifier_names
            ^ ". Default: all."))
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed of the audited instances.")
  in
  let n_arg =
    Arg.(
      value & opt int 48
      & info [ "n"; "nodes" ] ~docv:"N"
          ~doc:
            "Instance size for the graph-based certifiers. Write $(b,-n) N or $(b,--nodes) N: \
             here $(b,--n) is a prefix of both $(b,--nodes) and $(b,--negative-control), so \
             cmdliner rejects it as ambiguous.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"T"
          ~doc:
            "Sampling budget of the amplification audit. Below 30 the frequency interval is \
             meaningless, so the certificate comes back inconclusive (exit 3).")
  in
  let h_arg =
    Arg.(value & opt int 2 & info [ "height" ] ~docv:"H" ~doc:"Gadget height (even, >= 2).")
  in
  let negative_arg =
    Arg.(
      value & flag
      & info [ "negative-control" ]
          ~doc:
            "Arm every selected certifier's sabotage path (injected non-edge message, tampered \
             estimate, negated gadget classification, shifted permuted diameter, unamplified \
             sampling). A sound auditor must exit 1.")
  in
  let artifacts_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Output directory for the report artifact. Defaults to $(b,ARTIFACTS_DIR), then \
             $(b,bench_artifacts).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Checkpoint store to audit. Defaults to \
             $(i,ARTIFACTS_DIR)/$(i,spec-name).jsonl.")
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run the guarantee auditor over built-in instances: CONGEST legality of a real event \
            stream, Theorem 1.1 / 3-halves approximation ratios against a recomputed oracle, \
            Table 2 gadget distances, seeded determinism and scheduler-permutation invariance, \
            and Lemma 3.1 amplification frequencies. Exits 0 when everything is certified, 1 on \
            a violation, 3 when inconclusive.")
      Term.(
        const check_run $ only_arg $ seed_arg $ n_arg $ trials_arg $ h_arg $ negative_arg
        $ artifacts_arg)
  in
  let sweep_cmd =
    Cmd.v
      (Cmd.info "sweep"
         ~doc:
           "Re-certify a sweep checkpoint store row by row: rebuild each instance once, \
            recompute each of its exact oracles at most once and cross-check every row's \
            stored n_actual/exact/ratio/within fields. Exits 1 on a violated row, 2 when the \
            store does not exist, 3 when the store has no auditable rows.")
      Term.(const check_sweep $ spec_arg $ builtin_arg $ store_arg)
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed of the staged chaos sweeps.")
  in
  let chaos_deadline_arg =
    Arg.(
      value & opt float 0.05
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget given to the planted never-terminating jobs. A budget that \
             is not a finite number >= 0 is a usage error (exit 2).")
  in
  let chaos_negative_arg =
    Arg.(
      value & flag
      & info [ "negative-control" ]
          ~doc:
            "Arm one sabotage per chaos certificate (a silently deleted checkpoint row, a \
             supervisor that forgot to arm the deadline). A sound chaos auditor must exit 1.")
  in
  let chaos_cmd =
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Chaos-injection audit of the supervised execution layer: kill a sweep mid-batch \
            and corrupt its checkpoint store in place (bit-flip, spliced line, truncated \
            row), and plant a never-terminating job under a deadline — then certify \
            recovery: byte-identical resumed reports, timeout rows within tolerance that \
            the report counts, and Inconclusive gates over the degraded series. Exits 0 \
            when every invariant holds, 1 on a violation.")
      Term.(
        const check_chaos $ chaos_seed_arg $ chaos_deadline_arg $ chaos_negative_arg
        $ artifacts_arg)
  in
  Cmd.group
    (Cmd.info "check"
       ~doc:
         "Guarantee auditor: certify the paper's claims (CONGEST legality, approximation \
          ratios, gadget distance structure, determinism, amplification) on concrete runs, \
          with machine-readable violation reports.")
    [ run_cmd; sweep_cmd; chaos_cmd ]

let () =
  (* Validate QCONGEST_JOBS before dispatching any command: a typo
     should fail fast as a usage error, not as an Invalid_argument
     deep inside the first sweep batch. *)
  (match Util.Domain_pool.validate_env () with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "qcongest: %s\n" msg;
    exit 2);
  let info =
    Cmd.info "qcongest"
      ~doc:
        "Quantum CONGEST weighted diameter/radius (Wu & Yao, PODC 2022) — simulator and \
         reproduction toolkit"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ diameter_cmd; radius_cmd; classical_cmd; unweighted_cmd; gadget_cmd; faults_cmd;
            trace_cmd; params_cmd; sweep_cmd; top_cmd; perf_cmd; check_cmd ]))
