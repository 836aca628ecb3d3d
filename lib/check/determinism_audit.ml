module J = Telemetry.Json

let claim =
  "replayability (same seed => same result) and scheduler-permutation invariance \
   (relabeled node evaluation order => identical outputs)"

let permute g ~seed =
  let n = Graphlib.Wgraph.n g in
  let pi = Array.init n (fun i -> i) in
  Util.Rng.shuffle (Util.Rng.create ~seed:(seed lxor 0x5bd1e995)) pi;
  let edges =
    List.map
      (fun (e : Graphlib.Wgraph.edge) ->
        { Graphlib.Wgraph.u = pi.(e.Graphlib.Wgraph.u); v = pi.(e.Graphlib.Wgraph.v);
          w = e.Graphlib.Wgraph.w })
      (Graphlib.Wgraph.edges g)
  in
  (Graphlib.Wgraph.make ~n edges, pi)

let certify ?(tamper = false) g ~seed =
  let l = Report.ledger () in
  (* 1. Same seed, same pipeline, twice: bit-identical result record. *)
  let run () = Core.Algorithm.run g Core.Algorithm.Diameter ~rng:(Util.Rng.create ~seed) in
  let r1 = run () and r2 = run () in
  Report.count l;
  if r1 <> r2 then
    Report.flag l ~code:"rerun-mismatch"
      (Printf.sprintf
         "same-seed reruns disagree: estimate %.1f vs %.1f, rounds %d vs %d"
         r1.Core.Algorithm.estimate r2.Core.Algorithm.estimate r1.Core.Algorithm.rounds
         r2.Core.Algorithm.rounds)
      ~data:
        [
          ("estimate_a", J.float r1.Core.Algorithm.estimate);
          ("estimate_b", J.float r2.Core.Algorithm.estimate);
          ("rounds_a", J.int r1.Core.Algorithm.rounds);
          ("rounds_b", J.int r2.Core.Algorithm.rounds);
        ];
  (* 2. Permuted node ids = permuted within-round evaluation order. *)
  let g', pi = permute g ~seed in
  let d = Graphlib.Apsp.weighted_diameter g and d' = Graphlib.Apsp.weighted_diameter g' in
  let r = Graphlib.Apsp.weighted_radius g and r' = Graphlib.Apsp.weighted_radius g' in
  let cmp name a b =
    Report.count l;
    if a <> b then
      Report.flag l ~code:"permutation-mismatch"
        (Printf.sprintf "%s moved under relabeling: %d vs %d" name a b)
        ~data:[ ("what", J.str name); ("original", J.int a); ("permuted", J.int b) ]
  in
  cmp "oracle weighted diameter" (Graphlib.Dist.to_int_exn d) (Graphlib.Dist.to_int_exn d');
  cmp "oracle weighted radius" (Graphlib.Dist.to_int_exn r) (Graphlib.Dist.to_int_exn r');
  (* BFS from the *same* physical root, through the relabeling. *)
  let tree = fst (Congest.Tree.build g ~root:0) in
  let tree' = fst (Congest.Tree.build g' ~root:pi.(0)) in
  cmp "BFS tree depth" tree.Congest.Tree.depth tree'.Congest.Tree.depth;
  let mismatched_levels = ref 0 in
  Array.iteri
    (fun v lvl ->
      if tree'.Congest.Tree.level.(pi.(v)) <> lvl then incr mismatched_levels)
    tree.Congest.Tree.level;
  Report.count l;
  if !mismatched_levels > 0 then
    Report.flag l ~code:"permutation-mismatch"
      (Printf.sprintf "BFS levels moved under relabeling on %d node(s)" !mismatched_levels)
      ~data:[ ("nodes", J.int !mismatched_levels) ];
  (* Token-flood exact APSP: an honest message-passing protocol whose
     per-round handler order the permutation actually reshuffles. *)
  let ap = Baselines.All_pairs.diameter g ~tree in
  let ap' = Baselines.All_pairs.diameter g' ~tree:tree' in
  let permuted_value =
    ap'.Baselines.All_pairs.value + if tamper then 1 else 0
  in
  cmp "token-flood APSP diameter" ap.Baselines.All_pairs.value permuted_value;
  let notes =
    [
      ("n", J.int (Graphlib.Wgraph.n g));
      ("m", J.int (Graphlib.Wgraph.m g));
      ("seed", J.int seed);
      ("tamper", J.bool tamper);
    ]
  in
  Report.finish l ~name:"determinism" ~claim ~notes
