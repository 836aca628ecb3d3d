(* Quickstart: approximate the weighted diameter and radius of a random
   network with the quantum CONGEST algorithm of Wu & Yao (PODC 2022)
   and compare against the exact values and the classical baseline.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Util.Rng.create ~seed:2022 in
  (* A 48-node weighted network: a ring of cliques, the family whose
     unweighted diameter D_G stays small while n grows — exactly the
     regime where Theorem 1.1 beats the classical Ω̃(n) barrier. *)
  let g =
    Graphlib.Gen.cliques_cycle ~cliques:6 ~clique_size:8
      ~weighting:(Graphlib.Gen.Uniform { max_w = 20 })
      ~rng
  in
  Printf.printf "network: n = %d, m = %d, D_G (unweighted) = %d, max weight = %d\n\n"
    (Graphlib.Wgraph.n g) (Graphlib.Wgraph.m g)
    (Graphlib.Dist.to_int_exn (Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g)))
    (Graphlib.Wgraph.max_weight g);

  (* The paper's algorithm (Theorem 1.1), one run per objective. *)
  let d = Core.Algorithm.run g Core.Algorithm.Diameter ~rng in
  let r = Core.Algorithm.run g Core.Algorithm.Radius ~rng in
  Printf.printf "quantum (1+o(1))-approximation:\n%s\n\n%s\n\n"
    (Format.asprintf "%a" Core.Algorithm.pp_result d)
    (Format.asprintf "%a" Core.Algorithm.pp_result r);

  (* Classical exact baseline on the same instance. *)
  let tree, _ = Congest.Tree.build g ~root:0 in
  let cd = Baselines.All_pairs.diameter g ~tree in
  Printf.printf "classical exact APSP baseline: diameter = %d in %d measured rounds\n"
    cd.Baselines.All_pairs.value cd.Baselines.All_pairs.rounds;

  (* Round-cost breakdown of the quantum run. *)
  Printf.printf "\nquantum round breakdown (diameter run):\n";
  List.iter (fun (name, rounds) -> Printf.printf "  %-40s %d\n" name rounds) d.Core.Algorithm.breakdown;
  Printf.printf "\nouter search: %d Grover iterations, %d measurements over %d candidate sets\n"
    d.Core.Algorithm.outer_iterations d.Core.Algorithm.outer_measurements
    d.Core.Algorithm.params.Core.Params.num_sets
