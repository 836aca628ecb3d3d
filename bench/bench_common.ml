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
