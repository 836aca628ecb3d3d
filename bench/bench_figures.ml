(* Figures 1-4: the lower-bound gadget constructions.

   Figure 1: the skeleton network (tree + paths).
   Figure 2: the diameter gadget with input-dependent weights.
   Figure 3: its contraction and the Lemma 4.4 gap.
   Figure 4: the radius gadget and the Lemma 4.9 gap. *)

let fig1 () =
  Bench_common.section "FIGURE 1 — skeleton network G[V_S]";
  let t =
    Util.Table.create
      ~headers:
        [ "h"; "s"; "ell"; "paths m"; "n (formula)"; "n (built)"; "structural"; "D_G" ]
  in
  List.iter
    (fun h ->
      let p = Lowerbound.Gadget.params_of_h ~h in
      let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
      let input =
        Lowerbound.Boolfun.input_forcing ~value:true ~s2 ~ell:p.Lowerbound.Gadget.ell
      in
      let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h ~input () in
      let n_built = Graphlib.Wgraph.n gd.Lowerbound.Gadget.graph in
      let d_g =
        if h <= 4 then string_of_int (Bench_common.d_unweighted gd.Lowerbound.Gadget.graph)
        else begin
          (* Exact all-BFS is too heavy at h=6; report the 2-sweep lower
             bound (exact on trees, near-exact here). *)
          let lb =
            Graphlib.Bfs.double_sweep_lower_bound gd.Lowerbound.Gadget.graph
              ~rng:(Bench_common.rng 1)
          in
          Printf.sprintf ">=%d (2-sweep)" lb
        end
      in
      Util.Table.add_row t
        [
          string_of_int h;
          string_of_int p.Lowerbound.Gadget.s;
          string_of_int p.Lowerbound.Gadget.ell;
          string_of_int p.Lowerbound.Gadget.m;
          string_of_int p.Lowerbound.Gadget.expected_n;
          string_of_int n_built;
          Util.Table.cell_bool (Lowerbound.Gadget.structural_ok gd);
          d_g;
        ])
    [ 2; 4; 6 ];
  Util.Table.print t;
  Bench_common.note "n = (2^{h+1}-1) + (2s+ell)(2^h+2) + 2*2^s = Theta(2^{3h/2});";
  Bench_common.note "D_G = Theta(h) = Theta(log n), the regime of Theorems 4.2/4.8."

let gap_table ~variant ~lemma name =
  let t =
    Util.Table.create
      ~headers:
        [ "h"; "input"; "F"; "measured (G' metric)"; "YES thresh"; "NO thresh"; "gap holds";
          "(3/2-1/4)-approx separates" ]
  in
  List.iter
    (fun h ->
      let p = Lowerbound.Gadget.params_of_h ~h in
      let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
      let inputs =
        [
          ("forced YES", Lowerbound.Boolfun.input_forcing ~value:true ~s2 ~ell:p.Lowerbound.Gadget.ell);
          ("forced NO", Lowerbound.Boolfun.input_forcing ~value:false ~s2 ~ell:p.Lowerbound.Gadget.ell);
          ( "random p=0.7",
            Lowerbound.Boolfun.random_input ~rng:(Bench_common.rng (h * 31)) ~s2
              ~ell:p.Lowerbound.Gadget.ell ~p:0.7 );
          ( "random p=0.3",
            Lowerbound.Boolfun.random_input ~rng:(Bench_common.rng (h * 37)) ~s2
              ~ell:p.Lowerbound.Gadget.ell ~p:0.3 );
        ]
      in
      List.iter
        (fun (label, input) ->
          let gd = Lowerbound.Gadget.build ~variant ~h ~input () in
          let gap = lemma gd in
          Util.Table.add_row t
            [
              string_of_int h;
              label;
              Util.Table.cell_bool gap.Lowerbound.Contraction_check.f_value;
              string_of_int gap.Lowerbound.Contraction_check.measured;
              string_of_int gap.Lowerbound.Contraction_check.yes_threshold;
              string_of_int gap.Lowerbound.Contraction_check.no_threshold;
              Util.Table.cell_bool gap.Lowerbound.Contraction_check.ok;
              Util.Table.cell_bool (gap.Lowerbound.Contraction_check.distinguishable 0.25);
            ])
        inputs)
    [ 2; 4 ];
  Bench_common.subsection name;
  Util.Table.print t

let fig2_fig3 () =
  Bench_common.section "FIGURES 2 & 3 — diameter gadget and its contraction (Lemma 4.4)";
  gap_table ~variant:Lowerbound.Gadget.Diameter_gadget
    ~lemma:Lowerbound.Contraction_check.lemma_4_4
    "D_{G',w} vs F(x,y): YES => D <= max{2a,b}+n, NO => D >= min{a+b,3a}";
  Bench_common.note "alpha = n^2, beta = 2n^2, so the additive n of Lemma 4.3 is negligible";
  Bench_common.note "and any (3/2-eps)-approximation separates the two cases — the reduction";
  Bench_common.note "of Theorem 4.2.";
  (* Contraction structure check (Figure 3's picture). *)
  let p = Lowerbound.Gadget.params_of_h ~h:4 in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  let input =
    Lowerbound.Boolfun.random_input ~rng:(Bench_common.rng 5) ~s2 ~ell:p.Lowerbound.Gadget.ell
      ~p:0.5
  in
  let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:4 ~input () in
  let c = Lowerbound.Contraction_check.contract gd in
  Bench_common.note "Figure 3 structure at h=4: |G'| = %d (= 2*2^s + 2s + ell + 1 = %d), ok=%b"
    (Graphlib.Wgraph.n c.Lowerbound.Contraction_check.g')
    ((2 * s2) + (2 * p.Lowerbound.Gadget.s) + p.Lowerbound.Gadget.ell + 1)
    (Lowerbound.Contraction_check.structure_ok gd c)

let fig4 () =
  Bench_common.section "FIGURE 4 — radius gadget (Lemma 4.9)";
  gap_table ~variant:Lowerbound.Gadget.Radius_gadget
    ~lemma:Lowerbound.Contraction_check.lemma_4_9
    "R_{G',w} vs F'(x,y): YES => R <= max{2a,b}+n, NO => R >= min{a+b,3a}";
  (* The eccentricity structure: every node outside {a_i} has ecc >= 3a,
     so the radius is decided by the a_i alone. *)
  Bench_common.subsection "eccentricity structure of G' (h=4, random input)";
  let p = Lowerbound.Gadget.params_of_h ~h:4 in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  let input =
    Lowerbound.Boolfun.random_input ~rng:(Bench_common.rng 77) ~s2 ~ell:p.Lowerbound.Gadget.ell
      ~p:0.5
  in
  let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Radius_gadget ~h:4 ~input () in
  let c = Lowerbound.Contraction_check.contract gd in
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("category", Util.Table.Left);
          ("min eccentricity in G'", Util.Table.Right);
          ("claimed lower bound", Util.Table.Right);
          ("holds", Util.Table.Left);
        ]
  in
  List.iter
    (fun (r : Lowerbound.Contraction_check.ecc_row) ->
      Util.Table.add_row t
        [
          r.Lowerbound.Contraction_check.category;
          string_of_int r.Lowerbound.Contraction_check.min_ecc;
          (match r.Lowerbound.Contraction_check.claimed_lower with
          | Some lb -> Printf.sprintf "%d (= 3a)" lb
          | None -> "(radius candidate)");
          Util.Table.cell_bool r.Lowerbound.Contraction_check.ok;
        ])
    (Lowerbound.Contraction_check.fig4_eccentricities gd c);
  Util.Table.print t

let dot_artifacts () =
  Bench_common.subsection "Graphviz artifacts (render with `dot -Tsvg`)";
  let p = Lowerbound.Gadget.params_of_h ~h:2 in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  let input = Lowerbound.Boolfun.input_forcing ~value:true ~s2 ~ell:p.Lowerbound.Gadget.ell in
  let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:2 ~input () in
  let color v =
    match Lowerbound.Gadget.side_of gd.Lowerbound.Gadget.kind_of.(v) with
    | Lowerbound.Gadget.Server_side -> Some "lightgrey"
    | Lowerbound.Gadget.Alice_side -> Some "lightblue"
    | Lowerbound.Gadget.Bob_side -> Some "lightsalmon"
  in
  let label v =
    match gd.Lowerbound.Gadget.kind_of.(v) with
    | Lowerbound.Gadget.Tree { depth; pos } -> Printf.sprintf "t%d,%d" depth pos
    | Lowerbound.Gadget.Path { path; pos } -> Printf.sprintf "p%d,%d" path pos
    | Lowerbound.Gadget.A i -> Printf.sprintf "a%d" i
    | Lowerbound.Gadget.B i -> Printf.sprintf "b%d" i
    | Lowerbound.Gadget.A_router { j; bit } -> Printf.sprintf "a%d^%d" j bit
    | Lowerbound.Gadget.B_router { j; bit } -> Printf.sprintf "b%d^%d" j bit
    | Lowerbound.Gadget.A_star j -> Printf.sprintf "a%d*" j
    | Lowerbound.Gadget.B_star j -> Printf.sprintf "b%d*" j
    | Lowerbound.Gadget.A_zero -> "a0"
  in
  let fig2 =
    Telemetry.Export.write_artifact ~name:"fig2_gadget_h2.dot"
      (Graphlib.Io.to_dot ~name:"fig2" ~label ~color ~weight_label:false
         gd.Lowerbound.Gadget.graph)
  in
  let c = Lowerbound.Contraction_check.contract gd in
  let fig3 =
    Telemetry.Export.write_artifact ~name:"fig3_contracted_h2.dot"
      (Graphlib.Io.to_dot ~name:"fig3" ~weight_label:true c.Lowerbound.Contraction_check.g')
  in
  Bench_common.note "wrote %s (%d nodes) and %s (%d nodes)" fig2
    (Graphlib.Wgraph.n gd.Lowerbound.Gadget.graph)
    fig3
    (Graphlib.Wgraph.n c.Lowerbound.Contraction_check.g')

let run () =
  fig1 ();
  fig2_fig3 ();
  fig4 ();
  dot_artifacts ()
