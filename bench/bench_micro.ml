(* Bechamel micro-benchmarks: one Test.make per table/figure of the
   paper, measuring the wall-clock cost of regenerating each artifact
   (at its smallest representative scale, so the whole block stays
   fast). *)

open Bechamel
open Toolkit

let gadget_input h =
  let p = Lowerbound.Gadget.params_of_h ~h in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  Lowerbound.Boolfun.input_forcing ~value:true ~s2 ~ell:p.Lowerbound.Gadget.ell

let test_table1 =
  Test.make ~name:"table1:formula-matrix"
    (Staged.stage (fun () ->
         List.iter
           (fun (r : Baselines.Table1.row) ->
             let eval = function
               | Some (c : Baselines.Table1.cell) ->
                 ignore (c.Baselines.Table1.value ~n:1_000_000 ~d:100)
               | None -> ()
             in
             eval r.Baselines.Table1.classical_ub;
             eval r.Baselines.Table1.quantum_ub;
             eval r.Baselines.Table1.classical_lb;
             eval r.Baselines.Table1.quantum_lb)
           Baselines.Table1.rows))

let test_table2 =
  let input = gadget_input 2 in
  Test.make ~name:"table2:gadget-distance-rows(h=2)"
    (Staged.stage (fun () ->
         let gd =
           Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:2 ~input ()
         in
         let c = Lowerbound.Contraction_check.contract gd in
         ignore (Lowerbound.Contraction_check.table2 gd c ~rng:(Util.Rng.create ~seed:1) ())))

let test_fig1 =
  let input = gadget_input 2 in
  Test.make ~name:"fig1:skeleton-build(h=2)"
    (Staged.stage (fun () ->
         ignore (Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:2 ~input ())))

let test_fig2 =
  let input = gadget_input 2 in
  Test.make ~name:"fig2:diameter-gap(h=2)"
    (Staged.stage (fun () ->
         let gd =
           Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:2 ~input ()
         in
         ignore (Lowerbound.Contraction_check.lemma_4_4 gd)))

let test_fig3 =
  let input = gadget_input 2 in
  Test.make ~name:"fig3:contraction(h=2)"
    (Staged.stage (fun () ->
         let gd =
           Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h:2 ~input ()
         in
         ignore (Lowerbound.Contraction_check.contract gd)))

let test_fig4 =
  let input = gadget_input 2 in
  Test.make ~name:"fig4:radius-gap(h=2)"
    (Staged.stage (fun () ->
         let gd =
           Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Radius_gadget ~h:2 ~input ()
         in
         ignore (Lowerbound.Contraction_check.lemma_4_9 gd)))

let test_thm11 =
  let g =
    Graphlib.Gen.gnp_connected ~n:20 ~p:0.25
      ~weighting:(Graphlib.Gen.Uniform { max_w = 8 })
      ~rng:(Util.Rng.create ~seed:5)
  in
  Test.make ~name:"thm1.1:quantum-diameter(n=20)"
    (Staged.stage (fun () ->
         ignore (Core.Algorithm.run g Core.Algorithm.Diameter ~rng:(Util.Rng.create ~seed:6))))

let test_thm12 =
  Test.make ~name:"thm1.2:lower-bound-chain(h=8)"
    (Staged.stage (fun () -> ignore (Lowerbound.Theorem.bound_for ~h:8)))

let sweep_graph () =
  Graphlib.Gen.gnp_connected ~n:24 ~p:0.2
    ~weighting:(Graphlib.Gen.Uniform { max_w = 8 })
    ~rng:(Util.Rng.create ~seed:11)

let test_reliable_bfs =
  let g = sweep_graph () in
  let faults = Congest.Fault.make ~seed:7 ~drop:0.1 () in
  Test.make ~name:"fault:reliable-bfs(n=24,drop=0.1)"
    (Staged.stage (fun () -> ignore (Congest.Tree.build ~faults g ~root:0)))

let benchmarks =
  Test.make_grouped ~name:"paper-artifacts"
    [ test_table1; test_table2; test_fig1; test_fig2; test_fig3; test_fig4; test_thm11;
      test_thm12; test_reliable_bfs ]

(* Loss sweep: reliable BFS-tree construction under increasing seeded
   message-drop rates. The engine's trace is deterministic for a fixed
   seed, so the table below is a measurement of the protocol (rounds /
   messages / retransmissions), not of the host machine; each row's
   trace also lands in bench_artifacts/ as JSON. *)
let loss_sweep () =
  Bench_common.subsection "Loss sweep: reliable BFS under seeded drop";
  let g = sweep_graph () in
  let base_tree, base = Congest.Tree.build g ~root:0 in
  let t =
    Util.Table.create_aligned
      ~headers:
        [ ("drop", Util.Table.Right); ("rounds", Util.Table.Right);
          ("messages", Util.Table.Right); ("dropped", Util.Table.Right);
          ("msg overhead", Util.Table.Right); ("levels ok", Util.Table.Left) ]
  in
  Util.Table.add_row t
    [ "none"; string_of_int base.Congest.Engine.rounds;
      string_of_int base.Congest.Engine.messages; "0"; "1.00x"; "yes" ];
  List.iter
    (fun drop ->
      let faults = Congest.Fault.make ~seed:7 ~drop () in
      let tree, tr = Congest.Tree.build ~faults g ~root:0 in
      let ok = tree.Congest.Tree.level = base_tree.Congest.Tree.level in
      Util.Table.add_row t
        [ Printf.sprintf "%.2f" drop; string_of_int tr.Congest.Engine.rounds;
          string_of_int tr.Congest.Engine.messages;
          string_of_int tr.Congest.Engine.dropped;
          Printf.sprintf "%.2fx"
            (float_of_int tr.Congest.Engine.messages /. float_of_int base.Congest.Engine.messages);
          (if ok then "yes" else "NO") ];
      Bench_common.write_trace_json
        ~name:(Printf.sprintf "loss_sweep_drop_%02d" (int_of_float ((drop *. 100.) +. 0.5)))
        tr)
    [ 0.0; 0.05; 0.1; 0.2; 0.3 ];
  Util.Table.print t;
  Bench_common.write_trace_json ~name:"loss_sweep_baseline" base

let run () =
  Bench_common.section "BECHAMEL MICRO-BENCHMARKS — one per table/figure";
  loss_sweep ();
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances benchmarks in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let t =
    Util.Table.create_aligned
      ~headers:
        [ ("benchmark", Util.Table.Left); ("time/run", Util.Table.Right); ("r^2", Util.Table.Right) ]
  in
  Hashtbl.iter
    (fun name ols ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) ->
          if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
          else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
          else Printf.sprintf "%.0f ns" t
        | _ -> "?"
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> Printf.sprintf "%.3f" r | None -> "?"
      in
      Util.Table.add_row t [ name; time; r2 ])
    results;
  Util.Table.print t
