(* Theorem 1.2 / 4.2 / 4.8 benches: the numeric lower-bound chain, its
   Ω̃(n^{2/3}) scaling in the gadget size, and the Server-model
   simulation's communication accounting. *)

let lb_scaling () =
  Bench_common.section
    "THEOREM 1.2 — lower-bound scaling: T = Omega(sqrt(2^s l)/(hB)) ~ n^{2/3}/polylog";
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("h", Util.Table.Right);
          ("n", Util.Table.Right);
          ("Q^sv = sqrt(2^s l)/2", Util.Table.Right);
          ("B", Util.Table.Right);
          ("T lower", Util.Table.Right);
          ("n^{2/3}", Util.Table.Right);
          ("n^{2/3}/log^2 n", Util.Table.Right);
        ]
  in
  (* The per-h bounds are independent (h <= 4 runs real protocols on
     the gadget); fan them out and keep the table/fit order. *)
  let bounds =
    Util.Domain_pool.map_list
      (fun h ->
        ( h,
          if h <= 4 then Lowerbound.Theorem.bound_measured ~h
          else Lowerbound.Theorem.bound_for ~h ))
      [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
  in
  let points = ref [] in
  List.iter
    (fun (h, b) ->
      if h >= 8 then
        points := (float_of_int b.Lowerbound.Theorem.n, b.Lowerbound.Theorem.t_lower) :: !points;
      Util.Table.add_row t
        [
          string_of_int h;
          string_of_int b.Lowerbound.Theorem.n;
          Bench_common.fmt_large b.Lowerbound.Theorem.q_sv;
          string_of_int b.Lowerbound.Theorem.bandwidth;
          Bench_common.fmt_large b.Lowerbound.Theorem.t_lower;
          Bench_common.fmt_large b.Lowerbound.Theorem.n_two_thirds;
          Bench_common.fmt_large b.Lowerbound.Theorem.n_two_thirds_over_log2;
        ])
    bounds;
  Util.Table.print t;
  let slope, r2 = Bench_common.fit_exponent (List.rev !points) in
  Bench_common.note
    "log-log slope of T_lower vs n (h >= 8): %.3f (r^2 = %.3f; paper: 2/3 minus polylog drag)"
    slope r2;
  (* The clean exponent: q_sv vs n, without the 1/(h·B) log factors.
     Fit the asymptotic tail — at small h the Θ(h·2^h) path nodes still
     dominate n over the 2^{3h/2} cliques. *)
  let qpts =
    Util.Domain_pool.map_list
      (fun h ->
        let b = Lowerbound.Theorem.bound_for ~h in
        (float_of_int b.Lowerbound.Theorem.n, b.Lowerbound.Theorem.q_sv))
      [ 12; 14; 16; 18; 20; 22; 24 ]
  in
  let qslope, qr2 = Bench_common.fit_exponent qpts in
  Bench_common.note "log-log slope of Q^sv vs n (h >= 12): %.3f (r^2 = %.3f; paper: exactly 2/3)"
    qslope qr2

let server_sim () =
  Bench_common.section "LEMMA 4.1 — Server-model simulation of real protocols on the gadget";
  let t =
    Util.Table.create
      ~headers:
        [ "h"; "protocol"; "rounds T"; "chargeable msgs"; "2hT bound"; "per-round max";
          "<= 2h"; "schedule valid" ]
  in
  (* One gadget + two protocol runs per h, all independent: compute the
     row data across domains, append rows in h order afterwards. *)
  let row_groups =
    Util.Domain_pool.map_list
    (fun h ->
      let p = Lowerbound.Gadget.params_of_h ~h in
      let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
      let input =
        Lowerbound.Boolfun.random_input ~rng:(Bench_common.rng h) ~s2 ~ell:p.Lowerbound.Gadget.ell
          ~p:0.5
      in
      let gd = Lowerbound.Gadget.build ~variant:Lowerbound.Gadget.Diameter_gadget ~h ~input () in
      let max_t = Lowerbound.Server_model.max_simulation_rounds gd in
      let validity = Lowerbound.Server_model.check_schedule gd ~rounds:max_t in
      let protocols =
        [
          ( "ttl-flood from a_1",
            fun ~on_message ->
              let start = Lowerbound.Gadget.id_of gd (Lowerbound.Gadget.A 1) in
              let proto : (int, int) Congest.Engine.protocol =
                {
                  name = "ttl-flood";
                  size_words = (fun _ -> 1);
                  init =
                    (fun view ->
                      if view.Congest.Node_view.id = start then
                        ( max_t - 1,
                          Congest.Engine.send
                            (Array.to_list
                               (Array.map
                                  (fun (v, _) -> (v, max_t - 1))
                                  view.Congest.Node_view.neighbors)) )
                      else (-1, Congest.Engine.no_action));
                  on_round =
                    (fun view ~round:_ s ~inbox ->
                      let best =
                        Congest.Engine.Inbox.fold (fun a ~src:_ ~w:_ m -> max a m) (-1) inbox
                      in
                      if best > 0 && best - 1 > s then
                        ( best - 1,
                          Congest.Engine.send
                            (Array.to_list
                               (Array.map
                                  (fun (v, _) -> (v, best - 1))
                                  view.Congest.Node_view.neighbors)) )
                      else (max s best, Congest.Engine.no_action));
                }
              in
              let _, trace =
                Congest.Engine.run
                  ~sink:(Telemetry.Events.of_on_message on_message)
                  gd.Lowerbound.Gadget.graph proto
              in
              trace.Congest.Engine.rounds );
          ( "bounded wavefront (Alg2-style)",
            fun ~on_message ->
              (* Distance wavefront from the tree root on unit topology,
                 truncated at max_t-1 rounds. *)
              let topo = Graphlib.Wgraph.with_unit_weights gd.Lowerbound.Gadget.graph in
              let root = Lowerbound.Gadget.id_of gd (Lowerbound.Gadget.Tree { depth = 0; pos = 1 }) in
              let proto : (Graphlib.Dist.t, int) Congest.Engine.protocol =
                {
                  name = "wavefront";
                  size_words = (fun _ -> 1);
                  init =
                    (fun view ->
                      if view.Congest.Node_view.id = root then
                        ( 0,
                          Congest.Engine.send
                            (Array.to_list
                               (Array.map (fun (v, _) -> (v, 0)) view.Congest.Node_view.neighbors))
                        )
                      else (Graphlib.Dist.inf, Congest.Engine.no_action));
                  on_round =
                    (fun view ~round s ~inbox ->
                      let cand =
                        Congest.Engine.Inbox.fold (fun a ~src:_ ~w:_ m -> min a (m + 1)) s inbox
                      in
                      if cand < s && cand = round && cand < max_t - 1 then
                        ( cand,
                          Congest.Engine.send
                            (Array.to_list
                               (Array.map
                                  (fun (v, _) -> (v, cand))
                                  view.Congest.Node_view.neighbors)) )
                      else (min cand s, Congest.Engine.no_action));
                }
              in
              let _, trace =
                Congest.Engine.run ~sink:(Telemetry.Events.of_on_message on_message) topo proto
              in
              trace.Congest.Engine.rounds );
        ]
      in
      List.map
        (fun (name, run) ->
          let count = Lowerbound.Server_model.count_protocol gd ~run in
          [
            string_of_int h;
            name;
            string_of_int count.Lowerbound.Server_model.protocol_rounds;
            string_of_int count.Lowerbound.Server_model.chargeable_messages;
            string_of_int (2 * h * count.Lowerbound.Server_model.protocol_rounds);
            string_of_int count.Lowerbound.Server_model.per_round_max;
            Util.Table.cell_bool count.Lowerbound.Server_model.bound_2h_per_round;
            Util.Table.cell_bool validity.Lowerbound.Server_model.valid;
          ])
        protocols)
    [ 2; 4; 6 ]
  in
  List.iter (List.iter (Util.Table.add_row t)) row_groups;
  Util.Table.print t;
  Bench_common.note
    "Every round's Alice/Bob -> server traffic stays within 2h messages, so any";
  Bench_common.note
    "T-round protocol costs O(T*h*B) Server-model communication — the reduction's";
  Bench_common.note "engine (combined with Q^sv(F) = Omega(sqrt(2^s l)) it yields Theorem 4.2)."

let degree_table () =
  Bench_common.section
    "LEMMAS 4.5-4.7 — approximate degree machinery (the communication bound's source)";
  Bench_common.note "VER is a promise restriction of GDT: %b"
    (Lowerbound.Boolfun.ver_is_promise_of_gdt ());
  let t =
    Util.Table.create_aligned
      ~headers:
        [
          ("k", Util.Table.Right);
          ("Chebyshev OR-approx degree", Util.Table.Right);
          ("EXACT deg_{1/3}(OR_k) (LP)", Util.Table.Right);
          ("sqrt(k)", Util.Table.Right);
          ("1/3-represents OR", Util.Table.Left);
        ]
  in
  (* The k = 64 LP solve dominates this section; run the per-k columns
     (Chebyshev degree, LP exact degree, validity check) across domains. *)
  let ks = [ 4; 16; 64; 256; 1024; 4096 ] in
  let rows =
    Util.Domain_pool.map_list
      (fun k ->
        let p = Lowerbound.Approx_degree.or_approx ~n:k in
        let exact =
          if k <= 64 then
            string_of_int (Lowerbound.Approx_degree.exact_deg_or ~k ~eps:(1.0 /. 3.0))
          else "-"
        in
        [
          string_of_int k;
          string_of_int p.Lowerbound.Approx_degree.degree;
          exact;
          Printf.sprintf "%.1f" (sqrt (float_of_int k));
          Util.Table.cell_bool (Lowerbound.Approx_degree.or_approx_is_valid ~n:k);
        ])
      ks
  in
  List.iter (Util.Table.add_row t) rows;
  Util.Table.print t;
  Bench_common.note
    "EXACT column: the LP-computed minimum degree of any polynomial within 1/3 of";
  Bench_common.note
    "OR_k pointwise (Minsky-Papert symmetrization makes this THE approximate degree";
  Bench_common.note
    "of OR_k) — it certifies the Lemma 4.6 LOWER bound too, not just the Chebyshev";
  Bench_common.note "upper bound.";
  let pts =
    List.map
      (fun k ->
        ( float_of_int k,
          float_of_int (Lowerbound.Approx_degree.or_approx ~n:k).Lowerbound.Approx_degree.degree ))
      ks
  in
  let slope, r2 = Bench_common.fit_exponent pts in
  Bench_common.note "log-log slope of degree vs k: %.3f (r^2 = %.3f; Lemma 4.6: 1/2)" slope r2

let run () =
  lb_scaling ();
  degree_table ();
  server_sim ()
