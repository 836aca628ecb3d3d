module J = Telemetry.Json

let ecc_claim =
  "WWY eccentricities: every measured per-node eccentricity equals the BFS oracle, \
   and the Max/Min extremal values re-derive the diameter/radius bracket R <= D <= 2R"

let scale t v = int_of_float (Float.round (float_of_int v *. t))

let ecc ?(tamper = 1.0) g ~rng =
  let rmax = Baselines.Wwy_ecc.max_eccentricity g ~rng () in
  let rmin = Baselines.Wwy_ecc.min_eccentricity g ~rng () in
  let l = Report.ledger () in
  let oracle = Oracle.memo Oracle.direct in
  let hop_ecc = oracle.Oracle.hop_ecc g in
  let diam =
    Oracle.exact oracle (Harness.Spec.info Harness.Spec.Wwy_ecc).Harness.Spec.quantity g
  in
  let radius = Array.fold_left min Graphlib.Dist.inf hop_ecc in
  let d_est = scale tamper rmax.Baselines.Wwy_ecc.extremal in
  let r_est = scale tamper rmin.Baselines.Wwy_ecc.extremal in
  Report.count l;
  if rmax.Baselines.Wwy_ecc.exact <> diam then
    Report.flag l ~code:"oracle-mismatch"
      (Printf.sprintf "max run recorded exact=%d, oracle diameter is %d"
         rmax.Baselines.Wwy_ecc.exact diam)
      ~data:[ ("recorded", J.int rmax.Baselines.Wwy_ecc.exact); ("oracle", J.int diam) ];
  Report.count l;
  if d_est <> diam then
    Report.flag l ~code:"value"
      (Printf.sprintf "extremal max eccentricity %d, oracle diameter %d" d_est diam)
      ~data:[ ("estimate", J.int d_est); ("oracle", J.int diam) ];
  Report.count l;
  if r_est <> radius then
    Report.flag l ~code:"value"
      (Printf.sprintf "extremal min eccentricity %d, oracle radius %d" r_est radius)
      ~data:[ ("estimate", J.int r_est); ("oracle", J.int radius) ];
  (* The re-derived bracket: radius <= diameter <= 2*radius must hold
     for the pair of estimates, independent of the oracle equalities
     above. *)
  Report.count l;
  if not (r_est <= d_est && d_est <= 2 * r_est) then
    Report.flag l ~code:"bracket"
      (Printf.sprintf "estimates violate R <= D <= 2R: R=%d D=%d" r_est d_est)
      ~data:[ ("radius", J.int r_est); ("diameter", J.int d_est) ];
  (* Every per-node eccentricity certified by a measured Evaluation
     must equal the oracle's. *)
  List.iter
    (fun (v, e) ->
      Report.count l;
      let e = scale tamper e in
      if e <> hop_ecc.(v) then
        Report.flag l ~code:"per-node-ecc"
          (Printf.sprintf "measured ecc(%d)=%d, oracle says %d" v e hop_ecc.(v))
          ~data:[ ("node", J.int v); ("measured", J.int e); ("oracle", J.int hop_ecc.(v)) ])
    rmax.Baselines.Wwy_ecc.ecc_known;
  Report.count l;
  if tamper = 1.0 && not (rmax.Baselines.Wwy_ecc.ecc_ok && rmin.Baselines.Wwy_ecc.ecc_ok)
  then
    Report.flag l ~code:"flag-inconsistent" "run recorded ecc_ok=false on an untampered instance"
      ~data:
        [
          ("max_ecc_ok", J.bool rmax.Baselines.Wwy_ecc.ecc_ok);
          ("min_ecc_ok", J.bool rmin.Baselines.Wwy_ecc.ecc_ok);
        ];
  let notes =
    [
      ("diameter", J.int d_est);
      ("radius", J.int r_est);
      ("coverage", J.int rmax.Baselines.Wwy_ecc.coverage);
      ("groups", J.int rmax.Baselines.Wwy_ecc.groups);
      ("rounds_max", J.int rmax.Baselines.Wwy_ecc.rounds);
      ("rounds_min", J.int rmin.Baselines.Wwy_ecc.rounds);
    ]
  in
  Report.finish l ~name:"wwy-ecc" ~claim:ecc_claim ~notes

let apsp_claim =
  "WWY APSP: the token-flood distance matrix matches the Dijkstra oracle, the \
   farthest-pair search returns the exact weighted diameter inside the re-derived \
   [R, 2R] bracket, and the flood dominates the quantum search asymptotically"

let apsp ?(tamper = 1.0) g ~rng =
  let r = Baselines.Wwy_apsp.run g ~rng () in
  let l = Report.ledger () in
  let oracle = Oracle.memo Oracle.direct in
  let diam =
    Oracle.exact oracle (Harness.Spec.info Harness.Spec.Wwy_apsp).Harness.Spec.quantity g
  in
  let radius = Oracle.exact oracle Harness.Spec.Weighted_radius g in
  let est = scale tamper r.Baselines.Wwy_apsp.diameter_estimate in
  Report.count l;
  if r.Baselines.Wwy_apsp.exact <> diam then
    Report.flag l ~code:"oracle-mismatch"
      (Printf.sprintf "run recorded exact=%d, oracle says %d" r.Baselines.Wwy_apsp.exact diam)
      ~data:[ ("recorded", J.int r.Baselines.Wwy_apsp.exact); ("oracle", J.int diam) ];
  Report.count l;
  if est <> diam then
    Report.flag l ~code:"value"
      (Printf.sprintf "farthest-pair search found %d, oracle diameter %d" est diam)
      ~data:[ ("estimate", J.int est); ("oracle", J.int diam) ];
  Report.count l;
  if not (radius <= est && est <= 2 * radius) then
    Report.flag l ~code:"bracket"
      (Printf.sprintf "estimate violates re-derived R <= D <= 2R: R=%d D=%d" radius est)
      ~data:[ ("radius", J.int radius); ("diameter", J.int est) ];
  Report.check l
    (tamper <> 1.0 || r.Baselines.Wwy_apsp.dist_ok)
    ~code:"distance-matrix" ~data:[]
    "run recorded dist_ok=false: flood disagrees with Dijkstra";
  (* Round accounting: the total must contain the flood plus the
     search (answer broadcast on top). *)
  Report.count l;
  if r.Baselines.Wwy_apsp.rounds
     < r.Baselines.Wwy_apsp.apsp_rounds + r.Baselines.Wwy_apsp.search_rounds
  then
    Report.flag l ~code:"accounting"
      (Printf.sprintf "rounds=%d < apsp=%d + search=%d" r.Baselines.Wwy_apsp.rounds
         r.Baselines.Wwy_apsp.apsp_rounds r.Baselines.Wwy_apsp.search_rounds)
      ~data:
        [
          ("rounds", J.int r.Baselines.Wwy_apsp.rounds);
          ("apsp", J.int r.Baselines.Wwy_apsp.apsp_rounds);
          ("search", J.int r.Baselines.Wwy_apsp.search_rounds);
        ];
  let notes =
    [
      ("estimate", J.int est);
      ("exact", J.int diam);
      ("rounds", J.int r.Baselines.Wwy_apsp.rounds);
      ("apsp_rounds", J.int r.Baselines.Wwy_apsp.apsp_rounds);
      ("search_rounds", J.int r.Baselines.Wwy_apsp.search_rounds);
      ("tokens", J.int r.Baselines.Wwy_apsp.tokens_sent);
    ]
  in
  Report.finish l ~name:"wwy-apsp" ~claim:apsp_claim ~notes
