module J = Telemetry.Json

let ecc_claim =
  "WWY eccentricities: every measured per-node eccentricity equals the BFS oracle, \
   and the Max/Min extremal values re-derive the diameter/radius bracket R <= D <= 2R"

let scale t v = int_of_float (Float.round (float_of_int v *. t))

let ecc ?(tamper = 1.0) g ~rng =
  let rmax = Baselines.Wwy_ecc.max_eccentricity g ~rng () in
  let rmin = Baselines.Wwy_ecc.min_eccentricity g ~rng () in
  let violations = ref [] in
  let checked = ref 0 in
  let flag code detail data = violations := Report.violation ~code detail ~data :: !violations in
  let hop_ecc = Oracle.direct.Oracle.hop_ecc g in
  let diam = Graphlib.Dist.to_int_exn (Oracle.hop_diameter Oracle.direct g) in
  let radius = Array.fold_left min Graphlib.Dist.inf hop_ecc in
  let d_est = scale tamper rmax.Baselines.Wwy_ecc.extremal in
  let r_est = scale tamper rmin.Baselines.Wwy_ecc.extremal in
  incr checked;
  if rmax.Baselines.Wwy_ecc.exact <> diam then
    flag "oracle-mismatch"
      (Printf.sprintf "max run recorded exact=%d, oracle diameter is %d"
         rmax.Baselines.Wwy_ecc.exact diam)
      [ ("recorded", J.int rmax.Baselines.Wwy_ecc.exact); ("oracle", J.int diam) ];
  incr checked;
  if d_est <> diam then
    flag "value"
      (Printf.sprintf "extremal max eccentricity %d, oracle diameter %d" d_est diam)
      [ ("estimate", J.int d_est); ("oracle", J.int diam) ];
  incr checked;
  if r_est <> radius then
    flag "value"
      (Printf.sprintf "extremal min eccentricity %d, oracle radius %d" r_est radius)
      [ ("estimate", J.int r_est); ("oracle", J.int radius) ];
  (* The re-derived bracket: radius <= diameter <= 2*radius must hold
     for the pair of estimates, independent of the oracle equalities
     above. *)
  incr checked;
  if not (r_est <= d_est && d_est <= 2 * r_est) then
    flag "bracket"
      (Printf.sprintf "estimates violate R <= D <= 2R: R=%d D=%d" r_est d_est)
      [ ("radius", J.int r_est); ("diameter", J.int d_est) ];
  (* Every per-node eccentricity certified by a measured Evaluation
     must equal the oracle's. *)
  List.iter
    (fun (v, e) ->
      incr checked;
      let e = scale tamper e in
      if e <> hop_ecc.(v) then
        flag "per-node-ecc"
          (Printf.sprintf "measured ecc(%d)=%d, oracle says %d" v e hop_ecc.(v))
          [ ("node", J.int v); ("measured", J.int e); ("oracle", J.int hop_ecc.(v)) ])
    rmax.Baselines.Wwy_ecc.ecc_known;
  incr checked;
  if tamper = 1.0 && not (rmax.Baselines.Wwy_ecc.ecc_ok && rmin.Baselines.Wwy_ecc.ecc_ok)
  then
    flag "flag-inconsistent" "run recorded ecc_ok=false on an untampered instance"
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
  Report.certificate ~name:"wwy-ecc" ~claim:ecc_claim ~checked:!checked ~notes
    (List.rev !violations)

let apsp_claim =
  "WWY APSP: the token-flood distance matrix matches the Dijkstra oracle, the \
   farthest-pair search returns the exact weighted diameter inside the re-derived \
   [R, 2R] bracket, and the flood dominates the quantum search asymptotically"

let apsp ?(tamper = 1.0) g ~rng =
  let r = Baselines.Wwy_apsp.run g ~rng () in
  let violations = ref [] in
  let checked = ref 0 in
  let flag code detail data = violations := Report.violation ~code detail ~data :: !violations in
  let wecc = Oracle.direct.Oracle.weighted_ecc g in
  let diam = Graphlib.Dist.to_int_exn (Oracle.weighted_diameter Oracle.direct g) in
  let radius = Array.fold_left min Graphlib.Dist.inf wecc in
  let est = scale tamper r.Baselines.Wwy_apsp.diameter_estimate in
  incr checked;
  if r.Baselines.Wwy_apsp.exact <> diam then
    flag "oracle-mismatch"
      (Printf.sprintf "run recorded exact=%d, oracle says %d" r.Baselines.Wwy_apsp.exact diam)
      [ ("recorded", J.int r.Baselines.Wwy_apsp.exact); ("oracle", J.int diam) ];
  incr checked;
  if est <> diam then
    flag "value"
      (Printf.sprintf "farthest-pair search found %d, oracle diameter %d" est diam)
      [ ("estimate", J.int est); ("oracle", J.int diam) ];
  incr checked;
  if not (radius <= est && est <= 2 * radius) then
    flag "bracket"
      (Printf.sprintf "estimate violates re-derived R <= D <= 2R: R=%d D=%d" radius est)
      [ ("radius", J.int radius); ("diameter", J.int est) ];
  incr checked;
  if tamper = 1.0 && not r.Baselines.Wwy_apsp.dist_ok then
    flag "distance-matrix" "run recorded dist_ok=false: flood disagrees with Dijkstra"
      [];
  (* Round accounting: the total must contain the flood plus the
     search (answer broadcast on top). *)
  incr checked;
  if r.Baselines.Wwy_apsp.rounds
     < r.Baselines.Wwy_apsp.apsp_rounds + r.Baselines.Wwy_apsp.search_rounds
  then
    flag "accounting"
      (Printf.sprintf "rounds=%d < apsp=%d + search=%d" r.Baselines.Wwy_apsp.rounds
         r.Baselines.Wwy_apsp.apsp_rounds r.Baselines.Wwy_apsp.search_rounds)
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
  Report.certificate ~name:"wwy-apsp" ~claim:apsp_claim ~checked:!checked ~notes
    (List.rev !violations)
