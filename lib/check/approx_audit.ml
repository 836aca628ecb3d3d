module J = Telemetry.Json

let thm11_claim =
  "Theorem 1.1: quantum weighted diameter/radius estimate within the (1+eps)^2 \
   bracket of the exact value"

let objective_name = function
  | Core.Algorithm.Diameter -> "diameter"
  | Core.Algorithm.Radius -> "radius"

let thm11 ?(tamper = 1.0) g objective ~rng =
  let r = Core.Algorithm.run g objective ~rng in
  let l = Report.ledger () in
  let estimate = r.Core.Algorithm.estimate *. tamper in
  let algo =
    match objective with
    | Core.Algorithm.Diameter -> Harness.Spec.Thm11_diameter
    | Core.Algorithm.Radius -> Harness.Spec.Thm11_radius
  in
  (* Ground truth recomputed here, not read back from the run. *)
  let oracle = Oracle.exact Oracle.direct (Harness.Spec.info algo).Harness.Spec.quantity g in
  Report.count l;
  if r.Core.Algorithm.exact <> oracle then
    Report.flag l ~code:"oracle-mismatch"
      (Printf.sprintf "run recorded exact=%d, oracle says %d" r.Core.Algorithm.exact oracle)
      ~data:[ ("recorded", J.int r.Core.Algorithm.exact); ("oracle", J.int oracle) ];
  let eps = r.Core.Algorithm.params.Core.Params.eps in
  let upper = (1.0 +. eps) ** 2.0 *. float_of_int oracle in
  Report.count l;
  let within = Harness.Spec.guarantee algo ~estimate ~exact:oracle in
  if not within then
    Report.flag l ~code:"ratio-bound"
      (Printf.sprintf "estimate %.1f outside [%d, %.1f] (eps=%.3f)" estimate oracle upper eps)
      ~data:
        [
          ("estimate", J.float estimate);
          ("exact", J.int oracle);
          ("upper", J.float upper);
          ("eps", J.float eps);
        ];
  Report.count l;
  if tamper = 1.0 && r.Core.Algorithm.within_guarantee <> within then
    Report.flag l ~code:"flag-inconsistent"
      (Printf.sprintf "run claims within_guarantee=%b, audit finds %b"
         r.Core.Algorithm.within_guarantee within)
      ~data:[ ("claimed", J.bool r.Core.Algorithm.within_guarantee); ("audited", J.bool within) ];
  Report.check l r.Core.Algorithm.congestion_ok ~code:"congestion" ~data:[]
    "run exceeded its claimed per-edge word budget";
  Report.count l;
  if r.Core.Algorithm.value_discrepancy > 1e-9 then
    Report.flag l ~code:"pipeline-divergence"
      (Printf.sprintf "centralized vs distributed f(i) differ by %g"
         r.Core.Algorithm.value_discrepancy)
      ~data:[ ("discrepancy", J.float r.Core.Algorithm.value_discrepancy) ];
  let notes =
    [
      ("objective", J.str (objective_name r.Core.Algorithm.objective));
      ("estimate", J.float estimate);
      ("exact", J.int oracle);
      ("eps", J.float eps);
      ("rounds", J.int r.Core.Algorithm.rounds);
      ("good_scale", J.bool r.Core.Algorithm.good_scale);
    ]
  in
  Report.finish l
    ~name:("thm11-" ^ objective_name r.Core.Algorithm.objective)
    ~claim:thm11_claim ~notes

let three_halves_claim =
  "Table 1 (3/2-approx row): unweighted estimate within [ceil(2D/3), D]"

let three_halves ?(tamper = 1.0) g ~rng =
  let tree = fst (Congest.Tree.build g ~root:0) in
  let r = Baselines.Three_halves.diameter g ~tree ~rng in
  let l = Report.ledger () in
  let algo = Harness.Spec.Three_halves in
  let oracle = Oracle.exact Oracle.direct (Harness.Spec.info algo).Harness.Spec.quantity g in
  let estimate =
    int_of_float (Float.round (float_of_int r.Baselines.Three_halves.estimate *. tamper))
  in
  Report.count l;
  if r.Baselines.Three_halves.exact <> oracle then
    Report.flag l ~code:"oracle-mismatch"
      (Printf.sprintf "run recorded exact=%d, oracle says %d" r.Baselines.Three_halves.exact
         oracle)
      ~data:[ ("recorded", J.int r.Baselines.Three_halves.exact); ("oracle", J.int oracle) ];
  Report.count l;
  let within = Harness.Spec.guarantee algo ~estimate:(float_of_int estimate) ~exact:oracle in
  if not within then
    Report.flag l ~code:"ratio-bound"
      (Printf.sprintf "estimate %d outside [%d, %d]" estimate
         (Util.Int_math.ceil_div (2 * oracle) 3)
         oracle)
      ~data:[ ("estimate", J.int estimate); ("exact", J.int oracle) ];
  Report.count l;
  if tamper = 1.0 && r.Baselines.Three_halves.within_three_halves <> within then
    Report.flag l ~code:"flag-inconsistent"
      (Printf.sprintf "run claims within_three_halves=%b, audit finds %b"
         r.Baselines.Three_halves.within_three_halves within)
      ~data:
        [
          ("claimed", J.bool r.Baselines.Three_halves.within_three_halves);
          ("audited", J.bool within);
        ];
  let notes =
    [
      ("estimate", J.int estimate);
      ("exact", J.int oracle);
      ("sample_size", J.int r.Baselines.Three_halves.sample_size);
      ("rounds", J.int r.Baselines.Three_halves.rounds);
    ]
  in
  Report.finish l ~name:"three-halves" ~claim:three_halves_claim ~notes
