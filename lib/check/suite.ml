module E = Telemetry.Events

type config = {
  seed : int;
  n : int;
  trials : int;
  h : int;
  negative_control : bool;
  only : string list;
}

let default =
  { seed = 42; n = 48; trials = 200; h = 2; negative_control = false; only = [] }

(* The same ring-of-cliques family the CI sweep runs on: weighted,
   connected, with a diameter the quantum pipeline actually has to
   work for. *)
let instance cfg =
  Harness.Runner.make_graph Harness.Spec.ci_smoke ~n:cfg.n ~seed:cfg.seed

let congest cfg =
  let g = instance cfg in
  let sink, drain = E.collector () in
  let _tree, trace = Congest.Tree.build g ~root:0 ~sink in
  let events = drain () in
  let events =
    if cfg.negative_control then
      (* A self-message crosses no edge on any graph, and the extra
         event also breaks replay consistency — two independent
         reasons the auditor must reject. *)
      events @ [ E.Message { round = 1; src = 0; dst = 0; words = 1 } ]
    else events
  in
  [ Congest_audit.audit_events ~trace ~graph:g events ]

let approx cfg =
  let g = instance cfg in
  let tamper = if cfg.negative_control then 10.0 else 1.0 in
  let rng k = Util.Rng.create ~seed:(cfg.seed + k) in
  [
    Approx_audit.thm11 ~tamper g Core.Algorithm.Diameter ~rng:(rng 1);
    Approx_audit.thm11 ~tamper g Core.Algorithm.Radius ~rng:(rng 2);
    Approx_audit.three_halves ~tamper g ~rng:(rng 3);
  ]

let ecc cfg =
  let g = instance cfg in
  let tamper = if cfg.negative_control then 10.0 else 1.0 in
  [ Wwy_audit.ecc ~tamper g ~rng:(Util.Rng.create ~seed:(cfg.seed + 4)) ]

let apsp cfg =
  let g = instance cfg in
  let tamper = if cfg.negative_control then 10.0 else 1.0 in
  [ Wwy_audit.apsp ~tamper g ~rng:(Util.Rng.create ~seed:(cfg.seed + 5)) ]

let gadget cfg =
  [ Gadget_audit.certify ~h:cfg.h ~flip_f:cfg.negative_control ~seed:cfg.seed () ]

let determinism cfg =
  [ Determinism_audit.certify ~tamper:cfg.negative_control (instance cfg) ~seed:cfg.seed ]

let amplify cfg =
  [ Amplify_audit.certify ~trials:cfg.trials ~sabotage:cfg.negative_control ~seed:cfg.seed () ]

let certifiers =
  [
    ("congest", congest);
    ("approx", approx);
    ("gadget", gadget);
    ("determinism", determinism);
    ("amplify", amplify);
    ("ecc", ecc);
    ("apsp", apsp);
  ]

let certifier_names = List.map fst certifiers

let run cfg =
  List.iter
    (fun name ->
      if not (List.mem name certifier_names) then
        invalid_arg
          (Printf.sprintf "Check.Suite.run: unknown certifier %S (expected one of %s)"
             name
             (String.concat ", " certifier_names)))
    cfg.only;
  let selected name = cfg.only = [] || List.mem name cfg.only in
  let certificates =
    List.concat_map
      (fun (name, f) -> if selected name then f cfg else [])
      certifiers
  in
  { Report.certificates }

let sweep_report ?oracle ?graph_of_job spec store =
  { Report.certificates = [ Sweep_audit.audit_store ?oracle ?graph_of_job spec store ] }

(* Deliberately not part of [run]'s certifier list: the chaos suite
   spins real sweeps and burns a real wall-clock deadline budget, so
   it gets its own entry point ([qcongest check chaos]) instead of
   slowing every [check run]. *)
let chaos ?(seed = 11) ?(deadline_s = 0.05) ?(negative_control = false) () =
  { Report.certificates = Resilience_audit.certify ~seed ~deadline_s ~negative_control () }
