type 'v setup = {
  weights : float array;
  values : 'v array;
  rho : float;
  init_rounds : int;
}

type ('v, 'e) t = {
  name : string;
  direction : Optimize.direction;
  compare : 'v -> 'v -> int;
  setup : unit -> 'v setup;
  evaluate : int -> 'e option;
  eval_rounds : 'e -> int;
  setup_cost : int -> int;
  calibrate : int list -> int list;
  finalize : int -> int;
}

let make ~name ~direction ~compare ~setup ~evaluate ~eval_rounds
    ?(setup_cost = fun _ -> 0) ?(calibrate = fun touched -> touched)
    ?(finalize = fun _ -> 0) () =
  { name; direction; compare; setup; evaluate; eval_rounds; setup_cost; calibrate; finalize }

type ('v, 'e) outcome = {
  algo : string;
  best_idx : int;
  best_value : 'v;
  budget : int;
  touched : int list;
  evals : (int * 'e) list;
  t_setup : int;
  t_eval_bound : int;
  ledger : Cost.ledger;
  answer_rounds : int;
  rounds : int;
}

let zero_cost = { Cost.setup_rounds = 0; eval_rounds = 0 }

let run ~rng ?(delta = 0.1) ?(c = 3.0) a =
  let s = a.setup () in
  (* The stochastic search itself charges a zero-cost ledger: only its
     iteration/measurement counts matter, the real per-call rounds are
     not known until the calibrated Evaluations below have run. *)
  let report =
    Optimize.search ~direction:a.direction ~rng ~weights:s.weights ~values:s.values
      ~compare:a.compare ~rho:s.rho ~delta ~c ~cost:zero_cost ()
  in
  let best_idx = report.Optimize.best_idx in
  let t_setup = a.setup_cost best_idx in
  let evals =
    List.filter_map
      (fun i -> Option.map (fun e -> (i, e)) (a.evaluate i))
      (a.calibrate report.Optimize.touched)
  in
  let t_eval_bound = List.fold_left (fun acc (_, e) -> max acc (a.eval_rounds e)) 0 evals in
  let per_call = { Cost.setup_rounds = t_setup; eval_rounds = t_eval_bound } in
  let counts = report.Optimize.ledger in
  let ledger = Cost.with_init s.init_rounds in
  let ledger = Cost.charge_iterations ledger per_call counts.Cost.grover_iterations in
  let ledger =
    let rec meas l k = if k <= 0 then l else meas (Cost.charge_measurement l per_call) (k - 1) in
    meas ledger counts.Cost.measurements
  in
  let answer_rounds = a.finalize best_idx in
  {
    algo = a.name;
    best_idx;
    best_value = report.Optimize.best_value;
    budget = report.Optimize.budget;
    touched = report.Optimize.touched;
    evals;
    t_setup;
    t_eval_bound;
    ledger;
    answer_rounds;
    rounds = Cost.total_rounds ledger + answer_rounds;
  }

let reference ?cost a =
  let s = a.setup () in
  let cost =
    match cost with
    | Some c -> c
    | None -> { Cost.setup_rounds = a.setup_cost 0; eval_rounds = 0 }
  in
  Optimize.exhaustive ~direction:a.direction ~values:s.values ~compare:a.compare ~cost

let conserved o =
  let per = o.t_setup + o.t_eval_bound in
  let l = o.ledger in
  l.Cost.search_rounds
  = (l.Cost.grover_iterations * 2 * per) + (l.Cost.measurements * per)
  && o.rounds = l.Cost.init_rounds + l.Cost.search_rounds + o.answer_rounds
