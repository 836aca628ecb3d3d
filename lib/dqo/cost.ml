type per_call = { setup_rounds : int; eval_rounds : int }

type ledger = {
  init_rounds : int;
  grover_iterations : int;
  measurements : int;
  search_rounds : int;
}

let empty = { init_rounds = 0; grover_iterations = 0; measurements = 0; search_rounds = 0 }

let with_init r = { empty with init_rounds = r }

let charge_iterations l c j =
  if j < 0 then invalid_arg "Cost.charge_iterations";
  {
    l with
    grover_iterations = l.grover_iterations + j;
    search_rounds = l.search_rounds + (j * 2 * (c.setup_rounds + c.eval_rounds));
  }

let charge_measurement l c =
  {
    l with
    measurements = l.measurements + 1;
    search_rounds = l.search_rounds + c.setup_rounds + c.eval_rounds;
  }

let total_rounds l = l.init_rounds + l.search_rounds

let merge a b =
  {
    init_rounds = a.init_rounds + b.init_rounds;
    grover_iterations = a.grover_iterations + b.grover_iterations;
    measurements = a.measurements + b.measurements;
    search_rounds = a.search_rounds + b.search_rounds;
  }

let pp ppf l =
  Format.fprintf ppf "init=%d search=%d (iterations=%d measurements=%d) total=%d" l.init_rounds
    l.search_rounds l.grover_iterations l.measurements (total_rounds l)
