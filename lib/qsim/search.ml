type 'a result = {
  found : 'a option;
  oracle_calls : int;
  measurements : int;
}

(* The BBHT schedule's growth rate for the iteration bound [m]. *)
let growth = 1.2

let bbht ~rng ~init ~marked ?max_oracle_calls () =
  let n = State.dim init in
  let budget =
    match max_oracle_calls with
    | Some b -> b
    | None -> int_of_float (9.0 *. sqrt (float_of_int n)) + 10
  in
  let sqrt_n = sqrt (float_of_int n) in
  let rec attempt m calls meas =
    if calls >= budget then { found = None; oracle_calls = calls; measurements = meas }
    else begin
      let j = Util.Rng.int rng (max 1 (int_of_float (ceil m))) in
      let j = min j (budget - calls) in
      let final = Grover.run ~init ~marked ~iterations:j in
      let x = State.measure final ~rng in
      if marked x then { found = Some x; oracle_calls = calls + j; measurements = meas + 1 }
      else attempt (Float.min (growth *. m) sqrt_n) (calls + j) (meas + 1)
    end
  in
  attempt 1.0 0 0

let optimum ~rng ~n ~value ?(budget_factor = 9.0) () ~better =
  if n < 1 then invalid_arg "Search.optimum";
  let init = State.uniform n in
  let budget = int_of_float (budget_factor *. sqrt (float_of_int n)) + 10 in
  let start = Util.Rng.int rng n in
  let rec improve best_idx best_v calls meas =
    if calls >= budget then
      { found = Some (best_idx, best_v); oracle_calls = calls; measurements = meas }
    else begin
      let marked x = better (value x) best_v in
      let r = bbht ~rng ~init ~marked ~max_oracle_calls:(budget - calls) () in
      let calls = calls + r.oracle_calls and meas = meas + r.measurements in
      match r.found with
      | Some x -> improve x (value x) calls meas
      | None ->
        (* Budget exhausted inside bbht, or genuinely nothing better. *)
        { found = Some (best_idx, best_v); oracle_calls = calls; measurements = meas }
    end
  in
  improve start (value start) 0 1

let maximum ~rng ~n ~value ~compare ?budget_factor () =
  optimum ~rng ~n ~value ?budget_factor () ~better:(fun a b -> compare a b > 0)

let minimum ~rng ~n ~value ~compare ?budget_factor () =
  optimum ~rng ~n ~value ?budget_factor () ~better:(fun a b -> compare a b < 0)
