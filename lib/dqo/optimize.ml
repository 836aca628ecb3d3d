type direction = Maximize | Minimize

type 'v report = {
  best_idx : int;
  best_value : 'v;
  ledger : Cost.ledger;
  touched : int list;
  budget : int;
}

let budget_for ~rho ~delta ~c =
  if rho <= 0.0 || rho > 1.0 then invalid_arg "Optimize.budget_for: rho";
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Optimize.budget_for: delta";
  int_of_float (ceil (c *. sqrt (log (exp 1.0 /. delta) /. rho)))

(* The BBHT schedule's growth rate for the iteration bound [m]. *)
let growth = 1.2

let better_of ~direction ~compare =
  match direction with
  | Maximize -> fun a b -> compare a b > 0
  | Minimize -> fun a b -> compare a b < 0

let search ~direction ~rng ~weights ~values ~compare ~rho ~delta ?(c = 3.0) ~cost () =
  let better = better_of ~direction ~compare in
  let n = Array.length values in
  if Array.length weights <> n then invalid_arg "Optimize: weights/values length mismatch";
  if n = 0 then invalid_arg "Optimize: empty space";
  let space = Amplify.create weights in
  let budget = budget_for ~rho ~delta ~c in
  (* First-touch order with O(1) dedup: the table answers membership,
     the list records order (reversed at the end). *)
  let seen = Hashtbl.create 16 in
  let touched = ref [] in
  let touch x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.replace seen x ();
      touched := x :: !touched
    end
  in
  (* Opening move: measure the bare superposition and evaluate it. *)
  let start = Amplify.sample space ~rng in
  touch start;
  let ledger = Cost.charge_measurement Cost.empty cost in
  let rec loop best ledger m iterations_used meas_used =
    (* The measurement cap breaks the j=0 stall when the marked set is
       already empty (best is optimal) and the iteration budget cannot
       be consumed. [meas_used] equals [ledger.measurements] at every
       entry, so the cap and the ledger agree on what was spent. *)
    if iterations_used >= budget || meas_used > (2 * budget) + 10 then (best, ledger)
    else begin
      let marked x = better values.(x) values.(best) in
      let j = Util.Rng.int rng (max 1 (int_of_float (ceil m))) in
      let j = min j (budget - iterations_used) in
      let x = Amplify.measure_after space ~rng ~marked ~iterations:j in
      let ledger = Cost.charge_iterations ledger cost j in
      let ledger = Cost.charge_measurement ledger cost in
      touch x;
      let cap = 1.0 /. sqrt rho in
      if marked x then loop x ledger 1.0 (iterations_used + j) (meas_used + 1)
      else loop best ledger (Float.min (growth *. m) cap) (iterations_used + j) (meas_used + 1)
    end
  in
  (* The opening measurement was already charged to the ledger, so it
     counts against the cap too: start the counter at 1, not 0. *)
  let best, ledger = loop start ledger 1.0 0 1 in
  { best_idx = best; best_value = values.(best); ledger; touched = List.rev !touched; budget }

let exhaustive ~direction ~values ~compare ~cost =
  let n = Array.length values in
  if n = 0 then invalid_arg "Optimize.exhaustive: empty space";
  let better = better_of ~direction ~compare in
  let best = ref 0 in
  let ledger = ref Cost.empty in
  for x = 0 to n - 1 do
    ledger := Cost.charge_measurement !ledger cost;
    if better values.(x) values.(!best) then best := x
  done;
  {
    best_idx = !best;
    best_value = values.(!best);
    ledger = !ledger;
    touched = List.init n (fun i -> i);
    budget = n;
  }
