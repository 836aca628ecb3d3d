module J = Telemetry.Json

let claim =
  "Lemma 3.1: empirical amplification success frequency matches the closed-form \
   target; the budgeted Duerr-Hoyer search succeeds with probability >= 1 - delta"

(* 4.5-sigma binomial interval: over the handful of cells a CI run
   audits, a false alarm is a ~1e-5 event, while the violations this
   certifier exists to catch (sampling from the wrong distribution)
   sit tens of sigmas out. *)
let z = 4.5

let default_cells = [ (0.04, 50); (0.1, 40); (0.25, 32) ]

(* A skewed weight vector with marked mass exactly [rho]: indices
   [0 .. k-1] are marked, weights within each block proportional to
   [i + 1] then scaled to the block's target mass. *)
let build_space ~rho ~size =
  let k = max 1 (int_of_float (Float.round (rho *. float_of_int size))) in
  let k = min k (size - 1) in
  let w = Array.init size (fun i -> float_of_int (i + 1)) in
  let block_sum lo hi = (* inclusive bounds *)
    let s = ref 0.0 in
    for i = lo to hi do s := !s +. w.(i) done;
    !s
  in
  let marked_sum = block_sum 0 (k - 1) and rest_sum = block_sum k (size - 1) in
  let rho = Float.min 0.99 (Float.max 0.01 rho) in
  Array.iteri
    (fun i x ->
      w.(i) <- (if i < k then rho *. x /. marked_sum else (1.0 -. rho) *. x /. rest_sum))
    w;
  (Dqo.Amplify.create w, fun i -> i < k)

let certify ?(trials = 400) ?(cells = default_cells) ?(sabotage = false) ~seed () =
  let violations = ref [] in
  let checked = ref 0 in
  let flag code detail data = violations := Report.violation ~code detail ~data :: !violations in
  let cell_notes = ref [] in
  if trials >= 30 then begin
    List.iteri
      (fun idx (rho, size) ->
        let space, marked = build_space ~rho ~size in
        let target_j = Dqo.Amplify.optimal_iterations space ~marked in
        let p = Dqo.Amplify.success_probability space ~marked ~iterations:target_j in
        let sample_j = if sabotage then 0 else target_j in
        let rng = Util.Rng.create ~seed:(seed + (31 * idx)) in
        let hits = ref 0 in
        for _ = 1 to trials do
          if marked (Dqo.Amplify.measure_after space ~rng ~marked ~iterations:sample_j)
          then incr hits
        done;
        let freq = float_of_int !hits /. float_of_int trials in
        let tol =
          (z *. sqrt (p *. (1.0 -. p) /. float_of_int trials))
          +. (1.0 /. float_of_int trials)
        in
        incr checked;
        if Float.abs (freq -. p) > tol then
          flag "frequency"
            (Printf.sprintf
               "cell rho=%.3f j=%d: empirical %.3f vs target %.3f (tol %.3f, %d trials)"
               (Dqo.Amplify.mass space ~marked)
               target_j freq p tol trials)
            [
              ("rho", J.float (Dqo.Amplify.mass space ~marked));
              ("iterations", J.int target_j);
              ("empirical", J.float freq);
              ("target", J.float p);
              ("tol", J.float tol);
              ("trials", J.int trials);
            ];
        cell_notes :=
          J.obj
            [
              ("rho", J.float (Dqo.Amplify.mass space ~marked));
              ("iterations", J.int target_j);
              ("target", J.float p);
              ("empirical", J.float freq);
            ]
          :: !cell_notes)
      cells;
    (* End-to-end: the budgeted search must land on a true maximum with
       frequency >= 1 - delta. *)
    let n = 32 in
    let values = Array.init n (fun i -> i) in
    let weights = Array.make n 1.0 in
    let delta = 0.1 in
    let search_trials = max 30 (trials / 4) in
    let rng = Util.Rng.create ~seed:(seed + 7919) in
    let hits = ref 0 in
    for _ = 1 to search_trials do
      let r =
        Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights ~values
          ~compare:Int.compare ~rho:(1.0 /. float_of_int n) ~delta
          ~cost:{ Dqo.Cost.setup_rounds = 0; eval_rounds = 0 }
          ()
      in
      if r.Dqo.Optimize.best_value = n - 1 then incr hits
    done;
    let freq = float_of_int !hits /. float_of_int search_trials in
    let floor_p = 1.0 -. delta in
    let tol =
      (z *. sqrt (floor_p *. delta /. float_of_int search_trials))
      +. (1.0 /. float_of_int search_trials)
    in
    incr checked;
    if freq < floor_p -. tol then
      flag "search-success"
        (Printf.sprintf "search succeeded at %.3f < 1 - delta = %.3f (tol %.3f, %d trials)"
           freq floor_p tol search_trials)
        [
          ("empirical", J.float freq);
          ("floor", J.float floor_p);
          ("tol", J.float tol);
          ("trials", J.int search_trials);
        ];
    cell_notes :=
      J.obj [ ("search_success", J.float freq); ("delta", J.float delta) ] :: !cell_notes
  end;
  let notes =
    [
      ("trials", J.int trials);
      ("sabotage", J.bool sabotage);
      ("cells", J.arr (List.rev !cell_notes));
    ]
  in
  Report.certificate ~name:"dqo-amplification" ~claim ~checked:!checked ~notes
    (List.rev !violations)
