(* The quantum substrate in isolation: real state-vector Grover search
   next to the closed-form outcome model that the distributed
   simulation samples from, plus the Lemma 3.1 optimizer.

   Run with:  dune exec examples/grover_playground.exe *)

let () =
  let rng = Util.Rng.create ~seed:4 in

  (* 1. Amplitude amplification: state vector vs closed form. *)
  Printf.printf "1. success probability after j Grover iterations (N = 64, k = 4 marked)\n";
  Printf.printf "   %-4s %-22s %-22s\n" "j" "state-vector" "sin^2((2j+1)asin(sqrt(k/N)))";
  let init = Qsim.State.uniform 64 in
  let marked i = i mod 16 = 3 in
  for j = 0 to 7 do
    let final = Qsim.Grover.run ~init ~marked ~iterations:j in
    let sv = Qsim.State.mass final ~marked in
    let cf = Qsim.Grover.success_probability_closed_form ~rho:(4.0 /. 64.0) ~iterations:j in
    Printf.printf "   %-4d %-22.6f %-22.6f\n" j sv cf
  done;

  (* 2. BBHT with unknown marked count: O(sqrt(N/k)) oracle calls. *)
  Printf.printf "\n2. BBHT oracle calls (average of 50 runs)\n";
  List.iter
    (fun (n, k) ->
      let init = Qsim.State.uniform n in
      let total = ref 0 in
      for _ = 1 to 50 do
        let r = Qsim.Search.bbht ~rng ~init ~marked:(fun i -> i < k) () in
        total := !total + r.Qsim.Search.oracle_calls
      done;
      Printf.printf "   N = %-5d k = %-3d avg calls = %-6.1f  sqrt(N/k) = %.1f\n" n k
        (float_of_int !total /. 50.0)
        (sqrt (float_of_int n /. float_of_int k)))
    [ (256, 1); (256, 16); (1024, 1); (1024, 64) ];

  (* 3. Durr-Hoyer maximum finding. *)
  Printf.printf "\n3. Durr-Hoyer maximum over N = 512 random values (20 runs)\n";
  let hits = ref 0 and calls = ref 0 in
  for t = 1 to 20 do
    let values = Array.init 512 (fun i -> (i * 2654435761) lxor (t * 97) land 0xfffff) in
    let r = Qsim.Search.maximum ~rng ~n:512 ~value:(fun i -> values.(i)) ~compare () in
    (match r.Qsim.Search.found with
    | Some (_, v) when v = Array.fold_left max 0 values -> incr hits
    | _ -> ());
    calls := !calls + r.Qsim.Search.oracle_calls
  done;
  Printf.printf "   found true max %d/20 times, avg %.1f oracle calls (9*sqrt(512) = %.0f budget)\n"
    !hits
    (float_of_int !calls /. 20.0)
    (9.0 *. sqrt 512.0);

  (* 4. The Lemma 3.1 optimizer with round accounting — the object the
     distributed algorithm actually uses. *)
  Printf.printf "\n4. Lemma 3.1 optimizer: maximize f over 300 elements, Setup = 120 rounds,\n";
  Printf.printf "   Evaluation = 40 rounds, promise rho = 1/300, delta = 0.1\n";
  let values = Array.init 300 (fun i -> (i * 7919) mod 10007) in
  let truth = Array.fold_left max 0 values in
  let report =
    Dqo.Optimize.search ~direction:Dqo.Optimize.Maximize ~rng ~weights:(Array.make 300 1.0)
      ~values ~compare ~rho:(1.0 /. 300.0) ~delta:0.1
      ~cost:{ Dqo.Cost.setup_rounds = 120; eval_rounds = 40 }
      ()
  in
  Printf.printf "   found %d (true max %d) -- %s\n" report.Dqo.Optimize.best_value truth
    (if report.Dqo.Optimize.best_value = truth then "correct" else "wrong");
  Printf.printf "   %s\n"
    (Format.asprintf "%a" Dqo.Cost.pp report.Dqo.Optimize.ledger);
  let exhaustive =
    Dqo.Optimize.exhaustive ~direction:Dqo.Optimize.Maximize ~values ~compare
      ~cost:{ Dqo.Cost.setup_rounds = 120; eval_rounds = 40 }
  in
  Printf.printf "   classical exhaustive would cost %d rounds (every element evaluated)\n"
    (Dqo.Cost.total_rounds exhaustive.Dqo.Optimize.ledger)
