(** Round-cost bookkeeping for the quantum search (Lemma 3.1).

    In the framework, each Grover iteration applies Setup, Evaluation,
    a free threshold comparison, and the two inverses — [2(T₁+T₂)]
    rounds; each measured candidate is then re-evaluated classically
    (Setup + Evaluation once, [T₁+T₂]); Initialization runs once
    ([T₀]). *)

type per_call = { setup_rounds : int; eval_rounds : int }

type ledger = {
  init_rounds : int;
  grover_iterations : int;
  measurements : int;
  search_rounds : int;  (** Rounds charged to amplification + checks. *)
}

val empty : ledger
val with_init : int -> ledger

val charge_iterations : ledger -> per_call -> int -> ledger
(** [j] Grover iterations: [j × 2 × (setup + eval)] rounds. *)

val charge_measurement : ledger -> per_call -> ledger
(** One measurement + classical re-evaluation: [setup + eval] rounds. *)

val total_rounds : ledger -> int
val merge : ledger -> ledger -> ledger

val pp : Format.formatter -> ledger -> unit
