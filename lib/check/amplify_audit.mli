(** DQO amplification audit (Lemma 3.1 empirics).

    The simulation samples measurement outcomes from the closed-form
    amplification distribution instead of evolving a state vector;
    everything downstream (the Theorem 1.1 outer/inner searches)
    trusts that distribution. This audit holds it to its own target
    frequencies:

    - per [(ρ, iterations)] cell, the empirical frequency of a marked
      outcome over seeded trials must sit within a binomial
      [z]-interval of [sin²((2j+1)·asin √ρ)];
    - the end-to-end Dürr–Høyer search ([Dqo.Optimize.search
      ~direction:Maximize] under the Lemma 3.1 budget) must find a true
      maximum with frequency at least [1 − δ] (minus binomial slack).

    Violation codes: [frequency] and [search-success]. Zero trials (or
    too few for the interval to mean anything, [< 30]) make the
    certificate [Inconclusive] — the deliberate exit-3 path. *)

val certify : ?trials:int -> ?sabotage:bool -> seed:int -> unit -> Report.certificate
(** [trials] (default 400) seeded samples in each of three
    [(ρ, space size)] cells, [ρ] from 0.04 to 0.25 on skewed weights.
    [?sabotage] is the
    negative control: outcomes are drawn at 0 amplification iterations
    but still graded against the amplified target — for small [ρ] the
    frequencies are far apart, so a sound audit must reject. *)
