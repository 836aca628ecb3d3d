(** Search algorithms on top of Grover iterations, with oracle-query
    accounting.

    [bbht] is Boyer–Brassard–Høyer–Tapp search with an unknown number
    of marked items ([O(√(N/k))] expected oracle calls). [maximum] /
    [minimum] are Dürr–Høyer optimum finding ([O(√N)] expected oracle
    calls). Both evolve the real state vector; query counts are what
    the benchmarks compare against the [√] scaling and against the
    closed-form [dqo] model. *)

type 'a result = {
  found : 'a option;
  oracle_calls : int;  (** Grover iterations performed. *)
  measurements : int;
}

val bbht :
  rng:Util.Rng.t ->
  init:State.t ->
  marked:(int -> bool) ->
  ?max_oracle_calls:int ->
  unit ->
  int result
(** Search for any marked element starting from [init]. Returns
    [found = None] when the call budget (default [9√N + 10]) runs out —
    with a marked element present this has vanishing probability; with
    none it is certain. The iteration bound grows by 1.2 per miss. *)

val maximum :
  rng:Util.Rng.t ->
  n:int ->
  value:(int -> 'v) ->
  compare:('v -> 'v -> int) ->
  ?budget_factor:float ->
  unit ->
  (int * 'v) result
(** Dürr–Høyer maximum finding over [f : [0,N) -> 'v] starting from the
    uniform superposition. [found] is [Some (argmax, max)] (always
    present; optimality holds with constant probability per run,
    amplified by the caller as needed). *)

val minimum :
  rng:Util.Rng.t ->
  n:int ->
  value:(int -> 'v) ->
  compare:('v -> 'v -> int) ->
  ?budget_factor:float ->
  unit ->
  (int * 'v) result
