(** The benchmark's three workloads: their seeded instance pools, the
    benchmark's own exact oracle, and the op that certifies each result
    against that oracle, the pinned golden rows and this run's earlier
    rows for the same cell. *)

type kind =
  | Thm11  (** [sweep run] of one instance's Theorem 1.1 diameter + radius cells. *)
  | Wwy  (** [sweep run] of one instance's Wang–Wu–Yao eccentricity + APSP cells. *)
  | Recertify  (** [check sweep] over a store written during set-up. *)

val all : kind list
val name : kind -> string
val of_name : string -> kind option

val default_seed : int
(** The workload seed whose pool cells have golden rows. *)

val held_out_seed : int
(** A seed kept out of tuning and goldens, for checking a claim on
    instances nobody optimized against. *)

(** {1 The benchmark's oracle} *)

type reference = {
  n_actual : int;
  diameter : int;  (** Exact weighted diameter ([Graphlib.Apsp]). *)
  radius : int;  (** Exact weighted radius. *)
  hop_diameter : int;  (** Exact unweighted diameter ([Graphlib.Bfs]). *)
}

val reference : Harness.Spec.t -> n:int -> seed:int -> reference

(** {1 Rows} *)

type row = {
  algo : Harness.Spec.algo;
  n : int;
  seed : int;
  n_actual : int;
  rounds : int;  (** Simulated CONGEST rounds: must never change. *)
  estimate : float;
  exact : int;
  ratio : float;
  within : bool;
  note : string;
}

val parse_row : string -> (row, string) result
(** A [qcongest-sweep-row/v2] row; [Error] unless its status is [ok]. *)

val store_rows : string -> (row list, string) result
(** Every row of the sweep store at this path, parsed. *)

val same_rows : row list -> row list -> (unit, string) result
(** The same cells with the same fields, in any order. *)

(** {1 Golden rows} *)

type goldens

val load_goldens : string -> goldens
(** Raises [Failure] on a malformed file. *)

val goldens_seed : goldens -> int

val goldens_to_json : seed:int -> row list -> string
(** The goldens file for [seed], pinning the given rows. *)

val with_rounds : goldens -> (int -> int) -> goldens
(** Every pinned rounds count mapped through [f] (negative controls). *)

(** {1 Ops} *)

type ctx = {
  kind : kind;
  cli : string;  (** The [qcongest] executable. *)
  work : string;  (** Work directory: specs, stores, artifacts, op output. *)
  env : string array;
  specs : Harness.Spec.t array;
      (** Op [j] runs [specs.(j mod length)]: one instance each for
          [Thm11]/[Wwy], the audited store's spec for [Recertify]. Pool
          cell [i] of workload seed [s] is spec seed [100 s + i], so
          pools of different seeds are disjoint. *)
  spec_files : string array;
  refs : (int * int, reference) Hashtbl.t;  (** By instance [(n, seed)]. *)
  goldens : goldens option;  (** Only under the pinned seed. *)
  seen : (string, row) Hashtbl.t;  (** This run's first row per cell. *)
  store : string;  (** [Recertify]: the store every op audits. *)
}

val prepare :
  kind ->
  seed:int ->
  cli:string ->
  work:string ->
  domains:int ->
  goldens:goldens option ->
  seen:(string, row) Hashtbl.t ->
  ctx
(** Set-up: build the instance pool and its oracle answers, write the
    spec files and, for [Recertify], run the [sweep run] that writes
    the audited store and certify its rows. [seen] carries row identity
    across set-ups of one run. Raises [Failure] when the set-up sweep
    fails or a stored row does not certify. [work] must exist, with an
    [artifacts] subdirectory. *)

type failure =
  | Wrong of string
      (** An output the program got wrong: it disagrees with the oracle,
          the golden rows or this run's earlier row for the cell, or the
          op did not complete. *)
  | Missed of string
      (** A correct row whose randomized algorithm missed its stated
          guarantee (Theorem 1.1 holds with high probability, not
          always). The op fails; the program's output is not wrong. *)

val check_row : ctx -> row -> (unit, failure) result
(** The row's instance size, exact answer and ratio against the oracle,
    and its [within] flag against the algorithm's stated guarantee
    applied to its estimate; then its rounds, estimate, exact and within
    against the golden row when goldens apply (a cell with no golden row
    is wrong); then identity with this run's earlier row for the same
    cell; last, the guarantee itself. *)

type outcome = { op : Op.t; rows : row list; verdict : (unit, failure) result }

val run_op : ctx -> int -> outcome
(** Op [j]: one [qcongest] process, then certification of every row it
    wrote ([Thm11]/[Wwy]). A [Recertify] op writes no rows and passes
    only when [check sweep] exits 0 with every stored row audited. *)
