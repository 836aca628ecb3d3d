(** Declarative sweep descriptions.

    A sweep is the cross product {e algorithms × graph family ×
    size grid × seeds} under one fault profile, plus the scaling gates
    to check on the result. Specs serialize to versioned JSON
    ([qcongest-sweep-spec/v1]) so they can live in files, CI configs
    and checkpoint headers; every job has a deterministic
    content-hashed id (FNV-1a over the job's canonical description),
    so a checkpoint store can tell exactly which jobs a partially-run
    sweep still owes — independent of job order, spec file formatting,
    or additions of new sizes/seeds to the grid. *)

type algo =
  | Thm11_diameter  (** Theorem 1.1 quantum weighted diameter. *)
  | Thm11_radius
  | Classical_diameter  (** Exact token-flood APSP diameter. *)
  | Classical_radius
  | Lm_unweighted  (** Le Gall–Magniez-style unweighted diameter. *)
  | Approx_apsp  (** Nanongkai'14 [(1+ε)]-approx APSP diameter. *)
  | Three_halves  (** 3/2-approx unweighted diameter. *)
  | Sssp_two_approx  (** SSSP double-sweep 2-approximation. *)
  | Bfs_reliable
      (** BFS-tree construction under the spec's fault profile with
          the reliable-delivery wrapper (the only algorithm the fault
          profile perturbs; the others always run fault-free). *)
  | Wwy_ecc
      (** Wang–Wu–Yao quantum eccentricities ([Õ(√(nD))] rounds,
          unweighted). *)
  | Wwy_apsp
      (** Wang–Wu–Yao weighted APSP + farthest-pair search
          ([Θ̃(n)] rounds, no quantum speedup). *)

(** {1 The algorithm table} *)

type quantity =
  | Weighted_diameter
  | Weighted_radius
  | Hop_diameter  (** The unweighted diameter of the topology. *)
  | Bfs_depth  (** The depth of a BFS tree from node 0: node 0's hop eccentricity. *)

type bound =
  | Exact  (** [estimate = exact]. *)
  | Over of float  (** [exact <= estimate <= c * exact]. *)
  | Under of { num : int; den : int }
      (** [den * exact <= num * estimate] and [estimate <= exact]: an
          under-estimate by at most a factor [num/den]. *)

type info = {
  name : string;
      (** Stable kebab-case name, e.g. ["thm11-diameter"] — used in
          JSON, job ids, series labels and gate references. *)
  label : string;  (** The Table 1 row it measures, as the bench prints it. *)
  quantity : quantity;  (** The exact value its rows report. *)
  bound : bound;  (** The guarantee it states; see {!guarantee}. *)
}

val info : algo -> info
(** Every fact about an algorithm that is not how to run it (that is
    [Runner.run_job]'s match), stated once. *)

val all_algos : algo list
(** Every algorithm, in declaration order. *)

val algo_name : algo -> string
(** [(info a).name]. *)

val algo_of_name : string -> algo option

type family =
  | Ring of { cliques : int }  (** Cycle of cliques: [D_G = Θ(cliques)]. *)
  | Chain of { cliques : int }
  | Gnp of { p : float }
  | Grid
  | Hard  (** Low-hop topology with heavy weighted diameter. *)
  | Random_tree

val family_name : family -> string

val build_graph :
  family -> max_w:int -> n:int -> rng:Util.Rng.t -> Graphlib.Wgraph.t
(** The instance of [family] at target size [n], weights uniform in
    [[1, max_w]], drawn from [rng]: the family dispatch behind
    {!Runner.make_graph} and the CLI's [--family]. Raises
    [Invalid_argument] below the floors {!make} checks per size
    ([n >= 1], [max_w >= 1], [Ring] >= 3 cliques, [Chain] >= 1,
    [Gnp]'s [p] in [[0,1]], [Hard] [n >= 4]). *)

type fault_profile = {
  drop : float;
  delay : int;
  duplicate : float;
  fault_seed : int;
}

val benign : fault_profile
(** All-zero profile; jobs run on the perfect network. *)

type gate = {
  series : string;  (** An {!algo_name}. *)
  expected : float;  (** Predicted log-log round exponent vs [n]. *)
  tol : float;  (** Tolerance band half-width: pass iff
                    [|measured - expected| <= tol]. *)
  min_r2 : float;  (** Fit-quality floor; a sloppier fit fails. *)
}

type t = private {
  name : string;
  version : int;  (** Schema version; currently [1]. *)
  algos : algo list;
  family : family;
  max_w : int;
  sizes : int list;  (** Target node counts, ascending, distinct. *)
  seeds : int list;
  faults : fault_profile;
  gates : gate list;
}

val make :
  name:string ->
  ?version:int ->
  algos:algo list ->
  family:family ->
  ?max_w:int ->
  sizes:int list ->
  seeds:int list ->
  ?faults:fault_profile ->
  ?gates:gate list ->
  unit ->
  t
(** Validating constructor. Raises [Invalid_argument] on an empty
    name/algos/sizes/seeds, a name that is not a file name (it holds
    [/] or a NUL byte, or is [.] or [..]: the CLI stores a sweep as
    [<name>.jsonl] beside [<name>.sweep.json] and [<name>.check.json]
    in the artifacts directory), a size [< 2], fault probabilities outside
    [[0,1]], a negative delay, a size below a floor of
    {!build_graph}, or a gate naming a series not in [algos]. Sizes
    are sorted and de-duplicated; algos and seeds are de-duplicated
    keeping first occurrences (a duplicate cell would hash to a
    duplicate job id). *)

val geometric : n_min:int -> n_max:int -> factor:float -> int list
(** The geometric size grid [n_min, ⌈n_min·factor⌉, …] up to [n_max]
    inclusive ([n_max] is always included). Requires [factor > 1]. *)

val guarantee : algo -> estimate:float -> exact:int -> bool
(** The algorithm's {!bound} as a predicate on its estimate and the
    exact value, to within [1e-6]:
    - Theorem 1.1: [exact <= estimate <= 2.25 * exact] ([(1+ε)²] at
      [ε = 1/2]);
    - approx-APSP: [exact <= estimate <= 1.5 * exact] ([1+ε] at
      [ε = 1/2]);
    - the 2-approximation: [estimate <= exact <= 2 * estimate];
    - the 3/2-approximation: [2 * exact <= 3 * estimate] and
      [estimate <= exact];
    - every other algorithm: [estimate = exact].

    Each algorithm's own [within] flag implies it; the auditors in
    [Check] re-derive it from here, the runner never does. *)

type job = { id : string; algo : algo; n : int; seed : int }

val jobs : t -> job list
(** The full job list, in deterministic order (algo-major, then size,
    then seed). Job ids are content hashes: two specs that share an
    (algo, family, max_w, n, seed, faults) cell assign that cell the
    same id. *)

val job_id : t -> algo -> n:int -> seed:int -> string

val json : t -> Telemetry.Json.t
(** The [qcongest-sweep-spec/v1] document. *)

val to_json : t -> string
(** [json] printed; perfbench writes spec files with it. *)

val of_json : string -> (t, string) result
(** Accepts ["sizes"] either as an explicit array or as a geometric
    grid object [{"min":M,"max":X,"factor":F}]. *)

val load : path:string -> (t, string) result

(** {1 Built-in specs} *)

val ci_smoke : t
(** The CI gate sweep: Theorem 1.1 pipeline + exact classical APSP +
    3/2-approx baselines on the ring-of-cliques family at smoke sizes,
    with exponent gates calibrated to those sizes (see DESIGN.md for
    the tolerance rationale). *)

val thm11_scaling : t
(** The sweep behind the bench's Theorem 1.1 scaling table. *)

val table1_measured : t
(** One instance, every implemented Table 1 row. *)

val ecc_scaling : t
(** Wang–Wu–Yao eccentricities vs APSP on the ring family as measured
    log-log exponents, with gates calibrated at these sizes (see the
    calibration comment in the implementation: at smoke sizes the
    APSP series' search term still rivals the pipelined flood, so its
    measured exponent is sublinear; the [Θ̃(n)] claim at scale is the
    certifier's business). *)

val builtins : t list
(** The four built-in specs above, each found by its [name]. *)
