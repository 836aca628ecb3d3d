(** Metrics registry: named counters, gauges and log-bucketed
    histograms.

    A registry is a mutable table keyed by metric name; the first
    operation on a name fixes its kind and a later operation of a
    different kind raises [Invalid_argument]. Snapshots are immutable
    and mergeable, so per-substrate registries (congest rounds, qsim
    oracle calls, dqo ledger rounds) can be combined into one
    machine-readable artifact.

    Naming convention: dot-separated [subsystem.metric] (for example
    [congest.rounds], [qsim.bbht.oracle_calls], [dqo.search_rounds]);
    per-phase counters append the phase name last
    ([congest.phase.<name>.rounds]). *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Counter += 1 (creating it at 0 first). *)

val add : t -> string -> int -> unit
(** Counter += [v]; [v] must be non-negative. *)

val set_gauge : t -> string -> float -> unit
(** Gauge := [v] (last write wins). *)

val observe : t -> string -> int -> unit
(** Record one sample into a histogram with power-of-two buckets:
    sample [v >= 1] lands in the bucket of its bit length (1, 2–3,
    4–7, …); samples [<= 0] land in a dedicated underflow bucket. *)

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Immutable copy of the registry, names sorted. *)

val merge : snapshot -> snapshot -> snapshot
(** Counters and histogram buckets add; for a gauge present on both
    sides the right-hand value wins. Raises [Invalid_argument] on a
    kind mismatch for the same name. *)

val empty : snapshot

val names : snapshot -> string list

val counter_value : snapshot -> string -> int option
val gauge_value : snapshot -> string -> float option

type histogram_stats = {
  count : int;
  sum : int;
  min_v : int;  (** Meaningless when [count = 0]. *)
  max_v : int;
  buckets : (int * int) list;
      (** [(upper_bound_inclusive, count)] for non-empty buckets,
          ascending; upper bound [0] is the underflow bucket. *)
}

val histogram_stats : snapshot -> string -> histogram_stats option

val percentile : histogram_stats -> float -> int option
(** Nearest-rank percentile estimate at bucket resolution: the
    inclusive upper bound of the bucket containing sample number
    [ceil(p/100 * count)] (clamped to [1, count], so [p = 0] reports
    the first occupied bucket and [p = 100] the last). With log2
    buckets the estimate overshoots the true sample by less than 2x.
    [None] on an empty histogram; raises [Invalid_argument] when [p]
    is outside [0, 100]. Feeds the Prometheus quantile gauges and the
    live sweep monitor. *)

val to_json : snapshot -> Json.t
(** One object keyed by metric name:
    [{"congest.rounds":{"type":"counter","value":12}, ...}]; histograms
    carry [count]/[sum]/[min]/[max] and a [buckets] array of
    [{"le":N,"count":K}]. *)
