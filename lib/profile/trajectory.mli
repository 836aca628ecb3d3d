(** Persistent perf trajectory: one measured point per bench case per
    run, appended forever.

    The bench's perf section distills each case into a
    [qcongest-perf-row/v1] row — median-of-reps wall seconds, a
    case-defined throughput, and enough provenance to interpret the
    number later (host fingerprint, git revision, timestamp). Rows are
    appended to [<artifacts>/trajectory/perf.jsonl] (the append-only
    history a plot reads) and the current run is also written whole to
    [<artifacts>/trajectory/latest.json] (the atomic snapshot
    {!Gate} compares against a pinned baseline). *)

type row = {
  case : string;  (** Bench case name, e.g. ["flood_ring"]. *)
  n : int;  (** Problem size the case ran at. *)
  reps : int;  (** Repetitions distilled into this row. *)
  wall_s : float;  (** Median wall seconds over the reps. *)
  throughput : float;  (** Case-defined work per second (0 if n/a). *)
  host : string;  (** {!host_fingerprint} of the measuring machine. *)
  git_rev : string;  (** Source revision measured (12-hex or "unknown"). *)
  unix_s : float;  (** Measurement time, seconds since the epoch. *)
}

val schema : string
(** ["qcongest-perf-row/v1"]. *)

val host_fingerprint : unit -> string
(** ["<hostname>/<os>/<word-size>bit/<cores>cores"] — enough to spot a
    cross-machine comparison before trusting a regression verdict. *)

val git_rev : ?root:string -> unit -> string
(** HEAD of the repository at [?root] (default ["."]), resolved by
    reading [.git] directly (symbolic refs and packed refs handled);
    first 12 hex digits, or ["unknown"] outside a repository. *)

val make :
  ?host:string ->
  ?rev:string ->
  ?unix_s:float ->
  case:string ->
  n:int ->
  reps:int ->
  wall_s:float ->
  throughput:float ->
  unit ->
  row
(** Row constructor; provenance defaults to the current environment
    ({!host_fingerprint}, {!git_rev}, [Unix.gettimeofday]). *)

val to_json : row -> Telemetry.Json.t
(** One JSON object; printed, it is one JSONL history line. *)

val of_json : Telemetry.Json.t -> row option
(** [None] unless [case]/[n]/[wall_s] are present and well-typed;
    optional fields default ([reps] 1, strings ["unknown"], numerics
    0). Rows from a future schema still parse if those fields keep
    their meaning. *)

(** {1 Persistence} *)

val dir : ?root:string -> unit -> string
(** [<artifacts>/trajectory], created if missing; [?root] overrides
    the artifacts root exactly like
    {!Telemetry.Export.artifacts_dir}. *)

val history_path : ?root:string -> unit -> string
(** [<dir>/perf.jsonl] — the append-only history. *)

val latest_path : ?root:string -> unit -> string
(** [<dir>/latest.json] — the current-run snapshot (JSON array). *)

val append : ?root:string -> row list -> string
(** Append rows to the history file (one line each); returns its
    path. *)

val write_latest : ?root:string -> row list -> string
(** Atomically replace the latest-run snapshot; returns its path. *)

val read : path:string -> row list
(** Rows from a perf file of either shape — JSONL history or JSON
    array snapshot. Unparseable lines/items are skipped; a missing
    file is empty, not an error (the gate turns "no baseline" into
    an Inconclusive verdict, not a crash). *)
