(** Live sweep progress: read-only store observation and the one-line
    TTY rendering behind [qcongest sweep run --progress] and
    [qcongest top].

    Observation goes through a read-only [Harness.Store.load ~lock:false]
    — never a locking writer open — so a monitor can watch a store owned
    by a live runner without wedging it, mutating it, or triggering a
    repair. Rows are read by {!Harness.Runner.row_of_string}, as the
    sweep report reads them: a succeeded row is ok, a timed-out row
    counts as failed and is surfaced separately, and a failed row or
    one that does not read counts as failed. *)

type stats = {
  settled : int;  (** Rows in the store. *)
  total : int;  (** Expected jobs; [0] when unknown. *)
  ok : int;
  failed : int;  (** Non-ok rows (timeouts included). *)
  timeout : int;
  skipped : int;
      (** Lines the read-only load could not keep: a partial tail
          (usually an append in progress), mid-file damage or a
          duplicate id ({!Harness.Store.dropped_lines} plus
          {!Harness.Store.quarantined_lines}). *)
}

val empty : stats

val of_rows :
  ?total:int ->
  rows:(string * string) list ->
  skipped:int ->
  unit ->
  stats
(** Classify already-loaded rows (the pure core, unit-testable without
    a filesystem). [sweep run --progress] counts the store it holds
    with it. *)

val observe : ?total:int -> path:string -> unit -> stats
(** Load the store at [path] read-only and classify its rows: how
    [qcongest top] watches a store another process owns. A missing
    file is an empty store. *)

val rate : baseline:int -> elapsed_s:float -> stats -> float
(** Rows settled per second since the watcher started: [baseline] is
    the settled count at watch start, [elapsed_s] the watch duration.
    [0.] before any progress. *)

val eta_s : baseline:int -> elapsed_s:float -> stats -> float option
(** Seconds to completion at the current {!rate}; [Some 0.] when
    already complete, [None] when the rate is zero or [total] is
    unknown. *)

val render : ?width:int -> ?baseline:int -> ?elapsed_s:float -> stats -> string
(** The status line: ["12/40 rows (30%) | 2.3 rows/s eta 12s | ok 11
    fail 1 timeout 0"]. With [?width > 0] the line is
    clipped or space-padded to exactly [width] characters, so a
    [\r]-rewriting TTY loop cleanly overwrites its previous output.
    No newline, no escape codes. *)
