(** Append-only JSONL checkpoint store for sweep runs.

    One line per completed job: a single-line JSON object whose ["id"]
    field is the job's content hash ({!Spec.job_id}), framed on disk
    with a trailing ["crc"] member holding the FNV-1a64 checksum of
    the logical row (the [qcongest-sweep-row/v2] on-disk format;
    unframed v1 lines still load). The format is crash- and
    corruption-tolerant by construction:

    - {b appends} are a single [write] of one framed line followed by
      a flush (and, in [~fsync:true] mode, an [fsync]), so a kill can
      at worst leave one partial trailing line;
    - {b loads} verify every line's checksum. A damaged {e mid-file}
      line (bit flip, spliced foreign row, truncated row, duplicate
      id) is {e quarantined} to the sibling [*.corrupt.jsonl] — the
      valid rows around it survive. An unterminated {e final} line is
      a partial append and is truncated. Either repair rewrites the
      store to exactly the surviving rows with an atomic tmp-rename
      ({!Telemetry.Export.write_file_atomic});
    - {b a lock file} ([path ^ ".lock"], stamped with the holder pid)
      keeps two concurrent runner processes from interleaving appends;
      stale locks left by dead processes are stolen silently;
    - {b resume} is a set-membership test: {!mem} tells the runner
      which job ids are already settled, so re-running an interrupted
      sweep executes exactly the missing jobs. Because each row (and
      its framing) is a deterministic function of its job, an
      interrupted-then-resumed sweep ends with a store whose row
      {e set} — and therefore the report generated from it — is
      byte-identical to an uninterrupted run's.

    {2 Lock protocol}

    Every store path has exactly two access modes, and the mode is
    chosen at {!load} time:

    - {b writer} ([load] with [~lock] true, the default): creates
      [path ^ ".lock"] with [O_EXCL] and stamps it with the caller's
      pid. Writers are the only handles allowed to {!append} and the
      only handles that {e repair} — quarantining corrupt mid-file
      lines to [*.corrupt.jsonl], truncating a partial tail, and
      atomically rewriting the store. A second process attempting a
      writer open sees the stamp: a {e live} holder raises {!Locked};
      a {e dead} holder's lock is stale and stolen silently (so a
      SIGKILLed run never wedges the next one). The same pid
      re-opens freely and [close] releases only its own stamp.
    - {b read-only} ([load ~lock:false]): no lock is taken, no stale
      lock is stolen, and {e no byte on disk is ever written} — no
      repair rewrite, no corrupt-sibling append. Damaged lines are
      still counted ({!dropped_lines}/{!quarantined_lines}) and the
      surviving rows are all visible in memory, but what looks like a
      partial trailing line may be a healthy append in flight on the
      owner's side, so judgement (and repair) is deferred to the next
      writer. {!append} on such a handle raises [Invalid_argument].
      This is what [qcongest top] and [Profile.Monitor] use against
      stores a live runner owns.

    The invariant the two modes preserve: at most one process writes
    a store at a time, and observers never mutate (or steal the lock
    of) a store they do not own — a monitor pointed at a store a live
    sweep owns reports progress instead of racing the sweep's lock. *)

type t

exception Locked of { lock_path : string; holder : int }
(** Raised by {!load} when a different live process holds the lock. *)

val load : ?fsync:bool -> ?lock:bool -> path:string -> unit -> t
(** Open (or create empty) the store at [path], quarantining corrupt
    mid-file lines and truncating a partial tail as described above.
    [~fsync] (default [false]) makes every subsequent {!append} — and
    any repair rewrite — force data to disk before returning.
    [~lock] (default [true]) acquires the single-runner lock, raising
    {!Locked} if a different live process holds it; the same process
    may re-open freely. [~lock:false] opens a {e read-only} handle per
    the lock protocol above: it never locks, repairs or writes, and
    {!append} on it raises [Invalid_argument]. Raises [Sys_error] only
    on genuine I/O failure, never on corruption. *)

val close : t -> unit
(** Release the lock (if this handle acquired it). Idempotent; a
    process that exits without closing leaves a stale lock that the
    next runner steals. *)

val path : t -> string

val corrupt_path : t -> string
(** The sibling file quarantined corrupt lines are appended to:
    ["runs/x.jsonl"] gets ["runs/x.corrupt.jsonl"] (a non-[.jsonl]
    path gets [".corrupt"] appended). *)

val append : t -> id:string -> string -> unit
(** Persist one row. [row] must be a single-line JSON object, ending
    in ['}'], whose ["id"] field equals [id] (checked; raises
    [Invalid_argument] otherwise, as does a duplicate or
    embedded-newline row). Durability: the line has left the process
    (written and flushed to the OS) when [append] returns; it is
    guaranteed on disk only when the store was opened with
    [~fsync:true], which pays one [fsync] per append. *)

val mem : t -> string -> bool
(** Is a row with this job id present? *)

val find : t -> string -> string option
(** The logical row for a job id (checksum framing stripped). *)

val rows : t -> (string * string) list
(** All [(id, row)] pairs in insertion order, framing stripped. *)

val count : t -> int

val dropped_lines : t -> int
(** Partial trailing lines truncated by {!load} (0 or 1). *)

val quarantined_lines : t -> int
(** Corrupt mid-file lines moved to {!corrupt_path} by {!load}
    (0 after a clean shutdown). *)
