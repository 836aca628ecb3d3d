(** Chunked fan-out over OCaml 5 [Domain] workers.

    [run n f] evaluates [f 0 .. f (n-1)] across at most [jobs] domains
    and returns the results indexed exactly as [Array.init n f] would —
    work is split into contiguous chunks, one per worker, and chunks
    are joined in index order, so the output is *deterministic and
    independent of [jobs]* as long as [f] is a pure function of its
    index (the determinism contract; a QCheck test pins jobs=1 ≡
    jobs=N).

    The job count resolves as: the [?jobs] argument if given, else the
    [QCONGEST_JOBS] environment variable, else {!set_default_jobs},
    else [Domain.recommended_domain_count ()]. With one job the work
    runs inline on the calling domain — no domain is ever spawned, so
    [jobs = 1] is always a safe fallback.

    Callers must not nest pool calls inside a worker's [f]. This holds
    by construction: the sweep runner and the bench sections are the
    only callers, each fanning out whole jobs or trials, and nothing
    below a job (graph oracles included) calls the pool. *)

val env_var : string
(** ["QCONGEST_JOBS"]. *)

val set_default_jobs : int -> unit
(** Process-wide default used when neither [?jobs] nor the environment
    variable is set. Raises on [jobs < 1]. *)

val validate_env : unit -> (int option, string) result
(** Eager [QCONGEST_JOBS] validation for process startup: [Ok None]
    when unset, [Ok (Some j)] when it parses to a positive worker
    count, [Error message] otherwise. The CLI calls this before
    dispatching so a typo fails fast with a clear usage error instead
    of an [Invalid_argument] deep inside the first sweep batch. *)

val default_jobs : unit -> int
(** The resolved default job count (always [>= 1]). Raises
    [Invalid_argument] if [QCONGEST_JOBS] is set but not a positive
    integer (see {!validate_env}). *)

val run : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] (same chunking and merge order). *)
