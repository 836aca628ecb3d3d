(** The traced run: per-layer attribution recorded from the benchmark's
    own code. Every call into a layer's public function is wrapped in a
    {!Profile.Span} span (with the words it allocated), and the exact
    work counts the layers return — engine traces, Grover iterations,
    sources evaluated, oracle calls — are summed beside them.

    [Thm11] and [Wwy] ops are replayed in-process from the public
    functions their pipelines are built from ([Congest.Tree],
    [Core.Sets]/[Params]/[Inner], [Nanongkai.Approx], [Dqo.Framework],
    [Baselines.All_pairs], [Graphlib.Apsp]/[Bfs]) under
    [Harness.Runner.run]'s [?execute] hook, with the same seeds, so each
    replayed row must equal the op's row. [Recertify] needs no replay:
    the wrappers go in through [Check.Suite.sweep_report]'s [?oracle]
    and [?graph_of_job] hooks and [Harness.Runner.run]'s [?execute]. *)

type t
(** The spans and counts of one traced op (or set-up sweep). *)

val create : unit -> t

val profile : t -> Profile.Span.t

val sweep : t -> replay:bool -> Harness.Spec.t -> store:string -> unit
(** [sweep run] in-process into a fresh [store], on one domain:
    [Store.load], then [Runner.run] whose jobs are replayed layer by
    layer ([~replay:true], [Thm11]/[Wwy] cells only) or run whole by
    [Runner.run_job] ([~replay:false], the [Recertify] set-up). *)

val recertify : t -> Harness.Spec.t -> store:string -> Check.Report.report
(** [check sweep] in-process: [Store.load ~lock:false] and
    [Check.Suite.sweep_report] with timed oracle and instance hooks. *)

val metric_names : (string * string) list
(** Every per-layer metric as [(name, unit)], in output order. *)

val metrics : sweeps:(float * t) list -> ops:(float * t) list -> (string * float) list
(** Per-op means of every {!metric_names} entry over [ops], each op's
    times scaled by its host-speed factor; the two [harness.sweep_*]
    metrics are per-sweep means over [sweeps] instead. *)

val op_seconds : t -> float
(** Wall seconds of the traced op's root span. *)
