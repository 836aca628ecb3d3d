(** Exporters turning event streams into on-disk artifacts.

    All artifacts land under the directory returned by
    {!artifacts_dir} unless an explicit path is given. Formats:

    - {b JSONL} — one {!Events.to_json} object per line; the lossless
      form, sufficient to replay trace counters.
    - {b Chrome trace-event JSON} — loadable in [chrome://tracing] or
      Perfetto ([ui.perfetto.dev]). Simulated rounds are mapped onto
      the time axis (1 round = 1 ms = 1000 µs of trace time);
      [Span_begin]/[Span_end] become ["B"]/["E"] duration events,
      faults become instant events, per-round activity becomes an
      ["active_nodes"] counter track.
    - {b timeline CSV} — per-round aggregates
      ([round,active,messages,words,delivers,faults]).
    - {b heatmap CSV} — per-directed-edge load
      ([src,dst,messages,words]), the per-edge congestion picture. *)

val artifacts_dir : ?override:string -> unit -> string
(** Resolve the artifacts directory and create it (and parents) if
    missing. Priority: [override] argument, then the [ARTIFACTS_DIR]
    environment variable (if non-empty), then ["bench_artifacts"]. *)

val mkdir_p : string -> unit

val write_file : path:string -> string -> unit

val write_file_atomic : ?fsync:bool -> path:string -> string -> unit
(** Write to [path ^ ".tmp"] then rename over [path]: readers never
    observe a half-written file. [~fsync] (default [false]) forces the
    data to disk before the rename, upgrading crash-atomicity from
    "process kill" to "power loss". Used for every checkpoint/report
    rewrite in the sweep harness. *)

val write_artifact : ?dir:string -> name:string -> string -> string
(** [write_artifact ~name content] writes [content]
    (newline-terminated) as [<artifacts_dir>/<name>] and returns the
    full path — the one shared JSON/artifact dump helper the bench
    sections and harness all route through. [?dir] overrides the
    directory resolution exactly like {!artifacts_dir}. *)

val write_events_jsonl : path:string -> Events.t list -> unit

val chrome_trace : ?process_name:string -> Events.t list -> Json.t
(** The trace-event JSON document:
    [{"traceEvents":[...],"displayTimeUnit":"ms"}]. Span events are
    balanced by construction: a [Span_begin] with no matching
    [Span_end] (an interrupted run — deadline, round limit, crash)
    gets a synthetic ["E"] close at the last observed position, and a
    stray [Span_end] is dropped instead of emitted unmatched; every
    such repair is surfaced as a ["trace_warning"] instant event with
    a structured [code]/[span] payload. *)

val prometheus : ?namespace:string -> Metrics.snapshot -> string
(** Prometheus text exposition (version 0.0.4) of a metrics snapshot
    — the scrape format of [trace --profile]'s [trace.metrics.prom]
    and [sweep run --progress]'s [<spec>.metrics.prom].
    Registry names map dots to underscores under the [?namespace]
    prefix (default ["qcongest"]); counters and gauges expose one
    sample each, histograms expose cumulative [_bucket{le="..."}]
    samples over the log2 bucket bounds plus [_sum]/[_count], and
    per-histogram [_p50]/[_p90]/[_p99] gauge estimates derived via
    {!Metrics.percentile}. *)

val write_chrome_trace : ?process_name:string -> path:string -> Events.t list -> unit

val timeline_csv : Events.t list -> string
val heatmap_csv : Events.t list -> string
