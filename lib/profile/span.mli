(** Hierarchical span attribution: where wall time and allocation go.

    A profile is a tree of call paths. Each node aggregates every
    occurrence of one span name under one parent path: how many times
    it ran ([calls]), wall seconds including children ([total_s]) and
    excluding them ([self_s]), and the GC allocation attributed to it
    ([minor_words] allocated, [promoted_words] surviving to the major
    heap) — the counters [Gc.quick_stat] exposes, deltas taken at span
    boundaries.

    Recording is strictly per-domain: a domain that records owns a
    private {!recorder} (created on that domain), and whoever collects
    the finished trees folds them with {!merge}, which is deterministic
    — siblings are kept name-sorted and merging is associative and
    commutative, so the folded tree is independent of how the work was
    split.

    Two feeding paths build the same tree: {!span} brackets a scoped
    thunk with clock + GC reads on a recorder, and {!of_events} replays
    the [Span_begin]/[Span_end] events the engine and [qcongest trace]
    emit (timestamps come from the events, so replaying a recorded
    stream reproduces the same durations). *)

type node = {
  name : string;
  calls : int;
  total_s : float;  (** Wall seconds including children. *)
  self_s : float;  (** Wall seconds excluding children ([>= 0]). *)
  minor_words : float;  (** Minor-heap words allocated in the span. *)
  promoted_words : float;  (** Words promoted to the major heap. *)
  children : node list;  (** Name-sorted. *)
}

type t = node list
(** A forest of name-sorted roots (profiles usually have one). *)

(** {1 Recording} *)

type recorder

val recorder : ?clock:Telemetry.Clock.t -> ?gc:bool -> unit -> recorder
(** A fresh empty recorder. [?clock] (default {!Telemetry.Clock.wall})
    times {!span} scopes; pass a manual clock for exact-duration
    tests. [?gc] (default [true]) controls whether GC counters are
    sampled at span boundaries — {!of_events} replay turns it off,
    since allocation measured at replay time would be attributed to
    the replayer. *)

val span : recorder -> string -> (unit -> 'a) -> 'a
(** [span r name f] runs [f] inside a [name] span: a child of the
    innermost open span (or a root). Exceptions propagate; the span is
    closed either way. *)

val tree : recorder -> t
(** Immutable snapshot of the finished spans recorded so far
    (still-open frames contribute nothing). *)

val of_events : ?gc:bool -> Telemetry.Events.t list -> t
(** Build a profile from a recorded event list: [Span_begin] opens,
    [Span_end] closes (unwinding to the matching open span, exactly
    like [Telemetry.Export.chrome_trace]'s repair; a close with no
    matching open is dropped), all other events are ignored.
    Durations come from the events' [wall_s] stamps; [?gc] (default
    [false]) samples GC counters at replay time. Unclosed spans are
    dropped. *)

(** {1 Merging and queries} *)

val merge : t -> t -> t
(** Pointwise sum by call path: calls, times and allocation add;
    children merge recursively. Keeps name-sorting, so folds are
    deterministic in any order. *)

val merge_all : t list -> t
(** [List.fold_left merge []] — the coordinator's per-worker fold. *)

val find : t -> string list -> node option
(** Node at a call path, e.g. [find t ["sweep"; "engine.compute"]]. *)

val total_self : t -> float
(** Sum of [self_s] over every node — equals the sum of root
    [total_s] on a well-nested profile (the QCheck-pinned
    conservation law). *)

(** {1 Exporters} *)

val to_json : t -> string
(** The [qcongest-profile/v1] artifact: nested
    name/calls/total_s/self_s/allocation objects. *)

val folded : t -> string
(** Folded-stack (collapsed) format, one line per call path with
    measured self time: ["root;child;leaf <self-µs>\n"] — the input
    [flamegraph.pl] and speedscope consume directly. *)
