(** Synchronous CONGEST execution engine.

    Time advances in rounds. In round [r] every *active* node — one
    with a non-empty inbox (messages sent in round [r-1]) or a due
    wake-up — runs its handler, which may send messages to neighbors
    (delivered at round [r+1]) and schedule a future wake-up. The
    engine is event-driven: rounds in which nothing happens are skipped
    in O(1), so simulated round counts are decoupled from wall time.

    Bandwidth is accounted per directed edge per round in words
    (1 word = Θ(log n) bits, the CONGEST bandwidth [B]). By default
    overloads are recorded in the trace rather than enforced; tests
    assert that the protocols stay within their claimed budgets.
    The ledger's contract: a node acts at most once per round (its
    [init] at round 0, then one handler call in each round it is
    active), and only its own action sends over its outgoing arcs, so
    an arc's load for a round is complete when its sender's action
    ends. The engine settles the ledger there, once per action, with
    scratch space as long as the longest adjacency row rather than one
    counter per arc.

    An optional {!Fault} configuration turns the perfect network into
    an adversarial one: messages may be dropped, delayed or
    duplicated, nodes may fail-stop, and bandwidth may be enforced
    (excess words dropped at message granularity). The adversary is
    seeded, so faulty runs are exactly reproducible; with [?faults]
    unset the execution is bit-for-bit the historical fault-free
    semantics. *)

type 'm envelope = {
  src : int;  (** The sender. *)
  w : int;  (** The weight of the edge the message crossed, [src] to the receiver. *)
  msg : 'm;
}
(** One received message, as {!Inbox.of_envelopes} takes it. *)

(** What a handler receives: a view of the node's inbox for one
    activation.

    Entry [i], for [0 <= i < length], is one message: its sender
    [src.(i)], the weight [weight.(i)] of the edge it crossed (the
    engine reads it from the arc it delivers on, so a handler needs no
    lookup of its own) and the message [store.(slot.(i))]. Entries are
    sorted by sender id, and one sender's messages keep the order they
    were sent in.

    The engine stores each message once per round, however many
    neighbors receive it, and gives each receiver three ints for its
    arc: sender, weight and store slot. The view is backed by the engine's reused buffers, so it is
    valid only during the call it is passed to: a handler that keeps a
    message keeps the message, never the view. The arrays may be longer
    than [length]; entries past it are not part of the inbox.

    The fields are readable for handlers that loop over the inbox (the
    accessors below are function calls, which a hot handler may not
    want per message); only the engine and {!of_envelopes} build
    one. *)
module Inbox : sig
  type 'm t = private {
    mutable length : int;
    mutable src : int array;
    mutable weight : int array;
    mutable slot : int array;
    mutable store : 'm array;
  }

  val length : 'm t -> int

  val src : 'm t -> int -> int
  (** [src ib i] is entry [i]'s sender. All three accessors raise
      [Invalid_argument] unless [0 <= i < length ib]. *)

  val weight : 'm t -> int -> int
  val msg : 'm t -> int -> 'm

  val fold : ('a -> src:int -> w:int -> 'm -> 'a) -> 'a -> 'm t -> 'a
  (** Left fold over the entries, in sender order. *)

  val of_envelopes : 'm envelope list -> 'm t
  (** A fresh inbox holding the envelopes in the order given (callers
      pass them sorted by sender): {!Reliable}'s inner inbox, and test
      engines that hand a protocol its inbox themselves. *)
end

type 'm action = {
  sends : (int * 'm) list;  (** [(neighbor, message)] pairs. *)
  broadcast : 'm list;
      (** Messages for every neighbor. After [sends], each message goes
          to every neighbor in increasing id order, and the messages go
          in list order: the same deliveries, in the same order, as
          [sends] listing [(v, m)] for each [m] and each neighbor [v]
          in turn, without building those pairs. *)
  wakes : int list;  (** Future rounds to be re-activated at; each must
                         be strictly in the future. *)
}

val no_action : 'm action
val send : (int * 'm) list -> 'm action
val send_and_wake : (int * 'm) list -> int -> 'm action
val broadcast : 'm list -> 'm action
val wake : int -> 'm action
val act : ?sends:(int * 'm) list -> ?wakes:int list -> unit -> 'm action

type ('s, 'm) protocol = {
  name : string;
  size_words : 'm -> int;
      (** Size of a message in CONGEST words; must be [>= 1]. *)
  init : Node_view.t -> 's * 'm action;
      (** Runs at round 0 for every node. *)
  on_round : Node_view.t -> round:int -> 's -> inbox:'m Inbox.t -> 's * 'm action;
      (** Runs whenever the node is active, with the messages sent to
          it in the previous round (or, under faults, due now), sorted
          by sender id. *)
}

type trace = {
  rounds : int;
      (** Communication rounds consumed: 1 + the last round in which a
          message was sent, extended to the last faulty *delivery*
          round when delay jitter is injected (0 for purely local
          protocols). *)
  messages : int;  (** Total messages sent by protocol handlers
                       (includes messages later lost to faults). *)
  words : int;  (** Total words sent by protocol handlers. *)
  max_edge_load : int;
      (** Max words crossing one directed edge in one round. Under
          strict bandwidth this never exceeds the bandwidth. *)
  congestion_violations : int;
      (** Directed-edge-rounds whose load exceeded the bandwidth —
          counted once per edge-round however the overload
          accumulates. *)
  activations : int;  (** Total handler invocations (simulation work). *)
  dropped : int;
      (** Messages lost: random drops, strict-bandwidth drops, and
          deliveries to already-crashed nodes. 0 without faults. *)
  delayed : int;
      (** Message copies that suffered extra delivery jitter. *)
  duplicated : int;  (** Extra network-injected copies. *)
  crashed : int;
      (** Nodes whose fail-stop round fell within the simulated
          horizon. *)
}

val empty_trace : trace

val add_traces : trace -> trace -> trace
(** Sequential composition: rounds and fault event counters add,
    loads take the max; [crashed] takes the max too (a node crashed in
    one phase stays crashed in the next). *)

val pp_trace : Format.formatter -> trace -> unit
(** One-line rendering; fault counters are appended only when any of
    them is non-zero, so fault-free output is unchanged. *)

val trace_to_json : trace -> Telemetry.Json.t
(** One JSON object holding every trace field, in declaration order. *)

type limit_info = {
  protocol : string;  (** [protocol.name] of the runaway protocol. *)
  round_reached : int;  (** First scheduled round beyond the limit. *)
  partial : trace;  (** Accounting up to the moment of the abort. *)
}

exception Round_limit_exceeded of limit_info

type deadline_info = {
  deadline_protocol : string;  (** [protocol.name] of the over-budget run. *)
  round_at_deadline : int;  (** Next scheduled round when the budget ran out. *)
  elapsed_s : float;  (** Wall seconds consumed since this [run] started. *)
  budget_s : float;  (** The budget this run was given (for an ambient
                         {!with_deadline} budget: what remained of it
                         when this run started). *)
  partial_trace : trace;  (** Accounting up to the moment of the abort. *)
}

exception Deadline_exceeded of deadline_info

val valid_deadline : float -> bool
(** [true] for a budget {!run} and {!with_deadline} accept: a finite
    number of seconds [>= 0] ([0] is valid and cuts a run at its first
    over-budget round). Callers that take a budget from the user check
    it here before any work starts. *)

val with_deadline : ?clock:Telemetry.Clock.t -> seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with an ambient wall-clock
    budget: every {!run} started by [f] on this domain (without its own
    explicit [?deadline]) cooperatively checks the shared absolute
    deadline and raises {!Deadline_exceeded} once it passes. The budget
    is domain-local, so [Util.Domain_pool] workers supervise their jobs
    independently; nested scopes only ever shrink the budget (nesting
    assumes both scopes use the same clock). The previous ambient state
    is restored when [f] returns or raises. Raises [Invalid_argument]
    before running [f] unless [valid_deadline seconds]. *)

val with_phase_spans : (unit -> 'a) -> 'a
(** [with_phase_spans f] runs [f] with phase-span emission enabled:
    every observed {!run} started by [f] on this domain brackets each
    scheduled round's heap query, delivery work and handler execution
    into [engine.heap] / [engine.delivery] / [engine.compute]
    {!Telemetry.Events.Span_begin}/[Span_end] pairs on its sink — the
    substrate [Profile.Span.of_events] attributes wall time with. This
    is the only switch for phase spans, and it is off by default. Like
    {!with_deadline} it is domain-local, so [Util.Domain_pool] workers
    profile independently; the previous state is restored when [f]
    returns or raises. Spans are pure observation: runs without a sink
    are unaffected, and with spans off no clock is read and the run is
    bit-for-bit the historical behaviour. *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?deadline:float ->
  ?clock:Telemetry.Clock.t ->
  ?faults:Fault.t ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  ('s, 'm) protocol ->
  's array * trace
(** Execute until quiescence (no pending messages, deliveries or
    wake-ups). [bandwidth] defaults to 1 word/edge/round; [max_rounds]
    (default [1_000_000]) guards against non-terminating protocols by
    raising {!Round_limit_exceeded} with a structured payload.
    Nodes are processed in increasing id order within a round;
    messages to non-neighbors raise [Invalid_argument], and an
    exception raised by a handler propagates out of [run].

    [?deadline] is a wall-clock budget in seconds, read from [?clock]
    (default {!Telemetry.Clock.wall}; pass a manual clock for
    deterministic tests). It is checked cooperatively once per
    scheduled round, so a run never observes the deadline mid-round:
    either the round runs to completion or {!Deadline_exceeded} is
    raised before it starts. With [?deadline] unset the run inherits
    any ambient {!with_deadline} budget; with neither, no clock is
    ever read and execution — states, trace, and event stream — is
    bit-for-bit the unsupervised behaviour (pinned against the seed
    round loop kept in the test suite by its golden-equivalence
    tests).

    [?faults] injects the configured adversary (see {!Fault}): the
    drop/duplicate/delay decisions are drawn per message from the
    adversary's private seeded RNG stream, in send order, so runs are
    reproducible. Network-injected duplicate copies do not add to edge
    load.

    [?sink] receives the full structured event stream (see
    {!Telemetry.Events}): [Run_start], per-round [Round_start],
    [Message] on every wire acceptance (after a strict-bandwidth drop,
    before a random drop; duplicate copies emit a [Fault Duplicate]
    once, never a second [Message]), [Deliver] for fault-path
    deliveries, [Fault] for every adversary action, and [Run_end].
    The stream is complete: [Replay.trace_of_events] reconstructs this
    run's trace counters from it exactly. Event emission is pure
    observation — with [?sink] unset the execution, states and trace
    are bit-for-bit the historical behaviour, and attaching a sink
    never changes them. *)
