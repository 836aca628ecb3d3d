(** Spanning-tree primitives: the backbone of every aggregation in the
    paper's algorithms.

    All operations are honest message-passing protocols run on
    {!Engine}; their round costs are measured, not assumed. The
    standard bounds hold: tree construction and convergecast take
    [O(depth)] rounds, pipelined broadcast/upcast of [k] tokens take
    [O(depth + k)] rounds with unit bandwidth.

    The tree itself (each node's parent/children/level) becomes common
    knowledge distributed across nodes; the [t] value returned to the
    driver is the collection of those local views. Protocols built on a
    tree only ever read their own node's entry. *)

type t = {
  root : int;
  parent : int array;  (** [-1] for the root. *)
  children : int array array;
  level : int array;
  depth : int;  (** Height of the tree = eccentricity of the root. *)
}

val build :
  ?bandwidth:int ->
  ?faults:Fault.t ->
  ?reliable:Reliable.config ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  root:int ->
  t * Engine.trace
(** BFS spanning tree by flooding, followed by an honest
    convergecast/broadcast so that every node learns [depth]
    ([O(depth)] rounds total). Requires a connected graph.

    With [?faults] and/or [?reliable] set, every phase runs wrapped in
    the {!Reliable} ack/retransmission combinator (default config when
    only [?faults] is given), so the tree built under a seeded lossy
    network matches the fault-free one — at a measured round/message
    overhead recorded in the returned trace. [?bandwidth] is passed
    straight to {!Engine.run} (note the wrapper's 1-word header: with
    [Fault.strict_bandwidth] set, the bandwidth must exceed the
    largest payload for data to flow at all). [?sink] is attached to
    every underlying {!Engine.run} — multi-phase operations emit one
    event-stream segment per phase ([Run_start] … [Run_end]), which
    [Replay.trace_of_events] folds back into the summed trace these
    functions return. The same conventions apply to every function
    below. *)

val convergecast :
  ?bandwidth:int ->
  ?faults:Fault.t ->
  ?reliable:Reliable.config ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  t ->
  values:'a array ->
  combine:('a -> 'a -> 'a) ->
  size_words:('a -> int) ->
  'a * Engine.trace
(** Aggregate one value per node up to the root with an associative,
    commutative [combine]; returns the root's total. [O(depth)] rounds
    when aggregates fit in one message. *)

val broadcast_tokens :
  ?bandwidth:int ->
  ?faults:Fault.t ->
  ?reliable:Reliable.config ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  t ->
  tokens:'tok list ->
  size_words:('tok -> int) ->
  'tok list array * Engine.trace
(** Pipelined broadcast of the root's token list to every node;
    [O(depth + k)] rounds. Result preserves the root's token order. *)

val broadcast_rounds : Graphlib.Wgraph.t -> t -> int -> int
(** [broadcast_rounds g tree i]: the measured rounds of a fault-free
    {!broadcast_tokens} of the one-word token [i] — what a distributed
    search charges to send an index or its answer down the tree. *)

val upcast :
  ?bandwidth:int ->
  ?faults:Fault.t ->
  ?reliable:Reliable.config ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  t ->
  items:'tok list array ->
  compare:('tok -> 'tok -> int) ->
  size_words:('tok -> int) ->
  'tok list * Engine.trace
(** Pipelined upward collection of the distinct items held across the
    network ([compare] defines identity); the root ends with the sorted
    deduplicated list. [O(depth + k)] rounds for [k] distinct items. *)

val gather_broadcast :
  ?bandwidth:int ->
  ?faults:Fault.t ->
  ?reliable:Reliable.config ->
  ?sink:Telemetry.Events.sink ->
  Graphlib.Wgraph.t ->
  t ->
  items:'tok list array ->
  compare:('tok -> 'tok -> int) ->
  size_words:('tok -> int) ->
  'tok list * Engine.trace
(** {!upcast} then {!broadcast_tokens}: every node (and the caller)
    learns the full sorted item list. [O(depth + k)] rounds. *)

(** {1 Gather traces by holder multiset}

    On a fault-free network, a {!gather_broadcast} of pairwise-distinct
    one-word items has a trace that depends only on which nodes hold
    how many items: nothing is deduplicated, the upcast forwards one
    item per node per round while any remain, and the broadcast sees
    only how many items the root collected. Callers that gather many
    item sets on one tree (Algorithm 5's overlay rounds, the leader's
    collection of [S]) keep a memo of measured traces keyed by that
    multiset. The memo belongs to its caller; nothing is shared
    between memos. *)

type gather_memo

val gather_memo : Graphlib.Wgraph.t -> t -> gather_memo
(** An empty memo for this graph and tree. *)

val gather_trace : gather_memo -> Graphlib.Wgraph.t -> t -> holders:int array -> Engine.trace
(** [gather_trace memo g tree ~holders] lists, once per item, the node
    that holds it. The result is the trace of
    [gather_broadcast g tree ~items ~compare ~size_words:(fun _ -> 1)]
    (no faults, default bandwidth) for every [items] in which node [v]
    holds as many items as it appears in [holders] and all items are
    pairwise distinct. The first request for a multiset runs that
    protocol; later ones return the stored trace.

    @raise Invalid_argument unless [g] and [tree] are (physically) the
    graph and tree the memo was made for. *)
