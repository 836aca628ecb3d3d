(** Reliable-delivery protocol combinators.

    {!wrap} turns any [('s, 'm) Engine.protocol] written for the
    perfect synchronous network into one that tolerates the {!Fault}
    adversary's message loss, duplication and delay:

    - every payload carries a per-(sender, destination) sequence
      number and is held by the sender until acknowledged;
    - the receiver acknowledges every data message (including
      duplicates, whose payloads are suppressed before the inner
      protocol sees them) and releases payloads to the inner protocol
      {e in sequence order} per sender, parking out-of-order arrivals
      until the gap fills — FIFO delivery in the TCP sense, so
      neither retransmission nor delay jitter can reorder what the
      inner protocol observes on any single link;
    - unacknowledged messages are retransmitted after a timeout
      measured in rounds, with exponential backoff up to a cap, and
      abandoned after [max_retries] retransmissions (so a fail-stop
      destination cannot stall the network forever).

    The inner protocol observes, on each link, exactly the message
    sequence it would see on a perfect network, each message exactly
    once — only the rounds at which messages arrive shift (and the
    interleaving {e across} different senders may differ). Wrapping
    therefore preserves the results of protocols whose logic is
    driven by message arrivals rather than absolute round numbers
    (BFS flooding, convergecast, pipelined broadcast/upcast all
    qualify); the cost shows up as measured round/message/word
    overhead in the trace.

    The inner protocol's [broadcast] is expanded into one data message
    per neighbor (each needs its own sequence number), after its
    [sends] and in the engine's delivery order; each payload reaches
    the inner protocol with the weight of the edge it crossed, as on a
    perfect network.

    Header cost: a data message costs 1 word more than its payload
    (the sequence number), an acknowledgement costs 1 word. *)

type config = {
  timeout : int;
      (** Rounds to wait before the first retransmission; must be
          [>= 3] (a synchronous round-trip takes 2 rounds). *)
  backoff : int;  (** Timeout multiplier per retransmission, [>= 1]. *)
  max_timeout : int;  (** Backoff cap in rounds. *)
  max_retries : int;
      (** Retransmissions per message before giving up, [>= 0]. *)
}

val default_config : config
(** [{ timeout = 4; backoff = 2; max_timeout = 64; max_retries = 25 }]. *)

type 'm msg = Data of { seq : int; body : 'm } | Ack of int

type ('s, 'm) state
(** Wrapper state: the inner ['s] plus sequencing, pending
    retransmissions and duplicate-suppression bookkeeping. *)

val inner : ('s, 'm) state -> 's
(** The wrapped protocol's state, for result extraction. *)

val given_up : ('s, 'm) state -> int
(** Messages this node abandoned after [max_retries]
    retransmissions (0 unless the network is badly partitioned or a
    peer crashed). [List.length (abandoned st)]. *)

type give_up = {
  gu_dst : int;  (** Destination the message never reached. *)
  gu_seq : int;  (** Its per-(sender, destination) sequence number. *)
  gu_retries : int;  (** Retransmissions spent ([= max_retries]). *)
  gu_round : int;  (** Round at which the sender gave up. *)
}

val abandoned : ('s, 'm) state -> give_up list
(** The structured give-up outcomes of this node, oldest first: which
    messages were abandoned, to whom, after how many retransmissions.
    The retransmission cap plus this record is what turns "adversary
    drops one edge forever" from an unbounded retransmission loop into
    a bounded, observable failure. *)

val wrap : ?config:config -> ('s, 'm) Engine.protocol -> (('s, 'm) state, 'm msg) Engine.protocol
(** The wrapped protocol, named ["reliable:<name>"]. *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?faults:Fault.t ->
  ?sink:Telemetry.Events.sink ->
  ?config:config ->
  Graphlib.Wgraph.t ->
  ('s, 'm) Engine.protocol ->
  's array * Engine.trace
(** [Engine.run] of the wrapped protocol, with the inner states
    projected out. [?sink] observes the {e wire} protocol: data and
    ack messages, retransmissions included. *)
