(** Structured event stream emitted by the simulation substrates.

    The CONGEST engine (and anything layered on it) emits these
    through a {!sink} — a plain callback, so the layer costs nothing
    when unset. Event streams are complete enough to {e replay}: the
    engine's end-of-run trace counters are a pure function of the
    stream (see [Congest.Replay]), which is pinned by a property test.

    Stream shape per engine execution (one "segment"):
    [Run_start], then per active round a [Round_start] followed by the
    round's [Message]/[Fault]/[Deliver] events, then any end-of-run
    [Fault Crash] events (sorted by crash round), then [Run_end].
    Multi-phase drivers concatenate segments; [Span_begin]/[Span_end]
    pairs (from [Congest.Runner]) bracket them. *)

type fault_kind =
  | Drop_random  (** Lost to the adversary's per-message drop. *)
  | Drop_bandwidth of int
      (** Dropped at the sender's NIC (strict bandwidth); the payload
          is the dropped message's size in words. The send still
          counts toward the trace's [messages]/[words]/[rounds] —
          carrying the size here keeps the stream replayable, since no
          [Message] event is emitted for it. *)
  | Drop_crashed  (** Delivery to an already-crashed node. *)
  | Delay of int  (** Copy delayed by this many extra rounds ([> 0]). *)
  | Duplicate  (** One extra network-injected copy was enqueued. *)
  | Crash  (** A node's fail-stop round fell inside the horizon. *)

type t =
  | Run_start of { protocol : string; n : int; bandwidth : int }
  | Round_start of { round : int; active : int }
      (** [active] handlers run this round (round 0 = all inits). *)
  | Message of { round : int; src : int; dst : int; words : int }
      (** A message accepted onto the wire: after a strict-bandwidth
          drop, before a random drop, and never for network-injected
          duplicate copies. *)
  | Deliver of { round : int; src : int; dst : int }
      (** A message copy moved into an inbox by the fault-path
          delivery calendar (fault-free deliveries are implicit at
          send round + 1 and emit no event). *)
  | Fault of { round : int; node : int; peer : int; kind : fault_kind }
      (** For message faults [node]/[peer] are src/dst; for [Crash]
          [node] is the crashed node, [peer] is [-1] and [round] the
          crash round. *)
  | Span_begin of { name : string; round : int; wall_s : float }
  | Span_end of { name : string; round : int; wall_s : float }
      (** [round] is cumulative simulated rounds at the boundary;
          [wall_s] the {!Clock} reading. *)
  | Run_end of { round : int }  (** Final trace round count. *)

type sink = t -> unit

val null : sink

val collector : unit -> sink * (unit -> t list)
(** In-memory sink; the second component returns everything collected
    so far, in emission order. *)

val of_on_message : (round:int -> src:int -> dst:int -> words:int -> unit) -> sink
(** A sink that calls [f] on every [Message] event and ignores
    everything else. *)

val fault_kind_name : fault_kind -> string

val to_json : t -> string
(** One compact object per event; the discriminant field is ["ev"]
    (e.g. [{"ev":"message","round":2,"src":0,"dst":1,"words":1}]). *)

val write_jsonl : out_channel -> t list -> unit
(** One [to_json] line per event. *)
