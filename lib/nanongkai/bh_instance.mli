(** Node-local state machine for one bounded-hop SSSP instance
    (the per-node logic shared by Algorithm 1, the concurrent
    instances inside Algorithm 3 and the overlay nodes of
    Algorithm 5).

    One instance computes [d̃^ℓ(s, ·)] for a single source [s] by
    running, for each weight scale [i], an Algorithm-2 wavefront in a
    dedicated phase of [phase_len = hop_budget + 2] rounds. The
    instance is shifted in time by [offset] (Algorithm 3's random
    delay). All round arithmetic here is in the instance's own clock
    ([global round - offset]).

    Instances live in a {!bank}: flat mutable arrays, one slot per
    instance (Algorithm 3 gives each node a bank of [b] slots,
    Algorithm 5 one bank for its [b] overlay nodes, Algorithm 1 each
    node a bank of one). {!on_message} and {!decide} update a slot in
    place and allocate nothing. The bank also records, per slot, the
    last round it heard a message and the round of its last requested
    wake, so that {!may_act} can tell which slots a round can move.
    The surrounding protocol adapter translates engine activations
    into these calls and performs the sends. *)

type cfg = {
  params : Graphlib.Reweight.params;
  budget : int;  (** Acceptance bound [⌈(1+2/ε)ℓ⌉] = Algorithm 2's [L]. *)
  phase_len : int;  (** [budget + 2] rounds per scale. *)
  num_scales : int;
  offset : int;  (** Global round at which the instance starts. *)
  is_source : bool;
}

val make_cfg :
  params:Graphlib.Reweight.params -> n:int -> max_w:int -> offset:int -> is_source:bool -> cfg

val initial_wakes : cfg -> int list
(** Global wake rounds the node must request at protocol init:
    the source wakes at every phase base; non-sources are purely
    reactive. *)

type bank

val bank : int -> (int -> cfg) -> bank
(** [bank k cfg] holds [k] instances; slot [j] runs with [cfg j],
    which the bank keeps, and starts in its initial state. *)

val on_message : bank -> int -> round:int -> scale:int -> dist:int -> scaled_w:int -> unit
(** [on_message bank j] folds one received message into slot [j]:
    [dist] is the sender's scaled distance at [scale]; [scaled_w] is
    the receiving edge's weight under the scale-[scale] reweighting
    [w_i] (the adapter computes it from the edge's base weight, which
    may be an integer for network edges or a real for overlay
    edges). *)

type effect =
  | Quiet
  | Broadcast  (** Send [(scale, dist)] of the slot to every neighbor now. *)
  | Wake  (** Request a wake-up at {!wake_round}. *)

val decide : bank -> int -> round:int -> effect
(** After folding the round's messages (and/or on a wake), decide
    whether slot [j] broadcasts now or schedules a wake. Also performs
    lazy scale rollover. On {!Wake} the bank records {!wake_round} as
    the slot's due round, replacing any earlier one. *)

val may_act : bank -> int -> round:int -> bool
(** [may_act bank j ~round] holds exactly when slot [j] heard a
    message at [round], its last requested wake is due at [round], or
    it is a source and [round] is one of its phase bases. On any other
    slot {!decide} would return {!Quiet} or repeat the wake the slot
    already asked for, and lazy rollover brings a later call to the
    same state. So a caller that, at every round where it folds a
    message or a requested wake falls due, decides only these slots
    in increasing [j] sends the same broadcasts in the same order,
    requests the same set of wake rounds and finalizes to the same
    values as one that decides every slot. *)

val scale : bank -> int -> int
(** The slot's current scale; after {!Broadcast}, the message's scale. *)

val dist : bank -> int -> int
(** The slot's scaled distance at its current scale; after
    {!Broadcast}, the message's distance. *)

val wake_round : bank -> int -> int
(** After {!Wake}: the global round at which the slot's pending
    distance becomes due. *)

val finalize : bank -> int -> float
(** Fold the last scale and return [d̃^ℓ(s, v)] for the slot
    ([Float.infinity] if no scale accepted). Call after the run. *)
