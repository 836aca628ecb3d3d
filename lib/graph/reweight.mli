(** Lemma 3.2: approximate bounded-hop distances via weight scaling.

    For an integer [ℓ > 0] and accuracy [ε], the scaled weights are
    [w_i(e) = ⌈2ℓ·w(e)/(ε·2^i)⌉] for scale [i ≥ 0]. The approximate
    bounded-hop distance is

    [d̃^ℓ(u,v) = min_i { d_{G,w_i}(u,v)·ε·2^i/(2ℓ) : d_{G,w_i}(u,v) ≤ (1+2/ε)ℓ }]

    and satisfies [d(u,v) ≤ d̃^ℓ(u,v) ≤ (1+ε)·d^ℓ(u,v)].

    Values are reals; this module returns them as floats
    ([Float.infinity] when no scale accepts). These are centralized
    reference implementations; the distributed versions live in
    [lib/nanongkai] and are tested against these. *)

type params = { ell : int; eps : float }

val num_scales : n:int -> max_w:int -> eps:float -> int
(** [⌊log₂(2nW/ε)⌋ + 1]: how many scales Algorithm 1 iterates over. *)

val scaled_weight : params -> i:int -> w:int -> int
(** [w_i(e)] for an original weight [w(e)]. Always [>= 1]. *)

val scaled_weight_f : params -> i:int -> w:float -> int
(** Same with a real original weight (used when Lemma 3.2 is re-applied
    to the overlay graph, whose weights are approximate distances). *)

val scaler : params -> scales:int -> i:int -> w:int -> int
(** [scaler params ~scales] checks [params] once and computes the
    divisor [ε·2^i] of every scale [i < scales] once; the function it
    returns is {!scaled_weight} for those scales, bit for bit, with no
    per-call check or power. Apply it partially and keep the result for
    a per-message hot path. [w] must be positive. *)

val scaler_f : params -> scales:int -> i:int -> w:float -> int
(** {!scaler} for real weights: {!scaled_weight_f} for those scales,
    bit for bit. *)

val scaled_graph : Wgraph.t -> params -> i:int -> Wgraph.t
(** The graph [(G, w_i)]. *)

val hop_budget : params -> int
(** [⌈(1 + 2/ε)·ℓ⌉]: the acceptance bound on scaled distances, and the
    round budget of Algorithm 2. *)

(** {1 Per-graph table}

    [d̃^ℓ(s, ·)] depends only on [G], the parameters and [s], while
    Theorem 1.1 prices [m = n] sampled sets and each node lies in about
    [r] of them. A table belongs to one graph and one parameter pair.
    It builds each scale's graph [(G, w_i)] and each row [d̃^ℓ(s, ·)]
    once, on first request, and keeps them for its own lifetime.
    Dropping the table frees them; nothing is global.

    The rows it returns are shared: every caller that asks for the same
    source gets the same array. They must not be mutated. A table is
    not safe to use from two domains at once. *)

type table

val table : Wgraph.t -> params -> table
(** An empty table: nothing is computed until a row is requested. *)

val table_graph : table -> Wgraph.t
val table_params : table -> params

val row : table -> src:int -> float array
(** [d̃^ℓ(src, ·)] for every node: the same values {!approx_from}
    returns. Shared with every other caller of [row] on this table for
    [src]; do not mutate. *)

val approx_from : Wgraph.t -> params -> src:int -> float array
(** [d̃^ℓ(src, ·)] for every node, on a fresh table (so the array is
    the caller's own). *)

val check_sandwich : Wgraph.t -> params -> src:int -> bool
(** Verify [d ≤ d̃^ℓ ≤ (1+ε)·d^ℓ] for every target (ignoring targets
    where [d^ℓ] is infinite). Used by tests and the self-check bench. *)
