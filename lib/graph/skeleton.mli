(** Lemma 3.3: the skeleton / k-shortcut overlay construction and the
    approximate distance [d̃_{G,w,S}].

    Given a vertex set [S]:
    - [(G'_S, w'_S)] is the complete graph on [S] with
      [w'_S({u,v}) = d̃^ℓ(u,v)] (Lemma 3.2 values);
    - [N^k_S(v)] are the [k] nodes of [S] nearest to [v] in
      [(G'_S, w'_S)];
    - [(G''_S, w''_S)] replaces the weight of every k-nearest pair with
      the exact [G'_S]-distance (the "k-shortcut graph", whose hop
      diameter is [< 4|S|/k] by Nanongkai's Theorem 3.10);
    - [d̃_{G,w,S}(s,v) = min_{u∈S} ( d̃^{4|S|/k}_{G''_S,w''_S}(s,u) + d̃^ℓ(u,v) )].

    With [ℓ = n log n / r] and [S] sampled at rate [r/n], Lemma 3.3
    gives [d ≤ d̃_{G,w,S} ≤ (1+ε)² d] w.h.p. This module is the
    centralized reference; [lib/nanongkai] implements the distributed
    counterpart. *)

type t

val build : Reweight.table -> s:int list -> k:int -> t
(** The skeleton of [S] on the table's graph and parameters. Requires
    [S] non-empty, distinct, in range, and [k >= 1].

    The [d̃^ℓ] rows come from the table: a member shared by several
    sets is computed once per table, and its row is the same array in
    every skeleton built on that table (see {!dtilde_ell}). Each
    scale's overlay graph is built once per skeleton and serves every
    source. Build all the skeletons of one graph on one table; a fresh
    table per skeleton gives the same values but recomputes every row. *)

val s_nodes : t -> int array
(** Members of [S], increasing. *)

val s_index : t -> int -> int option
(** Position of a node inside [S], if a member. *)

val overlay_hop_budget : t -> int
(** [⌈4|S|/k⌉], the hop bound used on the overlay. *)

val w_prime : t -> float array array
(** [|S|×|S|] matrix of [w'_S] (diagonal 0, [Float.infinity] when
    [d̃^ℓ] rejected every scale). *)

val w_dprime : t -> float array array
(** [|S|×|S|] matrix of [w''_S]. *)

val knn : t -> int array array
(** [knn.(i)] = positions (in [S]-index space) of [N^k(s_i)]. *)

val dtilde_ell : t -> s:int -> float array
(** Row of [d̃^ℓ(s, ·)] over all of [V]; [s] must be in [S]. This is
    the table's row ({!Reweight.row}), shared with every skeleton built
    on the same table: do not mutate. *)

val overlay_approx : t -> s:int -> u:int -> float
(** [d̃^{4|S|/k}_{G''_S,w''_S}(s,u)] for [s, u ∈ S]. *)

val approx_distance : t -> s:int -> v:int -> float
(** [d̃_{G,w,S}(s,v)]; [s] must be in [S]. *)

val approx_distances_from : t -> s:int -> float array

val approx_eccentricity : t -> s:int -> float
(** [ẽ_{G,w,S}(s) = max_v d̃_{G,w,S}(s,v)]. *)

val overlay_hop_diameter : t -> int
(** Exact hop diameter of [(G''_S, w''_S)] (for the Theorem 3.10
    check); [max_int] if the overlay is disconnected. *)

val check_good_approximation : t -> eps:float -> bool
(** The paper's Good-Approximation event for this set:
    [d(s,v) ≤ d̃_{G,w,S}(s,v) ≤ (1+ε)²·d(s,v)] for all [s ∈ S, v ∈ V]. *)
