(** The lower-bound network of Section 4 (Figures 1, 2 and 4).

    [G = (V_S ⊎ V_A ⊎ V_B, E_S ⊎ E_A ⊎ E_B ⊎ E')]:

    - [V_S] (the server part, Figure 1): a full binary tree of height
      [h] plus [m = 2s + ℓ] disjoint paths of [2^h] nodes, each leaf
      [t_{h,j}] attached to [p_{i,j}] on every path (weight [α]);
    - [V_A]: the clique [{a_1..a_{2^s}}] (weight [α]), the routers
      [a_j^0, a_j^1] (address bits, weight-[α] spokes [a_i — a_j^{bin(i,j)}])
      and the stars [a_1^*..a_ℓ^*] whose spoke weights encode Alice's
      input ([α] if [x_{i,j}]=1 else [β]); [V_B] mirrors it with Bob's
      input;
    - [E'] (weight 1) plugs router/star [j] into the left end of path
      [j] on Alice's side and the right end on Bob's side, with the
      crossed bit convention that makes [b_i] reach
      [a_j^{bin(i,j)⊕1}] after contraction;
    - tree and path edges have weight 1, so contracting weight-1 edges
      (Lemma 4.3) collapses the server part to the Figure 3/4 picture.

    The radius variant (Figure 4) adds [a_0] with weight-[2α] edges to
    every [a_i].

    Eq. (2) ties the parameters: [s = 3h/2], [ℓ = 2^{s-h}], giving
    [n = (2^{h+1}-1) + (2s+ℓ)(2^h+2) + 2·2^s = Θ(2^{3h/2})] (plus one
    for the radius variant) and [D_G = Θ(h) = Θ(log n)]. *)

type variant = Diameter_gadget | Radius_gadget

type node_kind =
  | Tree of { depth : int; pos : int }  (** [t_{depth,pos}], 1-based pos. *)
  | Path of { path : int; pos : int }  (** [p_{path,pos}]. *)
  | A of int  (** [a_i], [i ∈ [1, 2^s]]. *)
  | B of int
  | A_router of { j : int; bit : int }  (** [a_j^bit], [j ∈ [1, s]]. *)
  | B_router of { j : int; bit : int }
  | A_star of int  (** [a_j^*], [j ∈ [1, ℓ]]. *)
  | B_star of int
  | A_zero  (** The radius gadget's extra node [a_0]. *)

type params = {
  h : int;
  s : int;
  ell : int;
  m : int;  (** [2s + ℓ] paths. *)
  expected_n : int;  (** The Section 4.2 node-count formula. *)
}

val params_of_h : h:int -> params
(** Eq. (2); [h] must be even and positive. *)

type t = {
  graph : Graphlib.Wgraph.t;
  variant : variant;
  p : params;
  alpha : int;
  beta : int;
  input : Boolfun.input;
  kind_of : node_kind array;
}

val build : variant:variant -> h:int -> input:Boolfun.input -> unit -> t
(** [input] must have [2^s · ℓ] bits per side. The weights are
    [α = n²] and [β = 2n²], with [n] from the count formula. *)

val id_of : t -> node_kind -> int
(** Raises [Not_found] for kinds absent from the variant. *)

val bin : i:int -> j:int -> int
(** The paper's [bin(i,j)]: the j-th bit (1-based) of [i-1]. *)

type side = Server_side | Alice_side | Bob_side

val side_of : node_kind -> side
(** The Lemma 4.1 input partition: [V_S] vs [V_A] vs [V_B]. *)

val structural_ok : t -> bool
(** Node count matches the formula, graph connected, and every
    weight-1 / α / β edge is where the construction says. *)
