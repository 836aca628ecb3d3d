(** What a CONGEST node is allowed to see.

    Protocols receive only this view, which enforces the model's
    locality: a node knows its identifier, the public parameters
    ([n] and the maximum weight [W], which the paper assumes are known
    to all nodes), and its incident edges with their weights. Protocol
    code never touches the global graph. *)

type t = {
  id : int;
  n : int;  (** Number of nodes in the network (public). *)
  max_w : int;  (** [W = max_e w(e)] (public, per Appendix A). *)
  neighbors : (int * int) array;
      (** Incident edges as [(neighbor, weight)], sorted by neighbor id
          (the graph's own adjacency row); do not mutate. A received
          message comes with the weight of the edge it crossed
          ({!Engine.Inbox}), so handlers need no lookup here. *)
}

val degree : t -> int
