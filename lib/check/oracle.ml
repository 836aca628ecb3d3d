module Wgraph = Graphlib.Wgraph
module Dist = Graphlib.Dist

type t = {
  weighted_ecc : Wgraph.t -> Dist.t array;
  hop_ecc : Wgraph.t -> Dist.t array;
}

(* BFS ignores edge weights entirely, so running it on [g] directly is
   byte-identical to running it on [Wgraph.with_unit_weights g] — same
   topology, same neighbor order — without materializing the unit
   copy. *)
let direct =
  {
    weighted_ecc = Graphlib.Apsp.eccentricities;
    hop_ecc =
      (fun g -> Array.init (Wgraph.n g) (fun src -> Graphlib.Bfs.eccentricity g ~src));
  }

let memo t =
  let once f =
    let memo = ref None in
    fun g ->
      match !memo with
      | Some ecc -> ecc
      | None ->
        let ecc = f g in
        memo := Some ecc;
        ecc
  in
  { weighted_ecc = once t.weighted_ecc; hop_ecc = once t.hop_ecc }

(* The n <= 1 guards and fold identities replicate
   [Apsp.weighted_diameter]/[weighted_radius] and [Bfs.diameter]
   exactly, so a certificate derived through an oracle is
   byte-identical to one computed directly. A BFS tree's levels are
   BFS distances, so its depth is the root's hop eccentricity. *)
let exact t (quantity : Harness.Spec.quantity) g =
  let small = Wgraph.n g <= 1 in
  Dist.to_int_exn
    (match quantity with
    | Weighted_diameter -> if small then 0 else Array.fold_left max 0 (t.weighted_ecc g)
    | Weighted_radius -> if small then 0 else Array.fold_left min Dist.inf (t.weighted_ecc g)
    | Hop_diameter -> if small then 0 else Array.fold_left max 0 (t.hop_ecc g)
    | Bfs_depth -> (t.hop_ecc g).(0))
