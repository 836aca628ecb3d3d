type t = {
  s_nodes : int array;
  k : int;
  knn : int array array;
  w2 : float array array;
  trace : Congest.Engine.trace;
  tokens_broadcast : int;
  gathers : Congest.Tree.gather_memo;
}

(* Dense float Dijkstra over an adjacency-list graph on [b] vertices. *)
let restricted_distances ~b ~edges ~src =
  let adj = Array.make b [] in
  List.iter
    (fun (u, v, w) ->
      adj.(u) <- (v, w) :: adj.(u);
      adj.(v) <- (u, w) :: adj.(v))
    edges;
  let dist = Array.make b Float.infinity in
  let final = Array.make b false in
  dist.(src) <- 0.0;
  let rec loop () =
    (* O(b^2) selection; b is the skeleton size, which is small. *)
    let best = ref (-1) in
    for v = 0 to b - 1 do
      if (not final.(v)) && dist.(v) < Float.infinity then
        if !best = -1 || dist.(v) < dist.(!best) then best := v
    done;
    if !best >= 0 then begin
      let u = !best in
      final.(u) <- true;
      List.iter
        (fun (v, w) -> if dist.(u) +. w < dist.(v) then dist.(v) <- dist.(u) +. w)
        adj.(u);
      loop ()
    end
  in
  loop ();
  dist

let k_smallest_edges w1 ~i ~k =
  let b = Array.length w1 in
  let cands = ref [] in
  for j = 0 to b - 1 do
    if j <> i && w1.(i).(j) < Float.infinity then cands := (w1.(i).(j), j) :: !cands
  done;
  let sorted = List.sort compare !cands in
  let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
  List.map (fun (w, j) -> (min i j, max i j, w)) (take k sorted)

let embed g ~tree ~s_nodes ~w1 ~k =
  if k < 1 then invalid_arg "Overlay.embed: k < 1";
  let b = Array.length s_nodes in
  let n = Graphlib.Wgraph.n g in
  (* Each s holds its own k cheapest incident overlay edges. *)
  let items = Array.make n [] in
  Array.iteri (fun i s -> items.(s) <- k_smallest_edges w1 ~i ~k) s_nodes;
  let tokens, trace =
    Congest.Tree.gather_broadcast g tree ~items ~compare ~size_words:(fun _ -> 1)
  in
  (* Local post-processing (identical at every node; computed once):
     Observation 3.12 — distances over the broadcast edges give the
     exact (G'_S, w'_S)-distances to each node's k nearest. *)
  let edges = tokens in
  let knn = Array.make b [||] in
  let w2 = Array.map Array.copy w1 in
  for i = 0 to b - 1 do
    let dist = restricted_distances ~b ~edges ~src:i in
    let order =
      List.sort compare
        (List.filter_map
           (fun j -> if j <> i && dist.(j) < Float.infinity then Some (dist.(j), j) else None)
           (List.init b (fun j -> j)))
    in
    let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
    let nearest = take k order in
    knn.(i) <- Array.of_list (List.map snd nearest);
    List.iter
      (fun (d, j) ->
        let d = Float.min d w2.(i).(j) in
        w2.(i).(j) <- d;
        w2.(j).(i) <- d)
      nearest
  done;
  {
    s_nodes = Array.copy s_nodes;
    k;
    knn;
    w2;
    trace;
    tokens_broadcast = List.length tokens;
    gathers = Congest.Tree.gather_memo g tree;
  }
