type t = {
  id : int;
  n : int;
  max_w : int;
  neighbors : (int * int) array;
}

let degree t = Array.length t.neighbors

let is_neighbor t v = Array.exists (fun (u, _) -> u = v) t.neighbors

(* Binary search over the row, which is sorted by neighbor id. *)
let rec search (neighbors : (int * int) array) (v : int) lo hi =
  if lo >= hi then None
  else begin
    let mid = (lo + hi) lsr 1 in
    let u, w = neighbors.(mid) in
    if u = v then Some w
    else if u < v then search neighbors v (mid + 1) hi
    else search neighbors v lo mid
  end

let edge_weight t v = search t.neighbors v 0 (Array.length t.neighbors)
