type t = {
  base : Wgraph.t;
  s_arr : int array;
  index : (int, int) Hashtbl.t;
  params : Reweight.params;
  k : int;
  hop_budget : int; (* ⌈4|S|/k⌉ *)
  dt_ell : float array array; (* |S| x n : d̃^ℓ(s_i, v); the table's rows, never mutated *)
  w1 : float array array; (* w'_S *)
  dg1 : float array array; (* SP distances on (G'_S, w'_S) *)
  nk : int array array; (* N^k positions *)
  w2 : float array array; (* w''_S *)
  dt_overlay : float array array; (* |S| x |S| *)
}

let floyd_warshall w =
  let b = Array.length w in
  let d = Array.map Array.copy w in
  for i = 0 to b - 1 do
    d.(i).(i) <- 0.0
  done;
  for via = 0 to b - 1 do
    for i = 0 to b - 1 do
      for j = 0 to b - 1 do
        let cand = d.(i).(via) +. d.(via).(j) in
        if cand < d.(i).(j) then d.(i).(j) <- cand
      done
    done
  done;
  d

let k_nearest d k i =
  let b = Array.length d in
  let others = List.filter (fun j -> j <> i) (List.init b (fun j -> j)) in
  let sorted = List.sort (fun a bx -> compare (d.(i).(a), a) (d.(i).(bx), bx)) others in
  let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
  Array.of_list (take k sorted)

(* Lemma 3.2 applied to a float-weighted complete overlay: row [src]
   is d̃^{hops}(src, ·) in S-index space. Each scale's overlay graph is
   built once and serves every source. *)
let overlay_approx_rows ~w2 ~eps ~hops =
  let b = Array.length w2 in
  if b = 1 then [| [| 0.0 |] |]
  else begin
    let params = { Reweight.ell = max 1 hops; eps } in
    let max_w =
      Array.fold_left
        (fun acc row ->
          Array.fold_left (fun a x -> if x < Float.infinity && x > a then x else a) acc row)
        1.0 w2
    in
    let scales =
      let x = 2.0 *. float_of_int b *. max_w /. eps in
      int_of_float (floor (Util.Int_math.log2f (max 2.0 x))) + 1
    in
    let budget = Reweight.hop_budget params in
    let graphs =
      Array.init scales (fun i ->
          let edges = ref [] in
          for u = 0 to b - 1 do
            for v = u + 1 to b - 1 do
              if w2.(u).(v) < Float.infinity then
                edges :=
                  { Wgraph.u; v; w = Reweight.scaled_weight_f params ~i ~w:w2.(u).(v) } :: !edges
            done
          done;
          Wgraph.make ~n:b !edges)
    in
    Array.init b (fun src ->
        let best = Array.make b Float.infinity in
        best.(src) <- 0.0;
        Array.iteri
          (fun i gi ->
            let di = Dijkstra.distances_bounded gi ~src ~bound:budget in
            Array.iteri
              (fun v d ->
                if Dist.is_finite d then begin
                  let value =
                    float_of_int d *. params.eps *. float_of_int (Util.Int_math.pow 2 i)
                    /. (2.0 *. float_of_int params.ell)
                  in
                  if value < best.(v) then best.(v) <- value
                end)
              di)
          graphs;
        best)
  end

let build table ~s ~k =
  let g = Reweight.table_graph table and params = Reweight.table_params table in
  if k < 1 then invalid_arg "Skeleton.build: k < 1";
  let s_arr = Array.of_list (List.sort_uniq compare s) in
  let b = Array.length s_arr in
  if b = 0 then invalid_arg "Skeleton.build: empty S";
  if List.length s <> b then invalid_arg "Skeleton.build: duplicate members";
  Array.iter (fun v -> if v < 0 || v >= Wgraph.n g then invalid_arg "Skeleton.build: range") s_arr;
  let index = Hashtbl.create b in
  Array.iteri (fun i v -> Hashtbl.replace index v i) s_arr;
  let dt_ell = Array.map (fun src -> Reweight.row table ~src) s_arr in
  let w1 =
    Array.init b (fun i ->
        Array.init b (fun j -> if i = j then 0.0 else dt_ell.(i).(s_arr.(j))))
  in
  (* d̃^ℓ is symmetric in exact arithmetic; enforce symmetry to be safe. *)
  for i = 0 to b - 1 do
    for j = i + 1 to b - 1 do
      let m = Float.min w1.(i).(j) w1.(j).(i) in
      w1.(i).(j) <- m;
      w1.(j).(i) <- m
    done
  done;
  let dg1 = floyd_warshall w1 in
  let nk = Array.init b (fun i -> k_nearest dg1 k i) in
  let w2 = Array.map Array.copy w1 in
  for i = 0 to b - 1 do
    Array.iter
      (fun j ->
        w2.(i).(j) <- dg1.(i).(j);
        w2.(j).(i) <- dg1.(i).(j))
      nk.(i)
  done;
  let hop_budget = Util.Int_math.ceil_div (4 * b) k in
  let dt_overlay = overlay_approx_rows ~w2 ~eps:params.eps ~hops:hop_budget in
  { base = g; s_arr; index; params; k; hop_budget; dt_ell; w1; dg1; nk; w2; dt_overlay }

let s_nodes t = Array.copy t.s_arr
let s_index t v = Hashtbl.find_opt t.index v
let overlay_hop_budget t = t.hop_budget
let w_prime t = t.w1
let w_dprime t = t.w2
let knn t = t.nk

let require_member t s =
  match Hashtbl.find_opt t.index s with
  | Some i -> i
  | None -> invalid_arg "Skeleton: node not in S"

let dtilde_ell t ~s = t.dt_ell.(require_member t s)

let overlay_approx t ~s ~u = t.dt_overlay.(require_member t s).(require_member t u)

let approx_distances_from t ~s =
  let si = require_member t s in
  let n = Wgraph.n t.base in
  let b = Array.length t.s_arr in
  Array.init n (fun v ->
      let best = ref Float.infinity in
      for ui = 0 to b - 1 do
        let cand = t.dt_overlay.(si).(ui) +. t.dt_ell.(ui).(v) in
        if cand < !best then best := cand
      done;
      !best)

let approx_distance t ~s ~v = (approx_distances_from t ~s).(v)

let approx_eccentricity t ~s =
  Array.fold_left Float.max 0.0 (approx_distances_from t ~s)

let overlay_hop_diameter t =
  let b = Array.length t.s_arr in
  if b = 1 then 0
  else begin
    (* BFS on the overlay topology restricted to finite-weight edges;
       every pair is adjacent in the complete graph, but hop diameter
       of the *weighted* overlay means hops along shortest paths, which
       is what Theorem 3.10 bounds. We measure min-hop count among
       weighted shortest paths with a lexicographic Floyd–Warshall. *)
    let inf = Float.infinity in
    let d = Array.map Array.copy t.w2 in
    let h = Array.init b (fun i -> Array.init b (fun j -> if i = j then 0 else 1)) in
    for i = 0 to b - 1 do
      d.(i).(i) <- 0.0
    done;
    for via = 0 to b - 1 do
      for i = 0 to b - 1 do
        for j = 0 to b - 1 do
          if d.(i).(via) < inf && d.(via).(j) < inf then begin
            let cand = d.(i).(via) +. d.(via).(j) in
            let candh = h.(i).(via) + h.(via).(j) in
            if
              cand < d.(i).(j) -. 1e-9
              || (Float.abs (cand -. d.(i).(j)) <= 1e-9 && candh < h.(i).(j))
            then begin
              d.(i).(j) <- Float.min cand d.(i).(j);
              h.(i).(j) <- candh
            end
          end
        done
      done
    done;
    let best = ref 0 in
    let disconnected = ref false in
    for i = 0 to b - 1 do
      for j = 0 to b - 1 do
        if d.(i).(j) >= inf then disconnected := true else if h.(i).(j) > !best then best := h.(i).(j)
      done
    done;
    if !disconnected then max_int else !best
  end

let check_good_approximation t ~eps =
  let g = t.base in
  let ok = ref true in
  Array.iter
    (fun s ->
      let approx = approx_distances_from t ~s in
      let exact = Dijkstra.distances g ~src:s in
      Array.iteri
        (fun v d ->
          if Dist.is_finite d then begin
            let a = approx.(v) in
            let d = float_of_int d in
            if a < d -. 1e-6 then ok := false;
            if a > (((1.0 +. eps) ** 2.0) *. d) +. 1e-6 then ok := false
          end)
        exact)
    t.s_arr;
  !ok
