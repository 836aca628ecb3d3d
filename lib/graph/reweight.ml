type params = { ell : int; eps : float }

let check params =
  if params.ell < 1 then invalid_arg "Reweight: ell < 1";
  if params.eps <= 0.0 || params.eps > 1.0 then invalid_arg "Reweight: eps out of (0,1]"

let num_scales ~n ~max_w ~eps =
  if n < 1 || max_w < 1 then invalid_arg "Reweight.num_scales";
  let x = 2.0 *. float_of_int n *. float_of_int max_w /. eps in
  int_of_float (floor (Util.Int_math.log2f x)) + 1

let scaled_weight_f params ~i ~w =
  check params;
  if w <= 0.0 then invalid_arg "Reweight.scaled_weight_f: non-positive";
  let denom = params.eps *. float_of_int (Util.Int_math.pow 2 i) in
  let v = ceil (2.0 *. float_of_int params.ell *. w /. denom) in
  Int.max 1 (int_of_float v)

let scaled_weight params ~i ~w = scaled_weight_f params ~i ~w:(float_of_int w)

(* [2ℓ] and the divisor [ε·2^i] of every scale [i < scales]. The
   scalers below apply the same float operations as [scaled_weight_f],
   in the same order, so every value is bit-identical. *)
let divisors params ~scales =
  check params;
  ( 2.0 *. float_of_int params.ell,
    Array.init scales (fun i -> params.eps *. float_of_int (Util.Int_math.pow 2 i)) )

let scaler params ~scales =
  let two_ell, denom = divisors params ~scales in
  fun ~i ~w -> Int.max 1 (int_of_float (ceil (two_ell *. float_of_int w /. denom.(i))))

let scaler_f params ~scales =
  let two_ell, denom = divisors params ~scales in
  fun ~i ~w -> Int.max 1 (int_of_float (ceil (two_ell *. w /. denom.(i))))

let scaled_graph g params ~i =
  Wgraph.map_weights g ~f:(fun ~u:_ ~v:_ ~w -> scaled_weight params ~i ~w)

let hop_budget params =
  check params;
  int_of_float (ceil ((1.0 +. (2.0 /. params.eps)) *. float_of_int params.ell))

let unscale params ~i d =
  float_of_int d *. params.eps *. float_of_int (Util.Int_math.pow 2 i)
  /. (2.0 *. float_of_int params.ell)

type table = {
  g : Wgraph.t;
  params : params;
  budget : int;
  scaled : Wgraph.t option array;  (* (G, w_i), per scale *)
  rows : float array option array;  (* d̃^ℓ(s, ·), per source *)
}

let table g params =
  check params;
  let n = Wgraph.n g in
  let scales = num_scales ~n ~max_w:(Wgraph.max_weight g) ~eps:params.eps in
  {
    g;
    params;
    budget = hop_budget params;
    scaled = Array.make scales None;
    rows = Array.make n None;
  }

let table_graph t = t.g
let table_params t = t.params

let scale_graph t i =
  match t.scaled.(i) with
  | Some gi -> gi
  | None ->
    let gi = scaled_graph t.g t.params ~i in
    t.scaled.(i) <- Some gi;
    gi

let row t ~src =
  let n = Wgraph.n t.g in
  if src < 0 || src >= n then invalid_arg "Reweight.row: source out of range";
  match t.rows.(src) with
  | Some best -> best
  | None ->
    let best = Array.make n Float.infinity in
    for i = 0 to Array.length t.scaled - 1 do
      let di = Dijkstra.distances_bounded (scale_graph t i) ~src ~bound:t.budget in
      Array.iteri
        (fun v d ->
          if Dist.is_finite d then begin
            let value = unscale t.params ~i d in
            if value < best.(v) then best.(v) <- value
          end)
        di
    done;
    t.rows.(src) <- Some best;
    best

let approx_from g params ~src = row (table g params) ~src

let check_sandwich g params ~src =
  let n = Wgraph.n g in
  let approx = row (table g params) ~src in
  let exact = Dijkstra.distances g ~src in
  let hop_limited = Dijkstra.bounded_hop_distances g ~src ~hops:params.ell in
  let ok = ref true in
  for v = 0 to n - 1 do
    (* Lower bound must hold whenever d̃ is finite. *)
    if approx.(v) < Float.infinity then begin
      if Dist.is_inf exact.(v) then ok := false
      else if approx.(v) < float_of_int exact.(v) -. 1e-9 then ok := false
    end;
    (* Upper bound holds whenever d^ℓ is finite. *)
    if Dist.is_finite hop_limited.(v) then begin
      let ub = (1.0 +. params.eps) *. float_of_int hop_limited.(v) in
      if approx.(v) > ub +. 1e-9 then ok := false
    end
  done;
  !ok
