type variant = Diameter_gadget | Radius_gadget

type node_kind =
  | Tree of { depth : int; pos : int }
  | Path of { path : int; pos : int }
  | A of int
  | B of int
  | A_router of { j : int; bit : int }
  | B_router of { j : int; bit : int }
  | A_star of int
  | B_star of int
  | A_zero

type params = {
  h : int;
  s : int;
  ell : int;
  m : int;
  expected_n : int;
}

let params_of_h ~h =
  if h < 2 || h mod 2 <> 0 then invalid_arg "Gadget.params_of_h: h must be even and >= 2";
  let s = 3 * h / 2 in
  let ell = Util.Int_math.pow 2 (s - h) in
  let m = (2 * s) + ell in
  let expected_n =
    Util.Int_math.pow 2 (h + 1) - 1 + (m * (Util.Int_math.pow 2 h + 2))
    + (2 * Util.Int_math.pow 2 s)
  in
  { h; s; ell; m; expected_n }

type t = {
  graph : Graphlib.Wgraph.t;
  variant : variant;
  p : params;
  alpha : int;
  beta : int;
  input : Boolfun.input;
  kind_of : node_kind array;
}

let bin ~i ~j =
  if i < 1 || j < 1 then invalid_arg "Gadget.bin";
  ((i - 1) lsr (j - 1)) land 1

type side = Server_side | Alice_side | Bob_side

let side_of = function
  | Tree _ | Path _ -> Server_side
  | A _ | A_router _ | A_star _ | A_zero -> Alice_side
  | B _ | B_router _ | B_star _ -> Bob_side

let build ~variant ~h ~input () =
  let p = params_of_h ~h in
  let { h; s; ell; m; expected_n } = p in
  let two_h = Util.Int_math.pow 2 h in
  let two_s = Util.Int_math.pow 2 s in
  if Array.length input.Boolfun.x <> two_s * ell || Array.length input.Boolfun.y <> two_s * ell
  then invalid_arg "Gadget.build: input size mismatch";
  let n_total = expected_n + (match variant with Radius_gadget -> 1 | Diameter_gadget -> 0) in
  let alpha = expected_n * expected_n in
  let beta = 2 * alpha in
  (* Enumerate nodes and assign ids. *)
  let kinds = ref [] in
  for depth = 0 to h do
    for pos = 1 to Util.Int_math.pow 2 depth do
      kinds := Tree { depth; pos } :: !kinds
    done
  done;
  for path = 1 to m do
    for pos = 1 to two_h do
      kinds := Path { path; pos } :: !kinds
    done
  done;
  for i = 1 to two_s do
    kinds := A i :: !kinds;
    kinds := B i :: !kinds
  done;
  for j = 1 to s do
    kinds := A_router { j; bit = 0 } :: !kinds;
    kinds := A_router { j; bit = 1 } :: !kinds;
    kinds := B_router { j; bit = 0 } :: !kinds;
    kinds := B_router { j; bit = 1 } :: !kinds
  done;
  for j = 1 to ell do
    kinds := A_star j :: !kinds;
    kinds := B_star j :: !kinds
  done;
  (match variant with Radius_gadget -> kinds := A_zero :: !kinds | Diameter_gadget -> ());
  let kind_of = Array.of_list (List.rev !kinds) in
  assert (Array.length kind_of = n_total);
  let id_tbl = Hashtbl.create n_total in
  Array.iteri (fun id k -> Hashtbl.replace id_tbl k id) kind_of;
  let id k = Hashtbl.find id_tbl k in
  let edges = ref [] in
  let add u v w = edges := { Graphlib.Wgraph.u = id u; v = id v; w } :: !edges in
  (* E_S: tree edges (weight 1). *)
  for depth = 1 to h do
    for pos = 1 to Util.Int_math.pow 2 depth do
      add (Tree { depth; pos }) (Tree { depth = depth - 1; pos = (pos + 1) / 2 }) 1
    done
  done;
  (* E_S: path edges (weight 1). *)
  for path = 1 to m do
    for pos = 2 to two_h do
      add (Path { path; pos }) (Path { path; pos = pos - 1 }) 1
    done
  done;
  (* E_S: leaf-to-path edges (weight α). *)
  for path = 1 to m do
    for pos = 1 to two_h do
      add (Tree { depth = h; pos }) (Path { path; pos }) alpha
    done
  done;
  (* E' (weight 1): router/star plugs, with the crossed-bit convention. *)
  for j = 1 to s do
    add (A_router { j; bit = 0 }) (Path { path = (2 * j) - 1; pos = 1 }) 1;
    add (B_router { j; bit = 1 }) (Path { path = (2 * j) - 1; pos = two_h }) 1;
    add (A_router { j; bit = 1 }) (Path { path = 2 * j; pos = 1 }) 1;
    add (B_router { j; bit = 0 }) (Path { path = 2 * j; pos = two_h }) 1
  done;
  for j = 1 to ell do
    add (A_star j) (Path { path = (2 * s) + j; pos = 1 }) 1;
    add (B_star j) (Path { path = (2 * s) + j; pos = two_h }) 1
  done;
  (* E_A / E_B: address spokes (α), input spokes (α/β), cliques (α). *)
  for i = 1 to two_s do
    for j = 1 to s do
      add (A i) (A_router { j; bit = bin ~i ~j }) alpha;
      add (B i) (B_router { j; bit = bin ~i ~j }) alpha
    done;
    for j = 1 to ell do
      let wx = if input.Boolfun.x.(((i - 1) * ell) + (j - 1)) then alpha else beta in
      let wy = if input.Boolfun.y.(((i - 1) * ell) + (j - 1)) then alpha else beta in
      add (A i) (A_star j) wx;
      add (B i) (B_star j) wy
    done
  done;
  for i = 1 to two_s do
    for i' = i + 1 to two_s do
      add (A i) (A i') alpha;
      add (B i) (B i') alpha
    done
  done;
  (match variant with
  | Radius_gadget ->
    for i = 1 to two_s do
      add A_zero (A i) (2 * alpha)
    done
  | Diameter_gadget -> ());
  let graph = Graphlib.Wgraph.make ~n:n_total !edges in
  { graph; variant; p; alpha; beta; input; kind_of }

let id_of t k =
  let n = Array.length t.kind_of in
  let rec find i = if i >= n then raise Not_found else if t.kind_of.(i) = k then i else find (i + 1) in
  find 0

let structural_ok t =
  let { h; m; expected_n; _ } = t.p in
  let n = Graphlib.Wgraph.n t.graph in
  let expected =
    expected_n + (match t.variant with Radius_gadget -> 1 | Diameter_gadget -> 0)
  in
  let count_ok = n = expected in
  let connected = Graphlib.Wgraph.is_connected t.graph in
  (* Every edge's weight must be 1, α, β or 2α, and weight-1 edges only
     inside the server part or as E' plugs. *)
  let weights_ok =
    List.for_all
      (fun { Graphlib.Wgraph.u; v; w } ->
        let ku = t.kind_of.(u) and kv = t.kind_of.(v) in
        if w = 1 then
          match (ku, kv) with
          | (Tree _ | Path _), (Tree _ | Path _)
          | (A_router _ | A_star _ | B_router _ | B_star _), Path _
          | Path _, (A_router _ | A_star _ | B_router _ | B_star _) ->
            true
          | _ -> false
        else
          w = t.alpha || w = t.beta
          || (w = 2 * t.alpha && (ku = A_zero || kv = A_zero)))
      (Graphlib.Wgraph.edges t.graph)
  in
  (* Each path must really have 2^h nodes and m paths exist. *)
  let path_count =
    Array.fold_left
      (fun acc k -> match k with Path { pos = 1; _ } -> acc + 1 | _ -> acc)
      0 t.kind_of
  in
  let leaf_count =
    Array.fold_left
      (fun acc k -> match k with Tree { depth; _ } when depth = h -> acc + 1 | _ -> acc)
      0 t.kind_of
  in
  count_ok && connected && weights_ok && path_count = m && leaf_count = Util.Int_math.pow 2 h
