(* Not fanned out over the domain pool: sweep workers call these
   oracles, and a fan-out inside each of J workers would hold up to J^2
   domains. *)

let all_distances g = Array.init (Wgraph.n g) (fun src -> Dijkstra.distances g ~src)

let eccentricities g = Array.init (Wgraph.n g) (fun src -> Dijkstra.eccentricity g ~src)

let weighted_diameter g =
  let n = Wgraph.n g in
  if n <= 1 then 0 else Array.fold_left max 0 (eccentricities g)

let weighted_radius g =
  let n = Wgraph.n g in
  if n <= 1 then 0 else Array.fold_left min Dist.inf (eccentricities g)

let center g =
  let ecc = eccentricities g in
  let best = ref 0 in
  Array.iteri (fun i e -> if Dist.compare e ecc.(!best) < 0 then best := i) ecc;
  !best

let peripheral_pair g =
  (* The first (lowest-u, then lowest-v) pair at the maximum finite
     distance: strict [>] keeps the earliest. *)
  let best = ref (0, 0) and best_d = ref (-1) in
  for u = 0 to Wgraph.n g - 1 do
    Array.iteri
      (fun v d ->
        if Dist.is_finite d && d > !best_d then begin
          best_d := d;
          best := (u, v)
        end)
      (Dijkstra.distances g ~src:u)
  done;
  !best
