(* The exact-baseline hot loop: every approximation in the repo is
   ground-truthed by n of these sweeps, so the relaxation loop runs on
   the graph's CSR arrays — flat unboxed arrays end to end, no
   closure-based comparator, no tuple boxing. Dist.t = int, so a
   tentative distance and its node pack into one word,
   [(d lsl shift) lor v], and the frontier is a plain lazy-deletion
   Util.Int_heap of those words: stale entries are skipped via the
   [du = dist.(u)] settled check, and there is no position index to
   maintain on every sift. When the weights are so large that packing
   could overflow (finite distances are < n * max_w + 1), the loop
   falls back to the indexed heap. Both loops relax an arc only to a
   distance within [bound]: with positive weights every prefix of a
   path within the bound is within it too, so the distances within it
   come out exact and the rest stay [Dist.inf]. *)

let node_shift n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

let run_dijkstra_packed g ~src ~parent ~bound ~shift =
  let n = Wgraph.n g in
  let { Wgraph.row_start; csr_dst; csr_w } = Wgraph.csr g in
  let dist = Array.make n Dist.inf in
  let heap = Util.Int_heap.create ~capacity:64 () in
  dist.(src) <- 0;
  Util.Int_heap.push heap src;
  let mask = (1 lsl shift) - 1 in
  while not (Util.Int_heap.is_empty heap) do
    let packed = Util.Int_heap.pop_exn heap in
    let u = packed land mask in
    let du = packed lsr shift in
    if du = dist.(u) then
      for i = row_start.(u) to row_start.(u + 1) - 1 do
        let v = csr_dst.(i) in
        let cand = du + csr_w.(i) in
        if cand <= bound && cand < dist.(v) then begin
          dist.(v) <- cand;
          (match parent with Some p -> p.(v) <- u | None -> ());
          Util.Int_heap.push heap ((cand lsl shift) lor v)
        end
      done
  done;
  dist

let run_dijkstra_pq g ~src ~parent ~bound =
  let n = Wgraph.n g in
  let { Wgraph.row_start; csr_dst; csr_w } = Wgraph.csr g in
  let dist = Array.make n Dist.inf in
  let pq = Util.Int_pq.create ~n in
  dist.(src) <- 0;
  Util.Int_pq.insert pq ~key:src ~prio:0;
  let continue = ref true in
  while !continue do
    match Util.Int_pq.pop_min pq with
    | None -> continue := false
    | Some (u, du) ->
      if du = dist.(u) then
        for i = row_start.(u) to row_start.(u + 1) - 1 do
          let v = csr_dst.(i) in
          let cand = Dist.add du csr_w.(i) in
          if cand <= bound && cand < dist.(v) then begin
            dist.(v) <- cand;
            (match parent with Some p -> p.(v) <- u | None -> ());
            Util.Int_pq.insert_or_decrease pq ~key:v ~prio:cand
          end
        done
  done;
  dist

let run_dijkstra g ~src ~parent ~bound =
  let n = Wgraph.n g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.distances";
  let shift = node_shift n in
  (* Packing is safe iff every finite tentative distance (< n * max_w
     + 1, all weights positive) survives the shift. *)
  if bound < 0 then Array.make n Dist.inf (* not even [src] is within it *)
  else if Wgraph.max_weight g <= (max_int lsr (shift + 1)) / max 1 n then
    run_dijkstra_packed g ~src ~parent ~bound ~shift
  else run_dijkstra_pq g ~src ~parent ~bound

let distances g ~src = run_dijkstra g ~src ~parent:None ~bound:Dist.inf

let distances_bounded g ~src ~bound = run_dijkstra g ~src ~parent:None ~bound

let bounded_hop_distances g ~src ~hops =
  let n = Wgraph.n g in
  if src < 0 || src >= n then invalid_arg "Dijkstra.bounded_hop_distances";
  if hops < 0 then invalid_arg "Dijkstra.bounded_hop_distances: negative hops";
  (* d.(v) after iteration t = least length over paths of <= t edges. *)
  let cur = Array.make n Dist.inf in
  cur.(src) <- 0;
  let next = Array.copy cur in
  let edges = Wgraph.edge_array g in
  let changed = ref true in
  let t = ref 0 in
  while !changed && !t < hops do
    changed := false;
    Array.blit cur 0 next 0 n;
    Array.iter
      (fun { Wgraph.u; v; w } ->
        let cand_v = Dist.add cur.(u) w in
        if cand_v < next.(v) then begin
          next.(v) <- cand_v;
          changed := true
        end;
        let cand_u = Dist.add cur.(v) w in
        if cand_u < next.(u) then begin
          next.(u) <- cand_u;
          changed := true
        end)
      edges;
    Array.blit next 0 cur 0 n;
    incr t
  done;
  cur

let path g ~src ~dst =
  let n = Wgraph.n g in
  let parent = Array.make n (-1) in
  let dist = run_dijkstra g ~src ~parent:(Some parent) ~bound:Dist.inf in
  if Dist.is_inf dist.(dst) then None
  else begin
    let rec walk v acc = if v = src then src :: acc else walk parent.(v) (v :: acc) in
    Some (walk dst [])
  end

let eccentricity g ~src = Array.fold_left max 0 (distances g ~src)
