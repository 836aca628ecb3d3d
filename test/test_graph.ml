(* Tests for lib/graph: representation, generators, exact algorithms,
   and the paper's Lemma 3.2 / 3.3 / 4.3 reference machinery. *)

open Graphlib

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rng () = Util.Rng.create ~seed:2024

let random_graph ?(max_n = 24) ?(max_w = 10) seed =
  let rng = Util.Rng.create ~seed in
  let n = 2 + Util.Rng.int rng (max_n - 1) in
  Gen.gnp_connected ~n ~p:0.15 ~weighting:(Gen.Uniform { max_w }) ~rng

(* ------------------------------ Dist ------------------------------ *)

let test_dist () =
  checkb "inf is inf" true (Dist.is_inf Dist.inf);
  checkb "0 finite" true (Dist.is_finite 0);
  check "add" 5 (Dist.add 2 3);
  checkb "add inf" true (Dist.is_inf (Dist.add Dist.inf 3));
  Alcotest.(check string) "to_string" "inf" (Dist.to_string Dist.inf);
  Alcotest.(check string) "to_string fin" "7" (Dist.to_string 7);
  Alcotest.check_raises "to_int inf" (Invalid_argument "Dist.to_int_exn: infinite") (fun () ->
      ignore (Dist.to_int_exn Dist.inf));
  checkb "scale inf" true (Dist.is_inf (Dist.scale_up_exn Dist.inf 3));
  check "scale" 12 (Dist.scale_up_exn 4 3)

(* The saturating edges of [Dist]: sums and products that reach the
   sentinel return exactly [inf], [inf] absorbs on either side, and
   [min]/[compare] order [inf] above every finite value. *)
let test_dist_saturation () =
  let inf = Dist.inf in
  let sign c = Int.compare c 0 in
  check "add below the bound" (inf - 1) (Dist.add (inf - 2) 1);
  check "add at the bound" inf (Dist.add (inf - 1) 1);
  check "add past the bound" inf (Dist.add (inf - 1) (inf - 1));
  check "add halves past the bound" inf (Dist.add ((inf / 2) + 1) ((inf / 2) + 1));
  check "add inf left" inf (Dist.add inf 5);
  check "add inf right" inf (Dist.add 5 inf);
  check "add inf zero" inf (Dist.add inf 0);
  check "add zero inf" inf (Dist.add 0 inf);
  check "add inf inf" inf (Dist.add inf inf);
  check "add zeros" 0 (Dist.add 0 0);
  Alcotest.check_raises "add negative" (Invalid_argument "Dist.add: negative") (fun () ->
      ignore (Dist.add (-1) inf));
  check "min inf finite" 7 (Dist.min inf 7);
  check "min finite inf" 7 (Dist.min 7 inf);
  check "min equal" 3 (Dist.min 3 3);
  check "min inf inf" inf (Dist.min inf inf);
  check "compare inf finite" 1 (sign (Dist.compare inf 7));
  check "compare finite inf" (-1) (sign (Dist.compare 7 inf));
  check "compare near bound" (-1) (sign (Dist.compare (inf - 1) inf));
  check "compare equal" 0 (Dist.compare 4 4);
  check "compare inf inf" 0 (Dist.compare inf inf);
  check "scale below the bound" (inf - 1) (Dist.scale_up_exn (inf / 2) 2);
  List.iter
    (fun c ->
      check (Printf.sprintf "scale saturates x%d" c) inf (Dist.scale_up_exn (inf - 1) c))
    [ 2; 3; 4 ];
  check "scale at the bound" inf (Dist.scale_up_exn ((inf / 3) + 1) 3);
  check "scale zero" 0 (Dist.scale_up_exn 0 5);
  check "scale by one" (inf - 1) (Dist.scale_up_exn (inf - 1) 1);
  Alcotest.check_raises "scale by zero" (Invalid_argument "Dist.scale_up_exn") (fun () ->
      ignore (Dist.scale_up_exn 4 0))

(* ----------------------------- Wgraph ----------------------------- *)

let test_wgraph_build () =
  let g = Wgraph.make ~n:4 [ { Wgraph.u = 0; v = 1; w = 2 }; { u = 2; v = 1; w = 3 } ] in
  check "n" 4 (Wgraph.n g);
  check "m" 2 (Wgraph.m g);
  check "degree 1" 2 (Wgraph.degree g 1);
  Alcotest.(check (option int)) "weight" (Some 2) (Wgraph.weight g 1 0);
  Alcotest.(check (option int)) "no edge" None (Wgraph.weight g 0 3);
  check "max weight" 3 (Wgraph.max_weight g);
  checkb "disconnected" false (Wgraph.is_connected g)

let test_wgraph_parallel_edges () =
  let g =
    Wgraph.make ~n:2
      [ { Wgraph.u = 0; v = 1; w = 5 }; { u = 1; v = 0; w = 2 }; { u = 0; v = 1; w = 9 } ]
  in
  check "dedup to min" 1 (Wgraph.m g);
  Alcotest.(check (option int)) "min weight kept" (Some 2) (Wgraph.weight g 0 1)

let test_wgraph_errors () =
  Alcotest.check_raises "self loop" (Invalid_argument "Wgraph.make: self-loop") (fun () ->
      ignore (Wgraph.make ~n:2 [ { Wgraph.u = 1; v = 1; w = 1 } ]));
  Alcotest.check_raises "bad weight" (Invalid_argument "Wgraph.make: non-positive weight")
    (fun () -> ignore (Wgraph.make ~n:2 [ { Wgraph.u = 0; v = 1; w = 0 } ]));
  Alcotest.check_raises "range" (Invalid_argument "Wgraph.make: endpoint out of range")
    (fun () -> ignore (Wgraph.make ~n:2 [ { Wgraph.u = 0; v = 5; w = 1 } ]))

let test_wgraph_induced () =
  let rng = rng () in
  let g = Gen.cycle ~n:6 ~weighting:Gen.Unit ~rng in
  let sub, mapping = Wgraph.induced g [ 0; 1; 2 ] in
  check "sub n" 3 (Wgraph.n sub);
  check "sub m" 2 (Wgraph.m sub);
  check "mapping" 2 mapping.(2)

let test_unit_weights () =
  let rng = rng () in
  let g = Gen.path ~n:5 ~weighting:(Gen.Uniform { max_w = 9 }) ~rng in
  let u = Wgraph.with_unit_weights g in
  check "same m" (Wgraph.m g) (Wgraph.m u);
  check "unit W" 1 (Wgraph.max_weight u)

(* --------------------------- Generators --------------------------- *)

let test_generator_shapes () =
  let rng = rng () in
  let path = Gen.path ~n:10 ~weighting:Gen.Unit ~rng in
  check "path diameter" 9 (Bfs.diameter path);
  let cyc = Gen.cycle ~n:10 ~weighting:Gen.Unit ~rng in
  check "cycle diameter" 5 (Bfs.diameter cyc);
  let star = Gen.star ~n:10 ~weighting:Gen.Unit ~rng in
  check "star diameter" 2 (Bfs.diameter star);
  let k5 = Gen.complete ~n:5 ~weighting:Gen.Unit ~rng in
  check "K5 edges" 10 (Wgraph.m k5);
  check "K5 diameter" 1 (Bfs.diameter k5);
  let grid = Gen.grid ~rows:3 ~cols:4 ~weighting:Gen.Unit ~rng in
  check "grid n" 12 (Wgraph.n grid);
  check "grid diameter" 5 (Bfs.diameter grid)

let test_cliques_cycle () =
  let rng = rng () in
  let g = Gen.cliques_cycle ~cliques:6 ~clique_size:5 ~weighting:Gen.Unit ~rng in
  check "n" 30 (Wgraph.n g);
  checkb "connected" true (Wgraph.is_connected g);
  let d = Bfs.diameter g in
  checkb "diameter Θ(cliques)" true (d >= 6 && d <= 13)

let test_barbell () =
  let rng = rng () in
  let g = Gen.barbell ~clique_size:5 ~path_len:7 ~weighting:Gen.Unit ~rng in
  check "n" 17 (Wgraph.n g);
  checkb "connected" true (Wgraph.is_connected g);
  check "diameter" 10 (Bfs.diameter g)

let test_weighted_hard () =
  let rng = rng () in
  let g = Gen.weighted_hard_diameter ~n:40 ~heavy:1000 ~rng in
  checkb "connected" true (Wgraph.is_connected g);
  checkb "low hop diameter" true (Bfs.diameter g <= 3);
  checkb "weighted diameter much larger" true (Apsp.weighted_diameter g > 10)

(* A chain of one clique is the complete graph, edge for edge and
   weight for weight from the same RNG stream, so no caller needs a
   [cliques = 1] branch. *)
let test_one_clique_chain () =
  List.iter
    (fun max_w ->
      for n = 2 to 64 do
        for seed = 1 to 3 do
          let weighting = Gen.Uniform { max_w } in
          let chain =
            Gen.cliques_path ~cliques:1 ~clique_size:n ~weighting
              ~rng:(Util.Rng.create ~seed)
          in
          let complete = Gen.complete ~n ~weighting ~rng:(Util.Rng.create ~seed) in
          check (Printf.sprintf "n of n=%d seed=%d W=%d" n seed max_w) n (Wgraph.n chain);
          checkb
            (Printf.sprintf "edges of n=%d seed=%d W=%d" n seed max_w)
            true
            (Wgraph.edge_array chain = Wgraph.edge_array complete)
        done
      done)
    [ 1; 16 ]

let prop_gnp_connected =
  QCheck.Test.make ~name:"gnp_connected is connected" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Util.Rng.create ~seed in
      Wgraph.is_connected (Gen.gnp_connected ~n ~p:0.05 ~weighting:Gen.Unit ~rng))

let prop_tree_edges =
  QCheck.Test.make ~name:"random_tree has n-1 edges and is connected" ~count:50
    QCheck.(pair (int_range 1 50) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Util.Rng.create ~seed in
      let t = Gen.random_tree ~n ~weighting:Gen.Unit ~rng in
      Wgraph.m t = n - 1 && Wgraph.is_connected t)

(* ------------------------- BFS / Dijkstra ------------------------- *)

let prop_dijkstra_matches_bfs_on_unit =
  QCheck.Test.make ~name:"dijkstra = bfs on unit weights" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Wgraph.with_unit_weights (random_graph seed) in
      let d1 = Dijkstra.distances g ~src:0 in
      let d2 = Bfs.distances g ~src:0 in
      d1 = d2)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Wgraph.n g in
      let d0 = Dijkstra.distances g ~src:0 in
      let ok = ref true in
      for m = 0 to n - 1 do
        let dm = Dijkstra.distances g ~src:m in
        for v = 0 to n - 1 do
          if Dist.compare d0.(v) (Dist.add d0.(m) dm.(v)) > 0 then ok := false
        done
      done;
      !ok)

let test_dijkstra_path () =
  let g =
    Wgraph.make ~n:4
      [
        { Wgraph.u = 0; v = 1; w = 1 };
        { u = 1; v = 2; w = 1 };
        { u = 0; v = 2; w = 5 };
        { u = 2; v = 3; w = 1 };
      ]
  in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ]) (Dijkstra.path g ~src:0 ~dst:3);
  let g2 = Wgraph.make ~n:3 [ { Wgraph.u = 0; v = 1; w = 1 } ] in
  Alcotest.(check (option (list int))) "unreachable" None (Dijkstra.path g2 ~src:0 ~dst:2)

let prop_bounded_hop_monotone =
  QCheck.Test.make ~name:"bounded-hop distances decrease with hops, converge to exact"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Wgraph.n g in
      let exact = Dijkstra.distances g ~src:0 in
      let prev = ref (Dijkstra.bounded_hop_distances g ~src:0 ~hops:0) in
      let ok = ref true in
      for h = 1 to n do
        let cur = Dijkstra.bounded_hop_distances g ~src:0 ~hops:h in
        for v = 0 to n - 1 do
          if Dist.compare cur.(v) !prev.(v) > 0 then ok := false;
          if Dist.compare cur.(v) exact.(v) < 0 then ok := false
        done;
        prev := cur
      done;
      !ok && !prev = exact)

(* Dijkstra packs (distance, node) into one heap word when every
   finite distance survives the shift, and falls back to the indexed
   heap otherwise. Pin both sides of that dispatch boundary against
   the Bellman-Ford oracle (bounded_hop_distances at n-1 hops, which
   never packs). *)

let packed_weight_threshold n =
  let rec shift b = if 1 lsl b >= n then b else shift (b + 1) in
  max_int lsr (shift 1 + 1) / max 1 n

let test_dijkstra_weight_boundary () =
  let n = 4 in
  let thr = packed_weight_threshold n in
  List.iter
    (fun w ->
      let g =
        Wgraph.make ~n
          [ { Wgraph.u = 0; v = 1; w }; { u = 1; v = 2; w }; { u = 2; v = 3; w } ]
      in
      let d = Dijkstra.distances g ~src:0 in
      checkb "farthest distance exact" true (d.(3) = 3 * w);
      checkb "matches hop-bounded oracle" true
        (d = Dijkstra.bounded_hop_distances g ~src:0 ~hops:(n - 1)))
    [ thr; thr + 1 ];
  (* A boundary-weight shortcut decision: the two-hop route at 2·thr
     must lose to a direct edge one cheaper, and win against one
     costlier — off-by-one packing errors flip exactly this. *)
  List.iter
    (fun (direct, expect) ->
      let g =
        Wgraph.make ~n:3
          [ { Wgraph.u = 0; v = 1; w = thr }; { u = 1; v = 2; w = thr };
            { u = 0; v = 2; w = direct } ]
      in
      checkb "shortcut choice" true ((Dijkstra.distances g ~src:0).(2) = expect))
    [ ((2 * thr) - 1, (2 * thr) - 1); ((2 * thr) + 1, 2 * thr) ]

let prop_dijkstra_scale_across_boundary =
  QCheck.Test.make ~name:"dijkstra is scale-invariant across the packed/fallback boundary"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph ~max_w:10 seed in
      let n = Wgraph.n g in
      (* Scale every weight so max_weight lands just past the packed
         threshold: the small graph takes the packed path, the scaled
         one the Int_pq fallback; distances must scale exactly. *)
      let scale = (packed_weight_threshold n / 10) + 1 in
      let big =
        Wgraph.make ~n
          (Array.to_list (Wgraph.edge_array g)
          |> List.map (fun e -> { e with Wgraph.w = e.Wgraph.w * scale }))
      in
      let d = Dijkstra.distances g ~src:0 in
      let db = Dijkstra.distances big ~src:0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        if db.(v) <> scale * d.(v) then ok := false
      done;
      !ok)

let test_bounded_distance () =
  let rng = rng () in
  let g = Gen.path ~n:6 ~weighting:(Gen.Uniform { max_w = 3 }) ~rng in
  let exact = Dijkstra.distances g ~src:0 in
  let bounded = Dijkstra.distances_bounded g ~src:0 ~bound:4 in
  Array.iteri
    (fun v d ->
      if Dist.is_finite exact.(v) && exact.(v) <= 4 then check "kept" exact.(v) d
      else checkb "cut" true (Dist.is_inf bounded.(v)))
    bounded

let prop_bounded_matches_cut =
  (* The bounded search stops relaxing at the bound; it must still
     return exactly the full search's distances cut at the bound, on
     the packed path and on the Int_pq fallback (weights scaled past
     the packing threshold), for bounds from -1 to past the farthest
     node. *)
  QCheck.Test.make ~name:"distances_bounded = distances cut at the bound" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 0 100))
    (fun (seed, pct) ->
      let g = random_graph ~max_w:10 seed in
      let n = Wgraph.n g in
      let scale = (packed_weight_threshold n / 10) + 1 in
      let big =
        Wgraph.make ~n
          (Array.to_list (Wgraph.edge_array g)
          |> List.map (fun e -> { e with Wgraph.w = e.Wgraph.w * scale }))
      in
      List.for_all
        (fun g ->
          let src = seed mod n in
          let exact = Dijkstra.distances g ~src in
          let far =
            Array.fold_left (fun acc d -> if Dist.is_finite d then max acc d else acc) 0 exact
          in
          let bound = (pct * (far + 2) / 100) - 1 in
          Dijkstra.distances_bounded g ~src ~bound
          = Array.map (fun d -> if Dist.is_finite d && d <= bound then d else Dist.inf) exact)
        [ g; big ])

(* ------------------------------ Apsp ------------------------------ *)

let test_apsp_path () =
  let g =
    Wgraph.make ~n:4
      [ { Wgraph.u = 0; v = 1; w = 2 }; { u = 1; v = 2; w = 3 }; { u = 2; v = 3; w = 4 } ]
  in
  check "diameter" 9 (Apsp.weighted_diameter g);
  check "radius" 5 (Apsp.weighted_radius g);
  check "center" 2 (Apsp.center g);
  let u, v = Apsp.peripheral_pair g in
  check "peripheral dist" 9 (Dijkstra.distances g ~src:u).(v)

let prop_radius_diameter_sandwich =
  QCheck.Test.make ~name:"R <= D <= 2R" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let d = Apsp.weighted_diameter g and r = Apsp.weighted_radius g in
      Dist.compare r d <= 0 && d <= 2 * r)

let prop_ecc_max_min =
  QCheck.Test.make ~name:"diameter/radius are max/min eccentricity" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let ecc = Apsp.eccentricities g in
      Apsp.weighted_diameter g = Array.fold_left max 0 ecc
      && Apsp.weighted_radius g = Array.fold_left min Dist.inf ecc)

(* ---------------------------- Reweight ---------------------------- *)

let prop_reweight_sandwich =
  QCheck.Test.make ~name:"Lemma 3.2 sandwich holds" ~count:60
    QCheck.(triple (int_range 0 10_000) (int_range 1 20) (int_range 1 4))
    (fun (seed, ell, e) ->
      let g = random_graph seed in
      let params = { Reweight.ell; eps = 1.0 /. float_of_int e } in
      Reweight.check_sandwich g params ~src:0)

let test_reweight_scales () =
  check "num_scales"
    (Util.Int_math.ilog2 (2 * 10 * 4 * 2) + 1)
    (Reweight.num_scales ~n:10 ~max_w:4 ~eps:0.5);
  let params = { Reweight.ell = 5; eps = 0.5 } in
  check "w_0 of 3"
    (int_of_float (ceil (2. *. 5. *. 3. /. 0.5)))
    (Reweight.scaled_weight params ~i:0 ~w:3);
  checkb "scaled >= 1" true (Reweight.scaled_weight params ~i:30 ~w:1 >= 1);
  check "hop budget" 25 (Reweight.hop_budget params)

let test_reweight_self () =
  let g = random_graph 77 in
  let params = { Reweight.ell = 5; eps = 0.5 } in
  let row = Reweight.approx_from g params ~src:0 in
  Alcotest.(check (float 1e-12)) "self distance 0" 0.0 row.(0)

(* The row loop the table replaced: rebuild (G, w_i) and rerun
   Dijkstra for every (source, scale) pair, keep accepted scales only. *)
let reference_row g params ~src =
  let n = Wgraph.n g in
  let budget = Reweight.hop_budget params in
  let scales = Reweight.num_scales ~n ~max_w:(Wgraph.max_weight g) ~eps:params.Reweight.eps in
  let best = Array.make n Float.infinity in
  for i = 0 to scales - 1 do
    let di = Dijkstra.distances (Reweight.scaled_graph g params ~i) ~src in
    Array.iteri
      (fun v d ->
        if Dist.is_finite d && d <= budget then begin
          let value =
            float_of_int d *. params.Reweight.eps
            *. float_of_int (Util.Int_math.pow 2 i)
            /. (2.0 *. float_of_int params.Reweight.ell)
          in
          if value < best.(v) then best.(v) <- value
        end)
      di
  done;
  best

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_table_row_matches_loop =
  QCheck.Test.make ~name:"Reweight.row = per-(source, scale) loop" ~count:40
    QCheck.(triple (int_range 0 10_000) (int_range 1 12) (int_range 0 2))
    (fun (seed, ell, e) ->
      let g = random_graph seed in
      let n = Wgraph.n g in
      let params = { Reweight.ell; eps = [| 0.25; 0.5; 1.0 |].(e) } in
      let table = Reweight.table g params in
      (* Every source once, then again: the second request must
         return the first one's array. *)
      let first = List.init n (fun v -> (n - 1 - v, Reweight.row table ~src:(n - 1 - v))) in
      List.for_all
        (fun (src, row) ->
          same_bits row (reference_row g params ~src) && Reweight.row table ~src == row)
        first)

let test_reweight_scaler () =
  List.iter
    (fun params ->
      let scales = 16 in
      let scaled = Reweight.scaler params ~scales in
      for i = 0 to scales - 1 do
        List.iter
          (fun w ->
            check "scaler = scaled_weight" (Reweight.scaled_weight params ~i ~w) (scaled ~i ~w))
          [ 1; 2; 3; 7; 16; 1000; 65_537 ]
      done)
    [
      { Reweight.ell = 1; eps = 1.0 };
      { Reweight.ell = 7; eps = 0.25 };
      { Reweight.ell = 192; eps = 0.5 };
    ]

let test_reweight_scaler_f () =
  (* Real weights as the overlay has them: approximate distances,
     integral or not. *)
  List.iter
    (fun params ->
      let scales = 16 in
      let scaled = Reweight.scaler_f params ~scales in
      for i = 0 to scales - 1 do
        List.iter
          (fun w ->
            check "scaler_f = scaled_weight_f" (Reweight.scaled_weight_f params ~i ~w)
              (scaled ~i ~w))
          [ 0.1; 1.0; 1.5; 2.75; 7.0; 16.125; 1000.0 /. 3.0; 65_537.0 ]
      done)
    [
      { Reweight.ell = 1; eps = 1.0 };
      { Reweight.ell = 7; eps = 0.25 };
      { Reweight.ell = 192; eps = 0.5 };
    ]

(* ---------------------------- Skeleton ---------------------------- *)

let skeleton_graph seed =
  let rng = Util.Rng.create ~seed in
  Gen.gnp_connected ~n:16 ~p:0.2 ~weighting:(Gen.Uniform { max_w = 9 }) ~rng

let test_table_shares_rows () =
  let g = skeleton_graph 11 in
  let table = Reweight.table g { Reweight.ell = 6; eps = 0.5 } in
  let a = Skeleton.build table ~s:[ 0; 1; 2 ] ~k:1 in
  let b = Skeleton.build table ~s:[ 1; 3; 9 ] ~k:2 in
  checkb "one row for a shared member" true
    (Skeleton.dtilde_ell a ~s:1 == Skeleton.dtilde_ell b ~s:1);
  checkb "the table's own row" true (Skeleton.dtilde_ell b ~s:1 == Reweight.row table ~src:1)

let test_table_warm_equals_fresh () =
  let g = skeleton_graph 12 in
  let n = Wgraph.n g in
  let params = { Reweight.ell = 5; eps = 0.5 } in
  let warm = Reweight.table g params in
  List.iter
    (fun s -> ignore (Skeleton.build warm ~s ~k:2))
    [ [ 0; 1; 2 ]; [ 2; 5; 9; 13 ]; [ 9; 15 ] ];
  let s = [ 1; 2; 9; 11; 13 ] in
  let a = Skeleton.build warm ~s ~k:2 in
  let b = Skeleton.build (Reweight.table g params) ~s ~k:2 in
  let nodes = Skeleton.s_nodes a in
  checkb "s_nodes" true (nodes = Skeleton.s_nodes b);
  for v = -1 to n do
    Alcotest.(check (option int)) "s_index" (Skeleton.s_index b v) (Skeleton.s_index a v)
  done;
  check "overlay_hop_budget" (Skeleton.overlay_hop_budget b) (Skeleton.overlay_hop_budget a);
  checkb "w_prime" true (Skeleton.w_prime a = Skeleton.w_prime b);
  checkb "w_dprime" true (Skeleton.w_dprime a = Skeleton.w_dprime b);
  checkb "knn" true (Skeleton.knn a = Skeleton.knn b);
  Array.iter
    (fun s ->
      checkb "dtilde_ell" true (same_bits (Skeleton.dtilde_ell a ~s) (Skeleton.dtilde_ell b ~s));
      Array.iter
        (fun u ->
          checkb "overlay_approx" true
            (Skeleton.overlay_approx a ~s ~u = Skeleton.overlay_approx b ~s ~u))
        nodes;
      checkb "approx_distances_from" true
        (same_bits (Skeleton.approx_distances_from a ~s) (Skeleton.approx_distances_from b ~s));
      for v = 0 to n - 1 do
        checkb "approx_distance" true
          (Skeleton.approx_distance a ~s ~v = Skeleton.approx_distance b ~s ~v)
      done;
      checkb "approx_eccentricity" true
        (Skeleton.approx_eccentricity a ~s = Skeleton.approx_eccentricity b ~s))
    nodes;
  check "overlay_hop_diameter" (Skeleton.overlay_hop_diameter b) (Skeleton.overlay_hop_diameter a);
  checkb "check_good_approximation" (Skeleton.check_good_approximation b ~eps:0.5)
    (Skeleton.check_good_approximation a ~eps:0.5)


let prop_skeleton_good_approx =
  QCheck.Test.make ~name:"Lemma 3.3 approximation on dense-enough samples" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph ~max_n:20 seed in
      let n = Wgraph.n g in
      let rng = Util.Rng.create ~seed:(seed + 1) in
      (* ℓ = n makes the hop bound vacuous, so the (1+ε)² guarantee
         must hold for any non-empty S. *)
      let s = List.sort_uniq compare (0 :: Util.Rng.subset_bernoulli rng ~n ~p:0.4) in
      let sk = Skeleton.build (Reweight.table g { Reweight.ell = n; eps = 0.5 }) ~s ~k:2 in
      Skeleton.check_good_approximation sk ~eps:0.5)

let test_skeleton_shortcut_hops () =
  let g = random_graph ~max_n:20 42 in
  let n = Wgraph.n g in
  let rng = Util.Rng.create ~seed:43 in
  let s = List.sort_uniq compare (0 :: Util.Rng.subset_bernoulli rng ~n ~p:0.5) in
  let sk = Skeleton.build (Reweight.table g { Reweight.ell = n; eps = 0.5 }) ~s ~k:3 in
  (* Theorem 3.10: hop diameter of the k-shortcut graph < 4|S|/k. *)
  let hd = Skeleton.overlay_hop_diameter sk in
  checkb "hop diameter bound" true (hd < max 1 (Skeleton.overlay_hop_budget sk) || hd = 0)

let test_skeleton_knn () =
  let g = random_graph ~max_n:16 7 in
  let n = Wgraph.n g in
  let rng = Util.Rng.create ~seed:8 in
  let s = List.sort_uniq compare (0 :: 1 :: Util.Rng.subset_bernoulli rng ~n ~p:0.5) in
  let k = 2 in
  let sk = Skeleton.build (Reweight.table g { Reweight.ell = n; eps = 0.5 }) ~s ~k in
  let b = Array.length (Skeleton.s_nodes sk) in
  Array.iter (fun nn -> check "knn size" (min k (b - 1)) (Array.length nn)) (Skeleton.knn sk);
  (* w'' is symmetric and dominated by w'. *)
  let w1 = Skeleton.w_prime sk and w2 = Skeleton.w_dprime sk in
  for i = 0 to b - 1 do
    for j = 0 to b - 1 do
      checkb "symmetric" true (w2.(i).(j) = w2.(j).(i));
      checkb "shortcut only shrinks" true (w2.(i).(j) <= w1.(i).(j) +. 1e-9)
    done
  done

let test_skeleton_membership () =
  let g = random_graph 3 in
  let sk = Skeleton.build (Reweight.table g { Reweight.ell = 10; eps = 0.5 }) ~s:[ 0; 1 ] ~k:1 in
  Alcotest.(check (option int)) "index" (Some 1) (Skeleton.s_index sk 1);
  Alcotest.(check (option int)) "absent" None (Skeleton.s_index sk 999999)

(* ------------------------------- Io -------------------------------- *)

let test_io_roundtrip () =
  let rng = rng () in
  let g = Gen.gnp_connected ~n:15 ~p:0.25 ~weighting:(Gen.Uniform { max_w = 7 }) ~rng in
  let g2 = Io.of_edge_list (Io.to_edge_list g) in
  check "same n" (Wgraph.n g) (Wgraph.n g2);
  checkb "same edges" true (Wgraph.edges g = Wgraph.edges g2)

let test_io_parse () =
  let g = Io.of_edge_list "# comment\nn 3\n0 1 5\n\n1 2 2\n" in
  check "n" 3 (Wgraph.n g);
  Alcotest.(check (option int)) "weight" (Some 5) (Wgraph.weight g 0 1);
  checkb "bad input rejected" true
    (try ignore (Io.of_edge_list "0 1 5\n"); false with Failure _ -> true);
  checkb "garbage rejected" true
    (try ignore (Io.of_edge_list "n 2\n0 x 1\n"); false with Failure _ -> true)

let test_io_files () =
  let rng = rng () in
  let g = Gen.cycle ~n:6 ~weighting:(Gen.Uniform { max_w = 4 }) ~rng in
  let path = Filename.temp_file "qcongest" ".graph" in
  Io.save g ~path;
  let g2 = Io.load ~path in
  Sys.remove path;
  checkb "roundtrip via file" true (Wgraph.edges g = Wgraph.edges g2)

let test_io_dot () =
  let rng = rng () in
  let g = Gen.path ~n:3 ~weighting:Gen.Unit ~rng in
  let dot = Io.to_dot ~name:"t" ~label:(fun v -> Printf.sprintf "v%d" v) g in
  checkb "has graph header" true (String.length dot > 10);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "mentions edge" true (contains dot "0 -- 1");
  checkb "mentions label" true (contains dot "v2")

(* --------------------------- Contraction -------------------------- *)

let test_contract_simple () =
  (* 0 -1- 1 -5- 2 -1- 3: contracting unit edges leaves two classes. *)
  let g =
    Wgraph.make ~n:4
      [ { Wgraph.u = 0; v = 1; w = 1 }; { u = 1; v = 2; w = 5 }; { u = 2; v = 3; w = 1 } ]
  in
  let r = Contraction.contract_unit_edges g in
  check "classes" 2 (Wgraph.n r.Contraction.graph);
  check "edges" 1 (Wgraph.m r.Contraction.graph);
  check "same class" r.Contraction.class_of.(0) r.Contraction.class_of.(1);
  checkb "diff class" true (r.Contraction.class_of.(1) <> r.Contraction.class_of.(2))

let test_contract_parallel_min () =
  (* Contraction creates parallel edges; the lightest must survive. *)
  let g =
    Wgraph.make ~n:4
      [
        { Wgraph.u = 0; v = 1; w = 1 };
        { u = 0; v = 2; w = 7 };
        { u = 1; v = 2; w = 3 };
        { u = 2; v = 3; w = 1 };
      ]
  in
  let r = Contraction.contract_unit_edges g in
  check "classes" 2 (Wgraph.n r.Contraction.graph);
  let c0 = r.Contraction.class_of.(0) and c2 = r.Contraction.class_of.(2) in
  Alcotest.(check (option int)) "min parallel" (Some 3) (Wgraph.weight r.Contraction.graph c0 c2)

let prop_lemma_4_3 =
  QCheck.Test.make ~name:"Lemma 4.3: contraction distorts D and R by at most n" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph ~max_w:5 seed in
      Contraction.check_lemma_4_3 g)

(* ------------------------ CSR / representation --------------------- *)

let test_wgraph_csr_structure () =
  let g = random_graph 42 in
  let n = Wgraph.n g in
  let { Wgraph.row_start; csr_dst; csr_w } = Wgraph.csr g in
  check "row_start length" (n + 1) (Array.length row_start);
  check "arcs = 2m" (2 * Wgraph.m g) row_start.(n);
  check "dst length" row_start.(n) (Array.length csr_dst);
  check "w length" row_start.(n) (Array.length csr_w);
  for u = 0 to n - 1 do
    checkb "rows monotone" true (row_start.(u) <= row_start.(u + 1));
    let nbrs = Wgraph.neighbors g u in
    check "row = degree" (Array.length nbrs) (row_start.(u + 1) - row_start.(u));
    Array.iteri
      (fun i (v, w) ->
        let a = row_start.(u) + i in
        check "csr dst = neighbors" v csr_dst.(a);
        check "csr w = neighbors" w csr_w.(a);
        if i > 0 then checkb "row sorted" true (csr_dst.(a - 1) < csr_dst.(a)))
      nbrs
  done

let test_wgraph_edge_array () =
  let g = random_graph 43 in
  Alcotest.(check int) "edge_array mirrors edges" 0
    (if Array.to_list (Wgraph.edge_array g) = Wgraph.edges g then 0 else 1);
  List.iter
    (fun { Wgraph.u; v; w = _ } -> checkb "u < v" true (u < v))
    (Wgraph.edges g)

let prop_weight_lookup_matches_scan =
  (* The binary-search [weight] must agree with a naive scan of the
     adjacency row on every pair, present or absent. *)
  QCheck.Test.make ~name:"Wgraph.weight = linear scan on all pairs" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Wgraph.n g in
      let scan u v =
        Array.fold_left
          (fun acc (x, w) -> if x = v then Some w else acc)
          None (Wgraph.neighbors g u)
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Wgraph.weight g u v <> scan u v then ok := false
        done
      done;
      (* Out-of-range endpoints still raise, as they always have. *)
      let raises u v =
        match Wgraph.weight g u v with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      !ok && raises 0 n && raises (-1) 0)

let prop_apsp_jobs_invariant =
  (* APSP runs on the caller's domain, so QCONGEST_JOBS cannot move it;
     fanning the same sweep out over the pool (as the sweep runner fans
     out jobs) returns it unchanged too. *)
  QCheck.Test.make ~name:"Apsp ignores QCONGEST job count" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Wgraph.n g in
      let serial = Array.init n (fun src -> Dijkstra.distances g ~src) in
      let ecc_serial = Array.init n (fun src -> Dijkstra.eccentricity g ~src) in
      Apsp.all_distances g = serial
      && Apsp.eccentricities g = ecc_serial
      && Util.Domain_pool.run ~jobs:3 n (fun src -> Dijkstra.eccentricity g ~src) = ecc_serial)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_gnp_connected;
      prop_tree_edges;
      prop_dijkstra_matches_bfs_on_unit;
      prop_dijkstra_triangle;
      prop_bounded_hop_monotone;
      prop_dijkstra_scale_across_boundary;
      prop_bounded_matches_cut;
      prop_radius_diameter_sandwich;
      prop_ecc_max_min;
      prop_reweight_sandwich;
      prop_table_row_matches_loop;
      prop_skeleton_good_approx;
      prop_lemma_4_3;
      prop_weight_lookup_matches_scan;
      prop_apsp_jobs_invariant;
    ]

let () =
  Alcotest.run "graph"
    [
      ( "dist",
        [
          Alcotest.test_case "ops" `Quick test_dist;
          Alcotest.test_case "saturation" `Quick test_dist_saturation;
        ] );
      ( "wgraph",
        [
          Alcotest.test_case "build" `Quick test_wgraph_build;
          Alcotest.test_case "parallel edges" `Quick test_wgraph_parallel_edges;
          Alcotest.test_case "errors" `Quick test_wgraph_errors;
          Alcotest.test_case "induced" `Quick test_wgraph_induced;
          Alcotest.test_case "csr structure" `Quick test_wgraph_csr_structure;
          Alcotest.test_case "edge array" `Quick test_wgraph_edge_array;
          Alcotest.test_case "unit weights" `Quick test_unit_weights;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "cliques cycle" `Quick test_cliques_cycle;
          Alcotest.test_case "barbell" `Quick test_barbell;
          Alcotest.test_case "weighted-hard family" `Quick test_weighted_hard;
          Alcotest.test_case "one-clique chain = complete" `Quick test_one_clique_chain;
        ] );
      ( "shortest paths",
        [
          Alcotest.test_case "path reconstruction" `Quick test_dijkstra_path;
          Alcotest.test_case "packed weight boundary" `Quick test_dijkstra_weight_boundary;
          Alcotest.test_case "bounded distance" `Quick test_bounded_distance;
        ] );
      ("apsp", [ Alcotest.test_case "path graph" `Quick test_apsp_path ]);
      ( "reweight (Lemma 3.2)",
        [
          Alcotest.test_case "scales" `Quick test_reweight_scales;
          Alcotest.test_case "self distance" `Quick test_reweight_self;
          Alcotest.test_case "scaler = scaled_weight" `Quick test_reweight_scaler;
          Alcotest.test_case "scaler_f = scaled_weight_f" `Quick test_reweight_scaler_f;
        ] );
      ( "skeleton (Lemma 3.3)",
        [
          Alcotest.test_case "shortcut hop bound" `Quick test_skeleton_shortcut_hops;
          Alcotest.test_case "knn/w'' structure" `Quick test_skeleton_knn;
          Alcotest.test_case "membership" `Quick test_skeleton_membership;
          Alcotest.test_case "one table, shared rows" `Quick test_table_shares_rows;
          Alcotest.test_case "warm table = fresh table" `Quick test_table_warm_equals_fresh;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "files" `Quick test_io_files;
          Alcotest.test_case "dot" `Quick test_io_dot;
        ] );
      ( "contraction (Lemma 4.3)",
        [
          Alcotest.test_case "simple" `Quick test_contract_simple;
          Alcotest.test_case "parallel min" `Quick test_contract_parallel_min;
        ] );
      ("properties", qsuite);
    ]
