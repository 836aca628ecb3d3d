module J = Telemetry.Json

type algo =
  | Thm11_diameter
  | Thm11_radius
  | Classical_diameter
  | Classical_radius
  | Lm_unweighted
  | Approx_apsp
  | Three_halves
  | Sssp_two_approx
  | Bfs_reliable
  | Wwy_ecc
  | Wwy_apsp

let algo_name = function
  | Thm11_diameter -> "thm11-diameter"
  | Thm11_radius -> "thm11-radius"
  | Classical_diameter -> "classical-diameter"
  | Classical_radius -> "classical-radius"
  | Lm_unweighted -> "lm-unweighted"
  | Approx_apsp -> "approx-apsp"
  | Three_halves -> "three-halves"
  | Sssp_two_approx -> "sssp-2approx"
  | Bfs_reliable -> "bfs-reliable"
  | Wwy_ecc -> "wwy-ecc"
  | Wwy_apsp -> "wwy-apsp"

let all_algos =
  [ Thm11_diameter; Thm11_radius; Classical_diameter; Classical_radius; Lm_unweighted;
    Approx_apsp; Three_halves; Sssp_two_approx; Bfs_reliable; Wwy_ecc; Wwy_apsp ]

let algo_of_name s = List.find_opt (fun a -> algo_name a = s) all_algos

type family =
  | Ring of { cliques : int }
  | Chain of { cliques : int }
  | Gnp of { p : float }
  | Grid
  | Hard
  | Random_tree

(* Canonical form: participates in job ids, so it must never change
   for an existing constructor (that would orphan old checkpoints). *)
let family_name = function
  | Ring { cliques } -> Printf.sprintf "ring:%d" cliques
  | Chain { cliques } -> Printf.sprintf "chain:%d" cliques
  | Gnp { p } -> Printf.sprintf "gnp:%s" (J.print (J.float p))
  | Grid -> "grid"
  | Hard -> "hard"
  | Random_tree -> "tree"

let family_of_name s =
  match String.split_on_char ':' s with
  | [ "ring"; c ] -> Option.map (fun cliques -> Ring { cliques }) (int_of_string_opt c)
  | [ "chain"; c ] -> Option.map (fun cliques -> Chain { cliques }) (int_of_string_opt c)
  | [ "gnp"; p ] -> Option.map (fun p -> Gnp { p }) (float_of_string_opt p)
  | [ "grid" ] -> Some Grid
  | [ "hard" ] -> Some Hard
  | [ "tree" ] -> Some Random_tree
  | _ -> None

type fault_profile = {
  drop : float;
  delay : int;
  duplicate : float;
  fault_seed : int;
}

let benign = { drop = 0.0; delay = 0; duplicate = 0.0; fault_seed = 0 }

type gate = { series : string; expected : float; tol : float; min_r2 : float }

type t = {
  name : string;
  version : int;
  algos : algo list;
  family : family;
  max_w : int;
  sizes : int list;
  seeds : int list;
  faults : fault_profile;
  gates : gate list;
}

let current_version = 1

let validate_probability what p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg (Printf.sprintf "Spec: %s=%g outside [0,1]" what p)

(* The generators' floors, for {!make} (per size) and {!build_graph}:
   a bad family is one [Invalid_argument] naming it. *)
let check_floors family ~max_w ~n =
  if n < 1 then invalid_arg "Spec: target size needs n >= 1";
  if max_w < 1 then invalid_arg "Spec: max_w < 1";
  match family with
  | Ring { cliques } -> if cliques < 3 then invalid_arg "Spec: ring needs >= 3 cliques"
  | Chain { cliques } -> if cliques < 1 then invalid_arg "Spec: chain needs >= 1 clique"
  | Gnp { p } -> validate_probability "gnp p" p
  | Hard -> if n < 4 then invalid_arg "Spec: hard family needs n >= 4"
  | Grid | Random_tree -> ()

let build_graph family ~max_w ~n ~rng =
  check_floors family ~max_w ~n;
  let module Gen = Graphlib.Gen in
  let weighting = Gen.Uniform { max_w } in
  match family with
  | Ring { cliques } ->
    Gen.cliques_cycle ~cliques ~clique_size:(max 1 (n / cliques)) ~weighting ~rng
  | Chain { cliques } ->
    Gen.cliques_path ~cliques ~clique_size:(max 1 (n / cliques)) ~weighting ~rng
  | Gnp { p } -> Gen.gnp_connected ~n ~p ~weighting ~rng
  | Grid ->
    let side = max 1 (Util.Int_math.isqrt n) in
    Gen.grid ~rows:side ~cols:(Util.Int_math.ceil_div n side) ~weighting ~rng
  | Hard -> Gen.weighted_hard_diameter ~n ~heavy:(max_w * 50) ~rng
  | Random_tree -> Gen.random_tree ~n ~weighting ~rng

let make ~name ?(version = current_version) ~algos ~family ?(max_w = 16) ~sizes ~seeds
    ?(faults = benign) ?(gates = []) () =
  if name = "" then invalid_arg "Spec: empty name";
  if String.contains name '/' || String.contains name '\000' || name = "." || name = ".." then
    invalid_arg (Printf.sprintf "Spec: name %S is not a file name" name);
  if version <> current_version then
    invalid_arg (Printf.sprintf "Spec: unsupported version %d" version);
  if algos = [] then invalid_arg "Spec: empty algorithm list";
  if sizes = [] then invalid_arg "Spec: empty size grid";
  if seeds = [] then invalid_arg "Spec: empty seed set";
  List.iter (fun n -> if n < 2 then invalid_arg "Spec: size < 2") sizes;
  validate_probability "drop" faults.drop;
  validate_probability "duplicate" faults.duplicate;
  if faults.delay < 0 then invalid_arg "Spec: negative delay";
  List.iter (fun n -> check_floors family ~max_w ~n) sizes;
  let series_names = List.map algo_name algos in
  List.iter
    (fun g ->
      if not (List.mem g.series series_names) then
        invalid_arg (Printf.sprintf "Spec: gate series %S not in algorithm list" g.series);
      if g.tol < 0.0 then invalid_arg "Spec: negative gate tolerance")
    gates;
  (* Dedupe while keeping first occurrences: duplicate algos or seeds
     would assign one job id twice and trip the store's duplicate-row
     guard mid-sweep. *)
  let dedup xs =
    List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
    |> List.rev
  in
  { name; version; algos = dedup algos; family; max_w;
    sizes = List.sort_uniq compare sizes; seeds = dedup seeds; faults; gates }

let geometric ~n_min ~n_max ~factor =
  if n_min < 2 || n_max < n_min then invalid_arg "Spec.geometric: bad range";
  if factor <= 1.0 then invalid_arg "Spec.geometric: factor <= 1";
  let rec go acc n =
    if n >= n_max then List.rev (n_max :: acc)
    else
      let next = max (n + 1) (int_of_float (ceil (float_of_int n *. factor))) in
      go (n :: acc) next
  in
  go [] n_min

(* ----------------------------- Guarantees -------------------------- *)

(* Theorem 1.1 runs at eps = 1/2, so its cap (1+eps)^2 is 2.25;
   approx-APSP's 1+eps at its default eps = 1/2 is tighter. *)
let guarantee algo ~estimate ~exact =
  let e = float_of_int exact in
  let ( <=~ ) a b = a <= b +. 1e-6 in
  match algo with
  | Thm11_diameter | Thm11_radius | Approx_apsp -> e <=~ estimate && estimate <=~ 2.25 *. e
  | Sssp_two_approx -> estimate <=~ e && e <=~ 2.0 *. estimate
  | Three_halves -> 2.0 *. e <=~ 3.0 *. estimate && estimate <=~ e
  | Classical_diameter | Classical_radius | Lm_unweighted | Bfs_reliable | Wwy_ecc
  | Wwy_apsp ->
    estimate <=~ e && e <=~ estimate

(* ------------------------------ Job ids ---------------------------- *)

type job = { id : string; algo : algo; n : int; seed : int }

(* The content a job id commits to: everything that determines the
   job's result, nothing that doesn't (not the spec name, not the
   rest of the grid). Bump [current_version] if this ever changes. *)
let job_key t algo ~n ~seed =
  Printf.sprintf "v%d;algo=%s;family=%s;max_w=%d;n=%d;seed=%d;faults=%s,%d,%s,%d"
    t.version (algo_name algo) (family_name t.family) t.max_w n seed
    (J.print (J.float t.faults.drop))
    t.faults.delay
    (J.print (J.float t.faults.duplicate))
    t.faults.fault_seed

let job_id t algo ~n ~seed = Fnv.hex64 (job_key t algo ~n ~seed)

let jobs t =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun n ->
          List.map (fun seed -> { id = job_id t algo ~n ~seed; algo; n; seed }) t.seeds)
        t.sizes)
    t.algos

(* ---------------------------- Serialization ------------------------ *)

let json t =
  J.obj
    [
      ("schema", J.str "qcongest-sweep-spec/v1");
      ("name", J.str t.name);
      ("version", J.int t.version);
      ("algos", J.arr (List.map (fun a -> J.str (algo_name a)) t.algos));
      ("family", J.str (family_name t.family));
      ("max_w", J.int t.max_w);
      ("sizes", J.arr (List.map J.int t.sizes));
      ("seeds", J.arr (List.map J.int t.seeds));
      ( "faults",
        J.obj
          [
            ("drop", J.float t.faults.drop);
            ("delay", J.int t.faults.delay);
            ("duplicate", J.float t.faults.duplicate);
            ("fault_seed", J.int t.faults.fault_seed);
          ] );
      ( "gates",
        J.arr
          (List.map
             (fun g ->
               J.obj
                 [
                   ("series", J.str g.series);
                   ("expected", J.float g.expected);
                   ("tol", J.float g.tol);
                   ("min_r2", J.float g.min_r2);
                 ])
             t.gates) );
    ]

let to_json t = J.print (json t)

let ( let* ) = Result.bind

let field name conv v =
  match Option.bind (J.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "spec: missing or ill-typed field %S" name)

let field_default name conv ~default v =
  match J.member name v with
  | None -> Ok default
  | Some x -> (
    match conv x with
    | Some y -> Ok y
    | None -> Error (Printf.sprintf "spec: ill-typed field %S" name))

let int_list v =
  Option.bind (J.to_list_opt v) (fun l ->
      let ints = List.filter_map J.to_int_opt l in
      if List.length ints = List.length l then Some ints else None)

let parse_sizes v =
  match v with
  | J.Arr _ -> (
    match int_list v with
    | Some l -> Ok l
    | None -> Error "spec: sizes array must hold integers")
  | J.Obj _ ->
    let* n_min = field "min" J.to_int_opt v in
    let* n_max = field "max" J.to_int_opt v in
    let* factor = field "factor" J.to_float_opt v in
    (try Ok (geometric ~n_min ~n_max ~factor) with Invalid_argument m -> Error m)
  | _ -> Error "spec: sizes must be an array or a geometric grid object"

let parse_faults v =
  let* drop = field_default "drop" J.to_float_opt ~default:0.0 v in
  let* delay = field_default "delay" J.to_int_opt ~default:0 v in
  let* duplicate = field_default "duplicate" J.to_float_opt ~default:0.0 v in
  let* fault_seed = field_default "fault_seed" J.to_int_opt ~default:0 v in
  Ok { drop; delay; duplicate; fault_seed }

let parse_gate v =
  let* series = field "series" J.to_string_opt v in
  let* expected = field "expected" J.to_float_opt v in
  let* tol = field "tol" J.to_float_opt v in
  let* min_r2 = field_default "min_r2" J.to_float_opt ~default:0.0 v in
  Ok { series; expected; tol; min_r2 }

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let of_json s =
  let* v = J.parse s in
  let* schema = field_default "schema" J.to_string_opt ~default:"qcongest-sweep-spec/v1" v in
  if schema <> "qcongest-sweep-spec/v1" then
    Error (Printf.sprintf "spec: unsupported schema %S" schema)
  else
    let* name = field "name" J.to_string_opt v in
    let* version = field_default "version" J.to_int_opt ~default:current_version v in
    let* algo_names =
      field "algos"
        (fun x ->
          Option.bind (J.to_list_opt x) (fun l ->
              let names = List.filter_map J.to_string_opt l in
              if List.length names = List.length l then Some names else None))
        v
    in
    let* algos =
      collect
        (fun n ->
          match algo_of_name n with
          | Some a -> Ok a
          | None -> Error (Printf.sprintf "spec: unknown algorithm %S" n))
        algo_names
    in
    let* family_str = field "family" J.to_string_opt v in
    let* family =
      match family_of_name family_str with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "spec: unknown family %S" family_str)
    in
    let* max_w = field_default "max_w" J.to_int_opt ~default:16 v in
    let* sizes =
      match J.member "sizes" v with
      | Some sv -> parse_sizes sv
      | None -> Error "spec: missing field \"sizes\""
    in
    let* seeds = field "seeds" int_list v in
    let* faults =
      match J.member "faults" v with None -> Ok benign | Some fv -> parse_faults fv
    in
    let* gates =
      match J.member "gates" v with
      | None -> Ok []
      | Some gv -> (
        match J.to_list_opt gv with
        | None -> Error "spec: gates must be an array"
        | Some l -> collect parse_gate l)
    in
    try Ok (make ~name ~version ~algos ~family ~max_w ~sizes ~seeds ~faults ~gates ())
    with Invalid_argument m -> Error m

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_json s
  | exception Sys_error m -> Error m

(* ---------------------------- Built-ins ---------------------------- *)

(* Gate calibration (see DESIGN.md "Sweep harness & scaling gates"):
   the asymptotic exponents are 9/10 (Thm 1.1 at fixed D), 1 (exact
   APSP) and 1/2 (3/2-approx), but at smoke sizes the measured slopes
   differ: the ring family holds D_G fixed, so the 3/2-approx's
   Õ(√n + D) series is nearly flat (D dominates), and the thm11
   pipeline's stochastic search makes its slope noisy across seeds.
   The expected values below are the empirical slopes at these exact
   sizes/seeds; the bands are wide enough for seed noise yet far
   tighter than the failure modes the gate exists to catch (a
   quadratic regression, a vanished n-dependence). *)
let ci_smoke =
  make ~name:"ci-smoke"
    ~algos:[ Thm11_diameter; Classical_diameter; Three_halves ]
    ~family:(Ring { cliques = 8 }) ~max_w:16
    ~sizes:[ 32; 48; 64; 96 ]
    ~seeds:[ 1; 2; 3 ]
    ~gates:
      [
        { series = "thm11-diameter"; expected = 0.75; tol = 0.55; min_r2 = 0.4 };
        { series = "classical-diameter"; expected = 1.1; tol = 0.3; min_r2 = 0.9 };
        { series = "three-halves"; expected = 0.1; tol = 0.45; min_r2 = 0.0 };
      ]
    ()

let thm11_scaling =
  make ~name:"thm11-scaling"
    ~algos:[ Thm11_diameter ]
    ~family:(Ring { cliques = 8 }) ~max_w:16
    ~sizes:[ 32; 48; 64; 96; 128 ]
    ~seeds:[ 1; 2; 3 ]
    ~gates:[ { series = "thm11-diameter"; expected = 0.8; tol = 0.55; min_r2 = 0.4 } ]
    ()

let table1_measured =
  make ~name:"table1-measured"
    ~algos:
      [ Classical_diameter; Classical_radius; Lm_unweighted; Approx_apsp; Three_halves;
        Sssp_two_approx; Thm11_diameter; Thm11_radius; Wwy_ecc; Wwy_apsp ]
    ~family:(Ring { cliques = 8 }) ~max_w:16 ~sizes:[ 64 ] ~seeds:[ 42 ] ()

(* Gate calibration: on the ring family D_G is fixed, so the WWY
   eccentricities series scales like √n (measured slope ≈ 0.38 at
   these sizes). The APSP series is asymptotically Θ(n), but at smoke
   sizes its farthest-pair search term (√n per-call budget × fixed-D
   per-call cost) still rivals the well-pipelined token flood, so the
   measured total-rounds exponent sits near 0.47 — the flood-dominates
   claim at scale is carried by the wwy-apsp certifier's round-split
   check, not this gate. Bands follow the ci_smoke convention:
   empirical slopes at these exact sizes/seeds, wide enough for seed
   noise, tight enough to catch a vanished n-dependence or a
   quadratic regression. *)
let ecc_scaling =
  make ~name:"ecc-scaling"
    ~algos:[ Wwy_ecc; Wwy_apsp ]
    ~family:(Ring { cliques = 8 }) ~max_w:16
    ~sizes:[ 32; 48; 64; 96; 128 ]
    ~seeds:[ 1; 2; 3 ]
    ~gates:
      [
        { series = "wwy-ecc"; expected = 0.4; tol = 0.35; min_r2 = 0.5 };
        { series = "wwy-apsp"; expected = 0.5; tol = 0.35; min_r2 = 0.5 };
      ]
    ()

let builtins = [ ci_smoke; thm11_scaling; table1_measured; ecc_scaling ]
