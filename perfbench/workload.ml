module Spec = Harness.Spec
module Hjson = Harness.Hjson
module J = Telemetry.Tjson

type kind = Thm11 | Wwy | Recertify

let all = [ Thm11; Wwy; Recertify ]
let name = function Thm11 -> "thm11" | Wwy -> "wwy" | Recertify -> "recertify"
let of_name s = List.find_opt (fun k -> name k = s) all
let default_seed = 1
let held_out_seed = 2
let cell_seed ~seed i = (100 * seed) + i

(* Sizes trade per-op depth for instances per run: each op is a fresh
   instance and instance costs differ by about a tenth, so a 30-second
   run needs well over ten ops for its medians to repeat across seeds. At n = 80 the Theorem 1.1 cells are the centralized skeleton
   plus the Nanongkai overlay (at n = 64 the diameter search missed its
   guarantee on about one op in 150); at n = 192 the WWY cells are a few
   large token floods. The recertify store shares each of its four instances
   between six cheap algorithms, so every op recomputes each instance's
   oracle six times while the set-up sweep stays short enough to repeat.
   Thirty-two cells cover a run's ops. *)
let pool kind ~seed =
  let spec algos sizes seeds =
    Spec.make ~name:("perfbench-" ^ name kind) ~algos ~family:(Spec.Ring { cliques = 8 })
      ~max_w:16 ~sizes ~seeds ()
  in
  match kind with
  | Thm11 ->
    Array.init 32 (fun i ->
        spec [ Spec.Thm11_diameter; Spec.Thm11_radius ] [ 80 ] [ cell_seed ~seed i ])
  | Wwy ->
    Array.init 32 (fun i -> spec [ Spec.Wwy_ecc; Spec.Wwy_apsp ] [ 192 ] [ cell_seed ~seed i ])
  | Recertify ->
    [|
      spec
        [
          Spec.Classical_diameter; Spec.Classical_radius; Spec.Sssp_two_approx;
          Spec.Three_halves; Spec.Wwy_ecc; Spec.Lm_unweighted;
        ]
        [ 96; 128 ]
        [ cell_seed ~seed 0; cell_seed ~seed 1 ];
    |]

(* ------------------------------ oracle ------------------------------ *)

type reference = { n_actual : int; diameter : int; radius : int; hop_diameter : int }

let reference spec ~n ~seed =
  let g = Harness.Runner.make_graph spec ~n ~seed in
  let ecc = Graphlib.Apsp.eccentricities g in
  let int = Graphlib.Dist.to_int_exn in
  {
    n_actual = Graphlib.Wgraph.n g;
    diameter = int (Array.fold_left max 0 ecc);
    radius = int (Array.fold_left min Graphlib.Dist.inf ecc);
    hop_diameter = int (Graphlib.Bfs.diameter g);
  }

(* ------------------------------- rows ------------------------------- *)

type row = {
  algo : Spec.algo;
  n : int;
  seed : int;
  n_actual : int;
  rounds : int;
  estimate : float;
  exact : int;
  ratio : float;
  within : bool;
  note : string;
}

let ( let* ) = Result.bind

let field v name conv =
  match Option.bind (Hjson.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "row: missing or ill-typed field %S" name)

let parse_row raw =
  let* v = Hjson.parse raw in
  let* status = field v "status" Hjson.to_string_opt in
  let* algo_name = field v "algo" Hjson.to_string_opt in
  let* n = field v "n" Hjson.to_int_opt in
  let* seed = field v "seed" Hjson.to_int_opt in
  if status <> "ok" then
    Error (Printf.sprintf "%s n=%d seed=%d: status %s" algo_name n seed status)
  else
    let* algo =
      Option.to_result ~none:("row: unknown algo " ^ algo_name) (Spec.algo_of_name algo_name)
    in
    let* n_actual = field v "n_actual" Hjson.to_int_opt in
    let* rounds = field v "rounds" Hjson.to_int_opt in
    let* estimate = field v "estimate" Hjson.to_float_opt in
    let* exact = field v "exact" Hjson.to_int_opt in
    let* ratio = field v "ratio" Hjson.to_float_opt in
    let* within = field v "within" Hjson.to_bool_opt in
    let* note = field v "note" Hjson.to_string_opt in
    Ok { algo; n; seed; n_actual; rounds; estimate; exact; ratio; within; note }

let describe r = Printf.sprintf "%s n=%d seed=%d" (Spec.algo_name r.algo) r.n r.seed

(* The exact answer each algorithm reports next to its estimate, and the
   guarantee it states (Theorem 1.1 at the default eps = 1/2). *)
let oracle_answer reference = function
  | Spec.Thm11_diameter | Spec.Classical_diameter | Spec.Sssp_two_approx | Spec.Wwy_apsp
  | Spec.Approx_apsp ->
    Some reference.diameter
  | Spec.Thm11_radius | Spec.Classical_radius -> Some reference.radius
  | Spec.Wwy_ecc | Spec.Three_halves | Spec.Lm_unweighted -> Some reference.hop_diameter
  | Spec.Bfs_reliable -> None

let guarantee algo ~exact estimate =
  let e = float_of_int exact in
  match algo with
  | Spec.Thm11_diameter | Spec.Thm11_radius | Spec.Approx_apsp ->
    e -. 1e-6 <= estimate && estimate <= (2.25 *. e) +. 1e-6
  | Spec.Sssp_two_approx -> estimate <= e && e <= 2.0 *. estimate
  | Spec.Three_halves -> 3.0 *. estimate >= 2.0 *. e && estimate <= e
  | Spec.Classical_diameter | Spec.Classical_radius | Spec.Wwy_ecc | Spec.Wwy_apsp
  | Spec.Lm_unweighted | Spec.Bfs_reliable ->
    estimate = e

let certify reference r =
  let fail fmt = Printf.ksprintf (fun s -> Error (describe r ^ ": " ^ s)) fmt in
  match oracle_answer reference r.algo with
  | None -> fail "not a benchmark algorithm"
  | Some exact ->
    let expect_ratio = if r.exact = 0 then 0.0 else r.estimate /. float_of_int r.exact in
    if r.n_actual <> reference.n_actual then
      fail "n_actual=%d but the instance has %d nodes" r.n_actual reference.n_actual
    else if r.exact <> exact then fail "exact=%d but the oracle says %d" r.exact exact
    else if Float.abs (r.ratio -. expect_ratio) > 1e-6 *. Float.max 1.0 expect_ratio then
      fail "ratio=%g but estimate/exact=%g" r.ratio expect_ratio
    else if r.within <> guarantee r.algo ~exact r.estimate then
      fail "within=%b but estimate %g against exact %d says otherwise" r.within r.estimate exact
    else Ok ()

(* ------------------------------ goldens ----------------------------- *)

type golden = { g_rounds : int; g_estimate : float; g_exact : int; g_within : bool }
type goldens = { g_seed : int; cells : (string, golden) Hashtbl.t }

let cell_key algo ~n ~seed = Printf.sprintf "%s/%d/%d" (Spec.algo_name algo) n seed
let row_key r = cell_key r.algo ~n:r.n ~seed:r.seed

let load_goldens path =
  let fail m = failwith (Printf.sprintf "%s: %s" path m) in
  let get v name conv =
    match Option.bind (Hjson.member name v) conv with Some x -> x | None -> fail ("bad " ^ name)
  in
  let v =
    match Hjson.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok v -> v
    | Error m -> fail m
  in
  let cells = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let algo =
        match Spec.algo_of_name (get c "algo" Hjson.to_string_opt) with
        | Some a -> a
        | None -> fail "unknown algo"
      in
      Hashtbl.replace cells
        (cell_key algo ~n:(get c "n" Hjson.to_int_opt) ~seed:(get c "seed" Hjson.to_int_opt))
        {
          g_rounds = get c "rounds" Hjson.to_int_opt;
          g_estimate = get c "estimate" Hjson.to_float_opt;
          g_exact = get c "exact" Hjson.to_int_opt;
          g_within = get c "within" Hjson.to_bool_opt;
        })
    (get v "rows" Hjson.to_list_opt);
  { g_seed = get v "seed" Hjson.to_int_opt; cells }

let goldens_seed g = g.g_seed

let check_golden g r =
  match Hashtbl.find_opt g.cells (row_key r) with
  | None -> Error (describe r ^ ": no golden row pinned for this cell")
  | Some p ->
    if p.g_rounds = r.rounds && p.g_estimate = r.estimate && p.g_exact = r.exact
       && p.g_within = r.within
    then Ok ()
    else
      Error
        (Printf.sprintf "%s: rounds/estimate/exact/within = %d/%g/%d/%b, golden %d/%g/%d/%b"
           (describe r) r.rounds r.estimate r.exact r.within p.g_rounds p.g_estimate p.g_exact
           p.g_within)

let goldens_to_json ~seed rows =
  let cell r =
    J.obj
      [
        ("algo", J.str (Spec.algo_name r.algo)); ("n", J.int r.n); ("seed", J.int r.seed);
        ("rounds", J.int r.rounds); ("estimate", J.float r.estimate); ("exact", J.int r.exact);
        ("within", J.bool r.within);
      ]
  in
  Printf.sprintf "{\"schema\":\"perfbench-goldens/v1\",\"seed\":%d,\"rows\":[\n%s\n]}\n" seed
    (String.concat ",\n" (List.map cell rows))

let with_rounds g f =
  let cells = Hashtbl.copy g.cells in
  Hashtbl.filter_map_inplace (fun _ p -> Some { p with g_rounds = f p.g_rounds }) cells;
  { g with cells }

(* -------------------------------- ops ------------------------------- *)

type ctx = {
  kind : kind;
  cli : string;
  work : string;
  env : string array;
  specs : Spec.t array;
  spec_files : string array;
  refs : (int * int, reference) Hashtbl.t;
  goldens : goldens option;
  seen : (string, row) Hashtbl.t;
  store : string;
}

type failure = Wrong of string | Missed of string

let identity ctx r =
  match Hashtbl.find_opt ctx.seen (row_key r) with
  | None ->
    Hashtbl.add ctx.seen (row_key r) r;
    Ok ()
  | Some first when first = r -> Ok ()
  | Some _ -> Error (describe r ^ ": differs from this run's earlier row for the same cell")

let check_row ctx r =
  let correct =
    let* reference =
      Option.to_result ~none:(describe r ^ ": not a pool cell")
        (Hashtbl.find_opt ctx.refs (r.n, r.seed))
    in
    let* () = certify reference r in
    let* () = match ctx.goldens with Some g -> check_golden g r | None -> Ok () in
    identity ctx r
  in
  match correct with
  | Error m -> Error (Wrong m)
  | Ok () when r.within -> Ok ()
  | Ok () -> Error (Missed (describe r ^ ": the algorithm missed its stated guarantee"))

(* A wrong row outranks a missed guarantee. *)
let worst results =
  match List.find_opt (function Error (Wrong _) -> true | _ -> false) results with
  | Some e -> e
  | None -> Option.value ~default:(Ok ()) (List.find_opt Result.is_error results)

let store_rows path =
  List.fold_right
    (fun (_, raw) acc ->
      let* acc = acc in
      let* r = parse_row raw in
      Ok (r :: acc))
    (Harness.Store.rows (Harness.Store.load ~lock:false ~path ()))
    (Ok [])

let same_rows ours theirs =
  let sort = List.sort (fun a b -> compare (row_key a) (row_key b)) in
  if sort ours = sort theirs then Ok () else Error "a replayed row differs from the op's row"

(* Every job of [spec] has exactly one row in [store], and each is checked. *)
let read_rows ctx spec store =
  match store_rows store with
  | Error m -> ([], Error (Wrong m))
  | Ok rows ->
    let cell (j : Spec.job) = cell_key j.Spec.algo ~n:j.Spec.n ~seed:j.Spec.seed in
    let cells = List.map cell (Spec.jobs spec) in
    if List.sort compare (List.map row_key rows) <> List.sort compare cells then
      (rows, Error (Wrong (Printf.sprintf "%s does not hold exactly one row per job" store)))
    else (rows, worst (List.map (check_row ctx) rows))

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let sweep ctx ~spec_file ~store =
  List.iter remove_if_exists [ store; store ^ ".lock" ];
  Op.run ~env:ctx.env ~dir:ctx.work ctx.cli
    [ "sweep"; "run"; "--spec"; spec_file; "--store"; store ]

let prepare kind ~seed ~cli ~work ~domains ~goldens ~seen =
  let specs = pool kind ~seed in
  let spec_files =
    Array.mapi
      (fun i spec ->
        let path = Filename.concat work (Printf.sprintf "spec-%d.json" i) in
        Out_channel.with_open_bin path (fun oc -> output_string oc (Spec.to_json spec));
        path)
      specs
  in
  let refs = Hashtbl.create 32 in
  Array.iter
    (fun spec ->
      List.iter
        (fun (j : Spec.job) ->
          if not (Hashtbl.mem refs (j.Spec.n, j.Spec.seed)) then
            Hashtbl.add refs (j.Spec.n, j.Spec.seed) (reference spec ~n:j.Spec.n ~seed:j.Spec.seed))
        (Spec.jobs spec))
    specs;
  let ctx =
    {
      kind;
      cli;
      work;
      env = Op.env ~domains ~artifacts:(Filename.concat work "artifacts");
      specs;
      spec_files;
      refs;
      goldens = (match goldens with Some g when g.g_seed = seed -> Some g | _ -> None);
      seen;
      store = Filename.concat work "recertify.jsonl";
    }
  in
  (* Every op expects [check sweep] to pass, so the store must hold only
     rows that met their guarantee. *)
  (if kind = Recertify then
     let op = sweep ctx ~spec_file:spec_files.(0) ~store:ctx.store in
     if op.Op.exit_code <> 0 then
       failwith (Printf.sprintf "recertify set-up: sweep run exited %d" op.Op.exit_code);
     match snd (read_rows ctx specs.(0) ctx.store) with
     | Ok () -> ()
     | Error (Wrong m | Missed m) -> failwith ("recertify set-up: " ^ m));
  ctx

type outcome = { op : Op.t; rows : row list; verdict : (unit, failure) result }

(* [check sweep] must certify every stored row: exit 0 and an artifact
   whose one certificate passed with all jobs audited. *)
let artifact ctx spec =
  Filename.concat (Filename.concat ctx.work "artifacts") (spec.Spec.name ^ ".check.json")

let audited ctx spec =
  let* v = Hjson.parse (In_channel.with_open_bin (artifact ctx spec) In_channel.input_all) in
  let certs =
    Option.value ~default:[] (Option.bind (Hjson.member "certificates" v) Hjson.to_list_opt)
  in
  let checked =
    List.filter_map (fun c -> Option.bind (Hjson.member "checked" c) Hjson.to_int_opt) certs
  in
  let jobs = List.length (Spec.jobs spec) in
  if Hjson.member "status" v = Some (Hjson.Str "pass") && checked = [ jobs ] then Ok ()
  else Error (Printf.sprintf "check artifact does not certify all %d rows" jobs)

let run_op ctx j =
  let i = j mod Array.length ctx.specs in
  match ctx.kind with
  | Thm11 | Wwy ->
    let store = Filename.concat ctx.work "op.jsonl" in
    let op = sweep ctx ~spec_file:ctx.spec_files.(i) ~store in
    if op.Op.exit_code <> 0 then
      let m = Printf.sprintf "sweep run exited %d" op.Op.exit_code in
      { op; rows = []; verdict = Error (Wrong m) }
    else
      let rows, verdict = read_rows ctx ctx.specs.(i) store in
      { op; rows; verdict }
  | Recertify ->
    remove_if_exists (artifact ctx ctx.specs.(i));
    let op =
      Op.run ~env:ctx.env ~dir:ctx.work ctx.cli
        [ "check"; "sweep"; "--spec"; ctx.spec_files.(i); "--store"; ctx.store ]
    in
    let verdict =
      if op.Op.exit_code <> 0 then Error (Printf.sprintf "check sweep exited %d" op.Op.exit_code)
      else audited ctx ctx.specs.(i)
    in
    { op; rows = []; verdict = Result.map_error (fun m -> Wrong m) verdict }
