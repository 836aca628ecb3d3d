module J = Telemetry.Json
module Spec = Harness.Spec

let claim =
  "every ok sweep row matches a recomputed oracle: the instance, its exact \
   diameter/radius, the stored ratio, and the algorithm's guarantee, as its own \
   flag and re-derived from the estimate and the exact value"

let default_graph_of_job (spec : Spec.t) (j : Spec.job) =
  Harness.Runner.make_graph spec ~n:j.Spec.n ~seed:j.Spec.seed

let expected_exact (spec : Spec.t) (j : Spec.job) =
  Oracle.exact Oracle.direct (Spec.info j.Spec.algo).Spec.quantity
    (default_graph_of_job spec j)

let audit_ok_row ~oracle ~graph_of_job (j : Spec.job) ~n_actual ~ratio
    { Harness.Runner.estimate; exact; within; _ } =
  let violations = ref [] in
  let flag code detail data =
    violations := Report.violation ~code detail ~data :: !violations
  in
  let ctx =
    [ ("id", J.str j.Spec.id); ("algo", J.str (Spec.algo_name j.Spec.algo));
      ("n", J.int j.Spec.n); ("seed", J.int j.Spec.seed) ]
  in
  (* The same instance answers both the wrong-instance check and the
     oracle recomputation. *)
  let g = graph_of_job j in
  if n_actual <> Graphlib.Wgraph.n g then
    flag "wrong-instance"
      (Printf.sprintf "row %s: stored n_actual=%d but the rebuilt instance has n=%d"
         j.Spec.id n_actual (Graphlib.Wgraph.n g))
      (ctx
      @ [ ("n_actual", J.int n_actual); ("rebuilt_n", J.int (Graphlib.Wgraph.n g)) ]);
  let truth = Oracle.exact oracle (Spec.info j.Spec.algo).Spec.quantity g in
  if exact <> truth then
    flag "oracle-mismatch"
      (Printf.sprintf "row %s (%s): stored exact=%d but recomputed oracle=%d"
         j.Spec.id (Spec.algo_name j.Spec.algo) exact truth)
      (ctx @ [ ("stored_exact", J.int exact); ("oracle", J.int truth) ]);
  let expect_ratio =
    if exact = 0 then 0.0 else estimate /. float_of_int exact
  in
  if Float.abs (ratio -. expect_ratio) > 1e-6 *. Float.max 1.0 (Float.abs expect_ratio)
  then
    flag "ratio-drift"
      (Printf.sprintf "row %s: stored ratio=%.6f but estimate/exact=%.6f" j.Spec.id
         ratio expect_ratio)
      (ctx @ [ ("stored_ratio", J.float ratio); ("recomputed", J.float expect_ratio) ]);
  if not within then
    flag "guarantee"
      (Printf.sprintf "row %s (%s): the run itself recorded a violated guarantee"
         j.Spec.id (Spec.algo_name j.Spec.algo))
      (ctx @ [ ("estimate", J.float estimate); ("exact", J.int exact) ])
  else if not (Spec.guarantee j.Spec.algo ~estimate ~exact) then
    flag "within-drift"
      (Printf.sprintf
         "row %s (%s): stored within=true but estimate=%g against exact=%d breaks the \
          algorithm's guarantee"
         j.Spec.id (Spec.algo_name j.Spec.algo) estimate exact)
      (ctx @ [ ("estimate", J.float estimate); ("exact", J.int exact) ]);
  List.rev !violations

type verdict = Skipped | Audited of Report.violation list

let audit_raw ~oracle ~graph_of_job (j : Spec.job) raw =
  let corrupt ?(data = []) detail =
    Audited
      [ Report.violation ~code:"corrupt-row"
          (Printf.sprintf "row %s: %s" j.Spec.id detail)
          ~data:(("id", J.str j.Spec.id) :: data) ]
  in
  match Harness.Runner.row_of_string raw with
  | Error (Harness.Runner.Unparseable msg) -> corrupt (Printf.sprintf "unparseable JSON (%s)" msg)
  | Error Harness.Runner.No_status -> corrupt "missing status field"
  | Error (Harness.Runner.Bad_field name) ->
    corrupt ~data:[ ("field", J.str name) ] (Printf.sprintf "missing or mistyped field %s" name)
  | Ok { Harness.Runner.n_actual; outcome = Harness.Runner.Succeeded { result; ratio }; _ } ->
    Audited (audit_ok_row ~oracle ~graph_of_job j ~n_actual ~ratio result)
  | Ok _ -> Skipped (* failed rows are the sweep's own report's business *)

let audit_row (spec : Spec.t) (j : Spec.job) raw =
  match audit_raw ~oracle:Oracle.direct ~graph_of_job:(default_graph_of_job spec) j raw with
  | Skipped -> []
  | Audited vs -> vs

(* [f] evaluated on its first call only. Sound within one instance,
   where every call would return the same value. *)
let once f =
  let memo = ref None in
  fun x ->
    match !memo with
    | Some y -> y
    | None ->
      let y = f x in
      memo := Some y;
      y

let audit_store ?(oracle = Oracle.direct) ?(graph_of_job = default_graph_of_job)
    (spec : Spec.t) store =
  let jobs = Array.of_list (Spec.jobs spec) in
  let verdicts = Array.make (Array.length jobs) None in
  (* One instance at a time: the rows of an (n, seed) cell share one
     build and at most one oracle call per kind, and the instance is
     dropped before the next cell, so peak memory does not grow with
     the store. Rows that are failed or corrupt force no build. *)
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let graph_of_job = once (graph_of_job spec) in
          let oracle = Oracle.memo oracle in
          Array.iteri
            (fun i (j : Spec.job) ->
              if j.Spec.n = n && j.Spec.seed = seed then
                verdicts.(i) <-
                  Option.map (audit_raw ~oracle ~graph_of_job j)
                    (Harness.Store.find store j.Spec.id))
            jobs)
        spec.Spec.seeds)
    spec.Spec.sizes;
  let verdicts = List.filter_map Fun.id (Array.to_list verdicts) in
  (* Failed rows count as skipped, not checked, so a store of pure
     failures stays Inconclusive rather than silently Pass. *)
  let audited =
    List.filter_map (function Audited vs -> Some vs | Skipped -> None) verdicts
  in
  let checked = List.length audited in
  let notes =
    [
      ("spec", J.str spec.Spec.name);
      ("jobs", J.int (Array.length jobs));
      ("rows_audited", J.int checked);
      ("rows_skipped", J.int (List.length verdicts - checked));
    ]
  in
  Report.certificate ~name:"sweep-rows" ~claim ~checked ~notes (List.concat audited)
