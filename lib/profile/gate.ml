type case_result = {
  case : string;
  n : int;
  baseline_s : float;
  current_s : float;
  ratio : float;
  within : bool;
}

type verdict = {
  status : Harness.Fit.gate_status;
  tolerance : float;
  min_points : int;
  cases : case_result list;
  missing_baseline : (string * int) list;
  missing_current : (string * int) list;
}

let default_tolerance = 0.35

(* Median wall seconds per (case, n) key. Keys come out sorted, so the
   verdict is a deterministic function of the two row sets. *)
let medians rows =
  let keys =
    List.sort_uniq compare (List.map (fun (r : Trajectory.row) -> (r.case, r.n)) rows)
  in
  List.map
    (fun key ->
      let walls =
        List.filter_map
          (fun (r : Trajectory.row) ->
            if (r.case, r.n) = key then Some r.wall_s else None)
          rows
      in
      (key, Util.Stats.median walls))
    keys

let evaluate ?(tolerance = default_tolerance) ?(min_points = 1) ~baseline ~current () =
  if not (Float.is_finite tolerance) || tolerance < 0.0 then
    invalid_arg "Gate.evaluate: tolerance must be a non-negative finite ratio";
  let base = medians baseline and cur = medians current in
  let cases =
    List.filter_map
      (fun ((case, n), cur_s) ->
        match List.assoc_opt (case, n) base with
        | None -> None
        | Some base_s ->
          (* A zero-or-negative baseline median cannot anchor a ratio;
             treat the point as unusable rather than dividing by it. *)
          if base_s <= 0.0 || cur_s < 0.0 then None
          else
            let ratio = cur_s /. base_s in
            Some
              {
                case;
                n;
                baseline_s = base_s;
                current_s = cur_s;
                ratio;
                within = ratio <= 1.0 +. tolerance;
              })
      cur
  in
  let missing_baseline =
    List.filter_map
      (fun (key, _) -> if List.mem_assoc key base then None else Some key)
      cur
  in
  let missing_current =
    List.filter_map
      (fun (key, _) -> if List.mem_assoc key cur then None else Some key)
      base
  in
  let status =
    if List.length cases < max 1 min_points then Harness.Fit.Inconclusive
    else if List.for_all (fun c -> c.within) cases then Harness.Fit.Pass
    else Harness.Fit.Fail
  in
  { status; tolerance; min_points = max 1 min_points; cases; missing_baseline;
    missing_current }

(* The perf gate's exit contract: 0 only on a measured pass, 1 on a
   measured regression, 3 when there was nothing to measure against —
   the same shape as the CLI sweep gate, with Fail distinguished so CI
   can treat "slower" and "no baseline" differently. *)
let exit_code v =
  match v.status with
  | Harness.Fit.Pass -> 0
  | Harness.Fit.Fail -> 1
  | Harness.Fit.Inconclusive -> 3

let to_json v =
  let module J = Telemetry.Json in
  let key_json (case, n) = J.obj [ ("case", J.str case); ("n", J.int n) ] in
  let case_json c =
    J.obj
      [
        ("case", J.str c.case);
        ("n", J.int c.n);
        ("baseline_s", J.float c.baseline_s);
        ("current_s", J.float c.current_s);
        ("ratio", J.float c.ratio);
        ("within", J.bool c.within);
      ]
  in
  J.obj
    [
      ("schema", J.str "qcongest-perf-gate/v1");
      ("status", J.str (Harness.Fit.status_name v.status));
      ("tolerance", J.float v.tolerance);
      ("min_points", J.int v.min_points);
      ("cases", J.arr (List.map case_json v.cases));
      ("missing_baseline", J.arr (List.map key_json v.missing_baseline));
      ("missing_current", J.arr (List.map key_json v.missing_current));
    ]

let pp ppf v =
  Format.fprintf ppf "perf gate: %s (tolerance %.0f%%, %d case%s)@."
    (Harness.Fit.status_name v.status)
    (v.tolerance *. 100.0) (List.length v.cases)
    (if List.length v.cases = 1 then "" else "s");
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-24s n=%-6d %8.4fs vs %8.4fs  x%.2f %s@." c.case c.n
        c.current_s c.baseline_s c.ratio
        (if c.within then "ok" else "REGRESSION"))
    v.cases;
  List.iter
    (fun (case, n) -> Format.fprintf ppf "  %-24s n=%-6d (no baseline point)@." case n)
    v.missing_baseline;
  List.iter
    (fun (case, n) -> Format.fprintf ppf "  %-24s n=%-6d (dropped from current)@." case n)
    v.missing_current
