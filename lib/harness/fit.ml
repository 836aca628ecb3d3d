type ci = { lo : float; hi : float }

let positive_points pts = List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pts

let distinct_x pts =
  List.length (List.sort_uniq compare (List.map fst pts)) >= 2

let bootstrap_ci ?(reps = 200) ~seed pts =
  let pts = positive_points pts in
  if not (distinct_x pts) then invalid_arg "Fit.bootstrap_ci: < 2 distinct abscissae";
  let arr = Array.of_list pts in
  let n = Array.length arr in
  let rng = Util.Rng.create ~seed in
  let slopes = ref [] in
  for _ = 1 to max 1 reps do
    (* Redraw until the resample is fittable; with >= 2 distinct x in
       the source the expected number of redraws is O(1). *)
    let rec draw () =
      let sample = List.init n (fun _ -> arr.(Util.Rng.int rng n)) in
      if distinct_x sample then sample else draw ()
    in
    let fit = Util.Stats.loglog_fit (draw ()) in
    slopes := fit.Util.Stats.slope :: !slopes
  done;
  {
    lo = Util.Stats.percentile !slopes ~p:2.5;
    hi = Util.Stats.percentile !slopes ~p:97.5;
  }

type series_fit = { slope : float; intercept : float; r2 : float; ci : ci }

let fit_series ~seed pts =
  let pts = positive_points pts in
  if not (distinct_x pts) then None
  else
    let f = Util.Stats.loglog_fit pts in
    Some
      {
        slope = f.Util.Stats.slope;
        intercept = f.Util.Stats.intercept;
        r2 = f.Util.Stats.r2;
        ci = bootstrap_ci ~seed pts;
      }

type gate_status = Pass | Fail | Inconclusive

let status_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Inconclusive -> "inconclusive"

type check = {
  series : string;
  expected : float;
  tol : float;
  min_r2 : float;
  fit : series_fit option;
  status : gate_status;
  pass : bool;
  reason : string;
}

type verdict = { pass : bool; status : gate_status; checks : check list }

let seed_of_series name =
  (* Stable small seed from the series name; keeps verdicts
     byte-identical without a global bootstrap order dependence. *)
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF) name;
  !h

let evaluate ?(degraded = []) gates ~series =
  let checks =
    List.map
      (fun (g : Spec.gate) ->
        let base =
          { series = g.Spec.series; expected = g.Spec.expected; tol = g.Spec.tol;
            min_r2 = g.Spec.min_r2; fit = None; status = Fail; pass = false; reason = "" }
        in
        let inconclusive base reason = { base with status = Inconclusive; reason } in
        if List.mem g.Spec.series degraded then
          (* Too few surviving ok rows: any slope fitted through the
             wreckage would be a spurious verdict either way. *)
          inconclusive base "series degraded: too few ok rows to support a verdict"
        else
          match List.assoc_opt g.Spec.series series with
          | None -> inconclusive base "series absent from sweep results"
          | Some pts -> (
            match fit_series ~seed:(seed_of_series g.Spec.series) pts with
            | None ->
              inconclusive base "fewer than 2 distinct sizes with positive rounds"
            | Some f ->
              let dev = Float.abs (f.slope -. g.Spec.expected) in
              if dev > g.Spec.tol then
                { base with
                  fit = Some f;
                  reason =
                    Printf.sprintf "slope %.3f deviates %.3f from expected %.3f (tol %.3f)"
                      f.slope dev g.Spec.expected g.Spec.tol }
              else if f.r2 < g.Spec.min_r2 then
                { base with
                  fit = Some f;
                  reason = Printf.sprintf "fit quality r2=%.3f below floor %.3f" f.r2 g.Spec.min_r2 }
              else
                { base with
                  fit = Some f;
                  status = Pass;
                  pass = true;
                  reason =
                    Printf.sprintf "slope %.3f within %.3f +/- %.3f (r2=%.3f)" f.slope
                      g.Spec.expected g.Spec.tol f.r2 }))
      gates
  in
  let status =
    if checks = [] then Inconclusive
    else if List.exists (fun (c : check) -> c.status = Fail) checks then Fail
    else if List.exists (fun (c : check) -> c.status = Inconclusive) checks then Inconclusive
    else Pass
  in
  { pass = status = Pass && checks <> []; status; checks }

module J = Telemetry.Json

let fit_to_json = function
  | None -> J.Null
  | Some f ->
    J.obj
      [
        ("slope", J.float f.slope);
        ("intercept", J.float f.intercept);
        ("r2", J.float f.r2);
        ("ci_lo", J.float f.ci.lo);
        ("ci_hi", J.float f.ci.hi);
      ]

let verdict_to_json v =
  J.obj
    [
      ("schema", J.str "qcongest-sweep-gate/v1");
      ("pass", J.bool v.pass);
      ("status", J.str (status_name v.status));
      ( "gates",
        J.arr
          (List.map
             (fun c ->
               J.obj
                 [
                   ("series", J.str c.series);
                   ("expected", J.float c.expected);
                   ("tol", J.float c.tol);
                   ("min_r2", J.float c.min_r2);
                   ("fit", fit_to_json c.fit);
                   ("pass", J.bool c.pass);
                   ("status", J.str (status_name c.status));
                   ("reason", J.str c.reason);
                 ])
             v.checks) );
    ]

let exit_code v = if v.pass then 0 else 3
