module J = Telemetry.Json

let claim =
  "Section 4 gadget: Table 2 distance bounds, Lemma 4.4/4.9 diameter/radius gap, \
   Figure 4 eccentricity floor"

let gap_ok ~flip (g : Lowerbound.Contraction_check.gap_check) =
  if not flip then g.Lowerbound.Contraction_check.ok
  else if
    (* Negative control: grade the instance as if F evaluated to the
       opposite value; a real gap puts the measurement on exactly one
       side, so this must fail. *)
    not g.Lowerbound.Contraction_check.f_value
  then g.Lowerbound.Contraction_check.measured_hi <= g.Lowerbound.Contraction_check.yes_threshold
  else g.Lowerbound.Contraction_check.measured_lo >= g.Lowerbound.Contraction_check.no_threshold

let certify ?(h = 2) ?(density = 0.6) ?(sample = 4) ?(flip_f = false) ~seed () =
  let violations = ref [] in
  let checked = ref 0 in
  let flag code detail data = violations := Report.violation ~code detail ~data :: !violations in
  let rng = Util.Rng.create ~seed in
  let p = Lowerbound.Gadget.params_of_h ~h in
  let s2 = Util.Int_math.pow 2 p.Lowerbound.Gadget.s in
  let input =
    Lowerbound.Boolfun.random_input ~rng ~s2 ~ell:p.Lowerbound.Gadget.ell ~p:density
  in
  let audit_variant variant =
    let vname =
      match variant with
      | Lowerbound.Gadget.Diameter_gadget -> "diameter"
      | Lowerbound.Gadget.Radius_gadget -> "radius"
    in
    let gd = Lowerbound.Gadget.build ~variant ~h ~input () in
    incr checked;
    if not (Lowerbound.Gadget.structural_ok gd) then
      flag "structure"
        (vname ^ " gadget: node count / edge placement off the Section 4.2 construction")
        [ ("variant", J.str vname) ];
    let c = Lowerbound.Contraction_check.contract gd in
    incr checked;
    if not (Lowerbound.Contraction_check.structure_ok gd c) then
      flag "structure"
        (vname ^ " gadget: Lemma 4.3 contraction classes off the Figure 3 picture")
        [ ("variant", J.str vname) ];
    List.iter
      (fun (row : Lowerbound.Contraction_check.table2_row) ->
        incr checked;
        if not row.Lowerbound.Contraction_check.ok then
          flag "table2-bound"
            (Printf.sprintf "%s gadget, Table 2 row %S: measured %s > bound %d" vname
               row.Lowerbound.Contraction_check.label
               (Graphlib.Dist.to_string row.Lowerbound.Contraction_check.worst)
               row.Lowerbound.Contraction_check.bound)
            [
              ("variant", J.str vname);
              ("row", J.str row.Lowerbound.Contraction_check.label);
              ("bound", J.int row.Lowerbound.Contraction_check.bound);
              ( "worst",
                J.str (Graphlib.Dist.to_string row.Lowerbound.Contraction_check.worst) );
            ])
      (Lowerbound.Contraction_check.table2 gd c ~sample ~rng ());
    let gap =
      match variant with
      | Lowerbound.Gadget.Diameter_gadget -> Lowerbound.Contraction_check.lemma_4_4 gd
      | Lowerbound.Gadget.Radius_gadget -> Lowerbound.Contraction_check.lemma_4_9 gd
    in
    let f_graded =
      if flip_f then not gap.Lowerbound.Contraction_check.f_value
      else gap.Lowerbound.Contraction_check.f_value
    in
    incr checked;
    if not (gap_ok ~flip:flip_f gap) then
      flag "gap"
        (Printf.sprintf
           "%s gadget: measured %d not on the F=%b side (YES <= %d / NO >= %d)" vname
           gap.Lowerbound.Contraction_check.measured f_graded
           gap.Lowerbound.Contraction_check.yes_threshold
           gap.Lowerbound.Contraction_check.no_threshold)
        [
          ("variant", J.str vname);
          ("measured", J.int gap.Lowerbound.Contraction_check.measured);
          ("f", J.bool f_graded);
          ("yes_threshold", J.int gap.Lowerbound.Contraction_check.yes_threshold);
          ("no_threshold", J.int gap.Lowerbound.Contraction_check.no_threshold);
        ];
    incr checked;
    if not (gap.Lowerbound.Contraction_check.distinguishable 0.25) then
      flag "not-distinguishable"
        (vname ^ " gadget: a (3/2 - 1/4)-approximation cannot separate YES from NO")
        [ ("variant", J.str vname) ];
    (match variant with
    | Lowerbound.Gadget.Diameter_gadget -> ()
    | Lowerbound.Gadget.Radius_gadget ->
      List.iter
        (fun (row : Lowerbound.Contraction_check.ecc_row) ->
          incr checked;
          if not row.Lowerbound.Contraction_check.ok then
            flag "ecc-floor"
              (Printf.sprintf
                 "radius gadget, category %S: min eccentricity %d below the 3*alpha floor"
                 row.Lowerbound.Contraction_check.category
                 row.Lowerbound.Contraction_check.min_ecc)
              [
                ("category", J.str row.Lowerbound.Contraction_check.category);
                ("min_ecc", J.int row.Lowerbound.Contraction_check.min_ecc);
              ])
        (Lowerbound.Contraction_check.fig4_eccentricities gd c));
    gd
  in
  let gd = audit_variant Lowerbound.Gadget.Diameter_gadget in
  let _ = audit_variant Lowerbound.Gadget.Radius_gadget in
  let notes =
    [
      ("h", J.int h);
      ("s", J.int p.Lowerbound.Gadget.s);
      ("ell", J.int p.Lowerbound.Gadget.ell);
      ("n", J.int (Graphlib.Wgraph.n gd.Lowerbound.Gadget.graph));
      ("alpha", J.int gd.Lowerbound.Gadget.alpha);
      ("beta", J.int gd.Lowerbound.Gadget.beta);
      ("flip_f", J.bool flip_f);
    ]
  in
  Report.certificate ~name:"gadget-table2" ~claim ~checked:!checked ~notes
    (List.rev !violations)
