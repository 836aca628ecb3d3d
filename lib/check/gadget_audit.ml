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

(* The random input's bit density, and the representatives audited per
   Table 2 category (the full clique is quadratic). *)
let density = 0.6
let sample = 4

let certify ?(h = 2) ?(flip_f = false) ~seed () =
  let l = Report.ledger () in
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
    Report.count l;
    if not (Lowerbound.Gadget.structural_ok gd) then
      Report.flag l ~code:"structure"
        (vname ^ " gadget: node count / edge placement off the Section 4.2 construction")
        ~data:[ ("variant", J.str vname) ];
    let c = Lowerbound.Contraction_check.contract gd in
    Report.count l;
    if not (Lowerbound.Contraction_check.structure_ok gd c) then
      Report.flag l ~code:"structure"
        (vname ^ " gadget: Lemma 4.3 contraction classes off the Figure 3 picture")
        ~data:[ ("variant", J.str vname) ];
    List.iter
      (fun (row : Lowerbound.Contraction_check.table2_row) ->
        Report.count l;
        if not row.Lowerbound.Contraction_check.ok then
          Report.flag l ~code:"table2-bound"
            (Printf.sprintf "%s gadget, Table 2 row %S: measured %s > bound %d" vname
               row.Lowerbound.Contraction_check.label
               (Graphlib.Dist.to_string row.Lowerbound.Contraction_check.worst)
               row.Lowerbound.Contraction_check.bound)
            ~data:
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
    Report.count l;
    if not (gap_ok ~flip:flip_f gap) then
      Report.flag l ~code:"gap"
        (Printf.sprintf
           "%s gadget: measured %d not on the F=%b side (YES <= %d / NO >= %d)" vname
           gap.Lowerbound.Contraction_check.measured f_graded
           gap.Lowerbound.Contraction_check.yes_threshold
           gap.Lowerbound.Contraction_check.no_threshold)
        ~data:
          [
            ("variant", J.str vname);
            ("measured", J.int gap.Lowerbound.Contraction_check.measured);
            ("f", J.bool f_graded);
            ("yes_threshold", J.int gap.Lowerbound.Contraction_check.yes_threshold);
            ("no_threshold", J.int gap.Lowerbound.Contraction_check.no_threshold);
          ];
    Report.count l;
    if not (gap.Lowerbound.Contraction_check.distinguishable 0.25) then
      Report.flag l ~code:"not-distinguishable"
        (vname ^ " gadget: a (3/2 - 1/4)-approximation cannot separate YES from NO")
        ~data:[ ("variant", J.str vname) ];
    (match variant with
    | Lowerbound.Gadget.Diameter_gadget -> ()
    | Lowerbound.Gadget.Radius_gadget ->
      List.iter
        (fun (row : Lowerbound.Contraction_check.ecc_row) ->
          Report.count l;
          if not row.Lowerbound.Contraction_check.ok then
            Report.flag l ~code:"ecc-floor"
              (Printf.sprintf
                 "radius gadget, category %S: min eccentricity %d below the 3*alpha floor"
                 row.Lowerbound.Contraction_check.category
                 row.Lowerbound.Contraction_check.min_ecc)
              ~data:
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
  Report.finish l ~name:"gadget-table2" ~claim ~notes
