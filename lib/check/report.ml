module J = Telemetry.Json

type violation = {
  code : string;
  detail : string;
  data : (string * J.t) list;
}

let violation ?(data = []) ~code detail = { code; detail; data }

type status = Pass | Fail | Inconclusive

type certificate = {
  name : string;
  claim : string;
  status : status;
  checked : int;
  violations : violation list;
  notes : (string * J.t) list;
}

let certificate ?(notes = []) ~name ~claim ~checked violations =
  let status =
    if violations <> [] then Fail else if checked = 0 then Inconclusive else Pass
  in
  { name; claim; status; checked; violations; notes }

type report = { certificates : certificate list }

let status r =
  let worst acc c =
    match (acc, c.status) with
    | Fail, _ | _, Fail -> Fail
    | Inconclusive, _ | _, Inconclusive -> Inconclusive
    | Pass, Pass -> Pass
  in
  List.fold_left worst
    (if r.certificates = [] then Inconclusive else Pass)
    r.certificates

let exit_code r = match status r with Pass -> 0 | Fail -> 1 | Inconclusive -> 3

let status_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Inconclusive -> "inconclusive"

let violation_to_json v =
  J.obj
    ([ ("code", J.str v.code); ("detail", J.str v.detail) ]
    @ if v.data = [] then [] else [ ("data", J.obj v.data) ])

let certificate_to_json c =
  J.obj
    ([
       ("name", J.str c.name);
       ("claim", J.str c.claim);
       ("status", J.str (status_name c.status));
       ("checked", J.int c.checked);
       ("violations", J.arr (List.map violation_to_json c.violations));
     ]
    @ if c.notes = [] then [] else [ ("notes", J.obj c.notes) ])

let to_json r =
  J.obj
    [
      ("schema", J.str "qcongest-check/v1");
      ("status", J.str (status_name (status r)));
      ("pass", J.bool (status r = Pass));
      ("certificates", J.arr (List.map certificate_to_json r.certificates));
    ]

let pp_certificate fmt c =
  Format.fprintf fmt "%-18s %-12s %4d check(s)  %s" c.name
    (String.uppercase_ascii (status_name c.status))
    c.checked c.claim;
  List.iter
    (fun v -> Format.fprintf fmt "@\n    [%s] %s" v.code v.detail)
    c.violations
