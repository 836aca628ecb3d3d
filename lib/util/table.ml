type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create_aligned ~headers =
  { headers = List.map fst headers; aligns = List.map snd headers; rows = [] }

let create ~headers = create_aligned ~headers:(List.map (fun h -> (h, Left)) headers)

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cells -> max acc (String.length (List.nth cells i)))
          (String.length h) rows)
      t.headers
  in
  let buf = Buffer.create 1024 in
  let rule () =
    List.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let emit cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i and a = List.nth t.aligns i in
        Buffer.add_string buf ("| " ^ pad a w c ^ " "))
      cells;
    Buffer.add_string buf "|\n"
  in
  rule ();
  emit t.headers;
  rule ();
  List.iter emit rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_bool b = if b then "yes" else "no"
