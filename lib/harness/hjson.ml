type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

(* One mutable cursor over the input; every [parse_*] leaves the
   cursor just past what it consumed. *)
type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= String.length c.src && String.sub c.src c.pos l = word then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let parse_string_body c =
  (* Cursor sits just past the opening quote. *)
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents b
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail c.pos "unterminated escape"
      | Some e ->
        advance c;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.src then fail c.pos "truncated \\u escape";
          let hex = String.sub c.src c.pos 4 in
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some v -> v
            | None -> fail c.pos "bad \\u escape"
          in
          c.pos <- c.pos + 4;
          (* Encode the code point as UTF-8; surrogate pairs are kept
             as two separate 3-byte sequences (the harness never
             serializes astral-plane text, this is a read-side
             accommodation). *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail (c.pos - 1) "unknown escape");
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail start (Printf.sprintf "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail c.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c.pos "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "byte %d: trailing garbage" c.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "byte %d: %s" pos msg)

let parse_exn s =
  match parse s with
  | Ok v -> v
  | Error msg -> invalid_arg ("Hjson.parse: " ^ msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None

(* Float64 represents every integer exactly only below 2^53: a numeral
   in (2^53, 1e18] parses to a *rounded* float whose [int_of_float] is
   a wrong-but-plausible integer. Refuse the ambiguous range (2^53
   itself is the image of 2^53 + 1 too, so the bound is strict). *)
let max_exact_int_float = 9007199254740992.0 (* 2^53 *)

let to_int_opt = function
  | Num f when Float.is_integer f && Float.abs f < max_exact_int_float ->
    Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None

let rec print = function
  | Null -> "null"
  | Bool b -> Telemetry.Tjson.bool b
  | Num f ->
    if Float.is_integer f && Float.abs f <= 1e15 then
      string_of_int (int_of_float f)
    else Telemetry.Tjson.float f
  | Str s -> Telemetry.Tjson.str s
  | Arr l -> Telemetry.Tjson.arr (List.map print l)
  | Obj fields -> Telemetry.Tjson.obj (List.map (fun (k, v) -> (k, print v)) fields)
