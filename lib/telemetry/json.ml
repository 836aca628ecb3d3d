type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let str s = Str s
let int i = Num (float_of_int i)
let float f = Num f
let bool b = Bool b
let obj fields = Obj fields
let arr items = Arr items

(* ------------------------------ printer ---------------------------- *)

(* Float64 represents every integer exactly only below 2^53: a numeral
   in (2^53, 1e18] parses to a *rounded* float whose [int_of_float] is
   a wrong-but-plausible integer. The printer writes every digit below
   the bound and [to_int_opt] refuses the ambiguous range (2^53 itself
   is the image of 2^53 + 1 too, so the bound is strict). *)
let max_exact_int_float = 9007199254740992.0 (* 2^53 *)

let is_exact_int f = Float.is_integer f && Float.abs f < max_exact_int_float

let add_number b f =
  if not (Float.is_finite f) then Buffer.add_char b '0'
  else if is_exact_int f then Buffer.add_string b (Printf.sprintf "%.0f" f)
  else
    (* Nine digits round a value of 1e9 or more to an integer, and
       [parse] reads that back as one: print it as the integer, so
       printing a parsed value gives the same bytes. *)
    let s = Printf.sprintf "%.9g" f in
    let rounded = float_of_string s in
    Buffer.add_string b (if is_exact_int rounded then Printf.sprintf "%.0f" rounded else s)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_elements b opening closing add_one xs =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add_one x)
    xs;
  Buffer.add_char b closing

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> add_number b f
  | Str s -> add_string b s
  | Arr items -> add_elements b '[' ']' (add b) items
  | Obj fields ->
    add_elements b '{' '}' (fun (k, v) -> add_string b k; Buffer.add_char b ':'; add b v) fields

let print v =
  let b = Buffer.create 64 in
  add b v;
  Buffer.contents b

(* ------------------------------ parser ----------------------------- *)

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

let hex_digit = function
  | '0' .. '9' as h -> Some (Char.code h - Char.code '0')
  | 'a' .. 'f' as h -> Some (Char.code h - Char.code 'a' + 10)
  | 'A' .. 'F' as h -> Some (Char.code h - Char.code 'A' + 10)
  | _ -> None

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
          let code = ref 0 in
          for i = c.pos to c.pos + 3 do
            match hex_digit c.src.[i] with
            | Some d -> code := (!code * 16) + d
            | None -> fail c.pos "bad \\u escape"
          done;
          let code = !code in
          c.pos <- c.pos + 4;
          (* Encode the code point as UTF-8; surrogate pairs are kept
             as two separate 3-byte sequences (no writer here emits
             astral-plane text, this is a read-side accommodation). *)
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
    | Some ch when Char.code ch < 0x20 -> fail c.pos "control character in string"
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
  | Some f when Float.is_finite f -> Num f
  | Some _ -> fail start (Printf.sprintf "number %S out of range" s)
  | None -> fail start (Printf.sprintf "bad number %S" s)

(* The elements of an object or array up to [close], separated by
   commas; the cursor sits just past the opening bracket. *)
let elements c close element =
  skip_ws c;
  if peek c = Some close then begin
    advance c;
    []
  end
  else
    let rec go acc =
      let x = element () in
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        go (x :: acc)
      | Some ch when ch = close ->
        advance c;
        List.rev (x :: acc)
      | _ -> fail c.pos (Printf.sprintf "expected ',' or %C" close)
    in
    go []

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
    advance c;
    Obj
      (elements c '}' (fun () ->
           skip_ws c;
           expect c '"';
           let key = parse_string_body c in
           skip_ws c;
           expect c ':';
           (key, parse_value c)))
  | Some '[' ->
    advance c;
    Arr (elements c ']' (fun () -> parse_value c))
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
  | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* ----------------------------- accessors --------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None
let to_int_opt = function Num f when is_exact_int f -> Some (int_of_float f) | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None
