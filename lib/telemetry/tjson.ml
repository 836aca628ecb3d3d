(* perfbench only: the string-fragment interface perfbench/ still
   calls, until a benchmark change moves it to {!Json}. Each function
   prints a {!Json.t}; [obj] and [arr] read their fragments back with
   {!Json.parse_exn}, so this module has no printer of its own. *)

let str s = Json.print (Json.str s)
let int i = Json.print (Json.int i)
let float f = Json.print (Json.float f)
let bool b = Json.print (Json.bool b)
let obj fields = Json.print (Json.obj (List.map (fun (k, v) -> (k, Json.parse_exn v)) fields))
let arr items = Json.print (Json.arr (List.map Json.parse_exn items))
