type node = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
  minor_words : float;
  promoted_words : float;
  children : node list;
}

type t = node list

(* ---------------------------- recording ---------------------------- *)

(* Mutable accumulation tree: one [acc] per distinct call path, looked
   up by name in the parent's table. The recorder is strictly
   single-domain (each recording domain owns its own; [merge] is the
   cross-domain story), so plain Hashtbls are fine. *)
type acc = {
  a_name : string;
  mutable a_calls : int;
  mutable a_total_s : float;
  mutable a_child_s : float;
  mutable a_minor : float;
  mutable a_promoted : float;
  a_kids : (string, acc) Hashtbl.t;
}

let make_acc name =
  {
    a_name = name;
    a_calls = 0;
    a_total_s = 0.0;
    a_child_s = 0.0;
    a_minor = 0.0;
    a_promoted = 0.0;
    a_kids = Hashtbl.create 4;
  }

type frame = { fr_acc : acc; fr_t0 : float; fr_minor0 : float; fr_promoted0 : float }

type recorder = {
  clock : Telemetry.Clock.t;
  gc : bool;
  root : acc;  (** Virtual root; its kids are the tree's roots. *)
  mutable stack : frame list;  (** Open frames, innermost first. *)
}

let recorder ?(clock = Telemetry.Clock.wall) ?(gc = true) () =
  { clock; gc; root = make_acc ""; stack = [] }

let child_of parent name =
  match Hashtbl.find_opt parent.a_kids name with
  | Some a -> a
  | None ->
    let a = make_acc name in
    Hashtbl.replace parent.a_kids name a;
    a

let top r = match r.stack with [] -> r.root | f :: _ -> f.fr_acc

let gc_words r =
  if r.gc then
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, s.Gc.promoted_words)
  else (0.0, 0.0)

let enter_at r name ~wall_s =
  let acc = child_of (top r) name in
  let minor0, promoted0 = gc_words r in
  r.stack <-
    { fr_acc = acc; fr_t0 = wall_s; fr_minor0 = minor0; fr_promoted0 = promoted0 }
    :: r.stack

(* Close the innermost frame at instant [wall_s], crediting its
   duration to the accumulated call path and to the parent's
   child-time (which is what makes self time a subtraction at
   snapshot time, not a bookkeeping burden during recording). *)
let close_top r ~wall_s =
  match r.stack with
  | [] -> ()
  | f :: rest ->
    let dt = Float.max 0.0 (wall_s -. f.fr_t0) in
    let minor1, promoted1 = gc_words r in
    let a = f.fr_acc in
    a.a_calls <- a.a_calls + 1;
    a.a_total_s <- a.a_total_s +. dt;
    a.a_minor <- a.a_minor +. Float.max 0.0 (minor1 -. f.fr_minor0);
    a.a_promoted <- a.a_promoted +. Float.max 0.0 (promoted1 -. f.fr_promoted0);
    r.stack <- rest;
    (top r).a_child_s <- (top r).a_child_s +. dt

let span r name f =
  enter_at r name ~wall_s:(Telemetry.Clock.now r.clock);
  Fun.protect
    ~finally:(fun () -> close_top r ~wall_s:(Telemetry.Clock.now r.clock))
    f

(* Feed the recorder from a span event stream: durations come from the
   events' [wall_s] stamps; all other events are ignored. *)
let event_sink r : Telemetry.Events.sink = function
  | Telemetry.Events.Span_begin { name; wall_s; _ } -> enter_at r name ~wall_s
  | Telemetry.Events.Span_end { name; wall_s; _ } ->
    (* Tolerate unbalanced streams the same way Export.chrome_trace
       does: unwind to the matching open span (closing intervening
       frames at this instant); a close with no matching open is
       dropped. *)
    if List.exists (fun f -> f.fr_acc.a_name = name) r.stack then begin
      let rec unwind () =
        match r.stack with
        | [] -> ()
        | f :: _ ->
          let matched = f.fr_acc.a_name = name in
          close_top r ~wall_s;
          if not matched then unwind ()
      in
      unwind ()
    end
  | _ -> ()

(* ---------------------------- snapshots ---------------------------- *)

let rec freeze acc =
  let children =
    Hashtbl.fold (fun _ a l -> freeze a :: l) acc.a_kids []
    (* A still-open frame's acc has no completed calls; unless closed
       descendants keep it as an interior node, it is invisible — the
       documented "open frames contribute nothing". *)
    |> List.filter (fun n -> n.calls > 0 || n.children <> [])
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  {
    name = acc.a_name;
    calls = acc.a_calls;
    total_s = acc.a_total_s;
    self_s = Float.max 0.0 (acc.a_total_s -. acc.a_child_s);
    minor_words = acc.a_minor;
    promoted_words = acc.a_promoted;
    children;
  }

let tree r = (freeze r.root).children

let of_events ?(gc = false) events =
  let r = recorder ~clock:(Telemetry.Clock.fixed 0.0) ~gc () in
  List.iter (event_sink r) events;
  (* Spans the stream never closed contribute nothing (their last
     event fixed no duration); drop the frames rather than invent
     an end instant. *)
  r.stack <- [];
  tree r

(* ------------------------------ merge ------------------------------ *)

let rec merge_nodes a b =
  {
    name = a.name;
    calls = a.calls + b.calls;
    total_s = a.total_s +. b.total_s;
    self_s = a.self_s +. b.self_s;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    children = merge a.children b.children;
  }

(* Merge two name-sorted sibling lists; associative and commutative,
   so folding worker trees in any fixed order is deterministic. *)
and merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
    let c = String.compare x.name y.name in
    if c < 0 then x :: merge xs b
    else if c > 0 then y :: merge a ys
    else merge_nodes x y :: merge xs ys

let merge_all = List.fold_left merge []

(* ----------------------------- queries ----------------------------- *)

let rec find t = function
  | [] -> None
  | [ name ] -> List.find_opt (fun n -> n.name = name) t
  | name :: rest -> (
    match List.find_opt (fun n -> n.name = name) t with
    | Some n -> find n.children rest
    | None -> None)

let rec total_self t =
  List.fold_left (fun acc n -> acc +. n.self_s +. total_self n.children) 0.0 t

(* ---------------------------- exporters ---------------------------- *)

let rec node_json n =
  let module J = Telemetry.Json in
  J.obj
    [
      ("name", J.str n.name);
      ("calls", J.int n.calls);
      ("total_s", J.float n.total_s);
      ("self_s", J.float n.self_s);
      ("minor_words", J.float n.minor_words);
      ("promoted_words", J.float n.promoted_words);
      ("children", J.arr (List.map node_json n.children));
    ]

let to_json t =
  let module J = Telemetry.Json in
  J.print
    (J.obj
       [ ("schema", J.str "qcongest-profile/v1"); ("roots", J.arr (List.map node_json t)) ])

let folded t =
  let b = Buffer.create 256 in
  let rec emit prefix n =
    let stack = if prefix = "" then n.name else prefix ^ ";" ^ n.name in
    let us = int_of_float (Float.round (n.self_s *. 1e6)) in
    (* Zero-weight interior frames still matter to flamegraph shape
       only through their children; emitting them would add noise
       lines, so only frames with measured self time print. *)
    if us > 0 then Buffer.add_string b (Printf.sprintf "%s %d\n" stack us);
    List.iter (emit stack) n.children
  in
  List.iter (emit "") t;
  Buffer.contents b
