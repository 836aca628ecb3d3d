type entry = { e_name : string; e_trace : Engine.trace; e_wall : float }

type t = {
  clock : Telemetry.Clock.t;
  sink : Telemetry.Events.sink option;
  mutable entries : entry list; (* reversed *)
}

let create ?(clock = Telemetry.Clock.wall) ?sink () = { clock; sink; entries = [] }

let record ?(wall_s = 0.0) t name trace =
  t.entries <- { e_name = name; e_trace = trace; e_wall = wall_s } :: t.entries

let run_phase t name (value, trace) =
  record t name trace;
  value

let total t =
  List.fold_left (fun acc e -> Engine.add_traces acc e.e_trace) Engine.empty_trace t.entries

let rounds t = (total t).Engine.rounds

let wall_seconds t = List.fold_left (fun acc e -> acc +. e.e_wall) 0.0 t.entries

let time_phase t name f =
  let rounds_before = rounds t in
  let t0 = Telemetry.Clock.now t.clock in
  (match t.sink with
  | Some sink ->
    sink (Telemetry.Events.Span_begin { name; round = rounds_before; wall_s = t0 })
  | None -> ());
  let value, trace = f () in
  let t1 = Telemetry.Clock.now t.clock in
  record ~wall_s:(t1 -. t0) t name trace;
  (match t.sink with
  | Some sink ->
    sink
      (Telemetry.Events.Span_end
         { name; round = rounds_before + trace.Engine.rounds; wall_s = t1 })
  | None -> ());
  value

let spans t =
  let merged = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun { e_name; e_trace; e_wall } ->
      match Hashtbl.find_opt merged e_name with
      | Some (acc, w) -> Hashtbl.replace merged e_name (Engine.add_traces acc e_trace, w +. e_wall)
      | None ->
        Hashtbl.replace merged e_name (e_trace, e_wall);
        order := e_name :: !order)
    (List.rev t.entries);
  List.rev_map
    (fun name ->
      let trace, wall = Hashtbl.find merged name in
      (name, trace, wall))
    !order

let phases t = List.map (fun (name, trace, _) -> (name, trace)) (spans t)

let export_metrics ?(prefix = "congest") t m =
  let tot = total t in
  let c name v = Telemetry.Metrics.add m (prefix ^ "." ^ name) v in
  c "rounds" tot.Engine.rounds;
  c "messages" tot.Engine.messages;
  c "words" tot.Engine.words;
  c "activations" tot.Engine.activations;
  c "congestion_violations" tot.Engine.congestion_violations;
  c "dropped" tot.Engine.dropped;
  c "delayed" tot.Engine.delayed;
  c "duplicated" tot.Engine.duplicated;
  Telemetry.Metrics.set_gauge m (prefix ^ ".max_edge_load") (float_of_int tot.Engine.max_edge_load);
  Telemetry.Metrics.set_gauge m (prefix ^ ".crashed") (float_of_int tot.Engine.crashed);
  Telemetry.Metrics.set_gauge m (prefix ^ ".wall_s") (wall_seconds t);
  List.iter
    (fun (name, trace, wall) ->
      c (Printf.sprintf "phase.%s.rounds" name) trace.Engine.rounds;
      c (Printf.sprintf "phase.%s.messages" name) trace.Engine.messages;
      Telemetry.Metrics.set_gauge m (Printf.sprintf "%s.phase.%s.wall_s" prefix name) wall)
    (spans t)

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"phases\":[";
  List.iteri
    (fun i (name, tr, wall) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"name\":%S,\"wall_s\":%s,\"trace\":%s}" name (Telemetry.Tjson.float wall)
           (Engine.trace_to_json tr)))
    (spans t);
  Buffer.add_string b "],\"wall_s\":";
  Buffer.add_string b (Telemetry.Tjson.float (wall_seconds t));
  Buffer.add_string b ",\"total\":";
  Buffer.add_string b (Engine.trace_to_json (total t));
  Buffer.add_char b '}';
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, tr) -> Format.fprintf ppf "%-28s %a@," name Engine.pp_trace tr)
    (phases t);
  Format.fprintf ppf "%-28s %a@]" "TOTAL" Engine.pp_trace (total t)
