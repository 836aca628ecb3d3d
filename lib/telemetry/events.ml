type fault_kind =
  | Drop_random
  | Drop_bandwidth of int
  | Drop_crashed
  | Delay of int
  | Duplicate
  | Crash

type t =
  | Run_start of { protocol : string; n : int; bandwidth : int }
  | Round_start of { round : int; active : int }
  | Message of { round : int; src : int; dst : int; words : int }
  | Deliver of { round : int; src : int; dst : int }
  | Fault of { round : int; node : int; peer : int; kind : fault_kind }
  | Span_begin of { name : string; round : int; wall_s : float }
  | Span_end of { name : string; round : int; wall_s : float }
  | Run_end of { round : int }

type sink = t -> unit

let null : sink = fun _ -> ()

let collector () =
  let acc = ref [] in
  let sink ev = acc := ev :: !acc in
  (sink, fun () -> List.rev !acc)

let of_on_message f : sink = function
  | Message { round; src; dst; words } -> f ~round ~src ~dst ~words
  | _ -> ()

let fault_kind_name = function
  | Drop_random -> "drop_random"
  | Drop_bandwidth _ -> "drop_bandwidth"
  | Drop_crashed -> "drop_crashed"
  | Delay _ -> "delay"
  | Duplicate -> "duplicate"
  | Crash -> "crash"

let to_json = function
  | Run_start { protocol; n; bandwidth } ->
    Json.obj
      [ ("ev", Json.str "run_start"); ("protocol", Json.str protocol); ("n", Json.int n);
        ("bandwidth", Json.int bandwidth) ]
  | Round_start { round; active } ->
    Json.obj [ ("ev", Json.str "round_start"); ("round", Json.int round); ("active", Json.int active) ]
  | Message { round; src; dst; words } ->
    Json.obj
      [ ("ev", Json.str "message"); ("round", Json.int round); ("src", Json.int src);
        ("dst", Json.int dst); ("words", Json.int words) ]
  | Deliver { round; src; dst } ->
    Json.obj
      [ ("ev", Json.str "deliver"); ("round", Json.int round); ("src", Json.int src);
        ("dst", Json.int dst) ]
  | Fault { round; node; peer; kind } ->
    let base =
      [ ("ev", Json.str "fault"); ("kind", Json.str (fault_kind_name kind));
        ("round", Json.int round); ("node", Json.int node); ("peer", Json.int peer) ]
    in
    let extra =
      match kind with
      | Delay j -> [ ("jitter", Json.int j) ]
      | Drop_bandwidth w -> [ ("words", Json.int w) ]
      | _ -> []
    in
    Json.obj (base @ extra)
  | Span_begin { name; round; wall_s } ->
    Json.obj
      [ ("ev", Json.str "span_begin"); ("name", Json.str name); ("round", Json.int round);
        ("wall_s", Json.float wall_s) ]
  | Span_end { name; round; wall_s } ->
    Json.obj
      [ ("ev", Json.str "span_end"); ("name", Json.str name); ("round", Json.int round);
        ("wall_s", Json.float wall_s) ]
  | Run_end { round } -> Json.obj [ ("ev", Json.str "run_end"); ("round", Json.int round) ]

let write_jsonl oc events =
  List.iter
    (fun ev ->
      output_string oc (Json.print (to_json ev));
      output_char oc '\n')
    events
