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
    Tjson.obj
      [ ("ev", Tjson.str "run_start"); ("protocol", Tjson.str protocol); ("n", Tjson.int n);
        ("bandwidth", Tjson.int bandwidth) ]
  | Round_start { round; active } ->
    Tjson.obj [ ("ev", Tjson.str "round_start"); ("round", Tjson.int round); ("active", Tjson.int active) ]
  | Message { round; src; dst; words } ->
    Tjson.obj
      [ ("ev", Tjson.str "message"); ("round", Tjson.int round); ("src", Tjson.int src);
        ("dst", Tjson.int dst); ("words", Tjson.int words) ]
  | Deliver { round; src; dst } ->
    Tjson.obj
      [ ("ev", Tjson.str "deliver"); ("round", Tjson.int round); ("src", Tjson.int src);
        ("dst", Tjson.int dst) ]
  | Fault { round; node; peer; kind } ->
    let base =
      [ ("ev", Tjson.str "fault"); ("kind", Tjson.str (fault_kind_name kind));
        ("round", Tjson.int round); ("node", Tjson.int node); ("peer", Tjson.int peer) ]
    in
    let extra =
      match kind with
      | Delay j -> [ ("jitter", Tjson.int j) ]
      | Drop_bandwidth w -> [ ("words", Tjson.int w) ]
      | _ -> []
    in
    Tjson.obj (base @ extra)
  | Span_begin { name; round; wall_s } ->
    Tjson.obj
      [ ("ev", Tjson.str "span_begin"); ("name", Tjson.str name); ("round", Tjson.int round);
        ("wall_s", Tjson.float wall_s) ]
  | Span_end { name; round; wall_s } ->
    Tjson.obj
      [ ("ev", Tjson.str "span_end"); ("name", Tjson.str name); ("round", Tjson.int round);
        ("wall_s", Tjson.float wall_s) ]
  | Run_end { round } -> Tjson.obj [ ("ev", Tjson.str "run_end"); ("round", Tjson.int round) ]

let write_jsonl oc events =
  List.iter
    (fun ev ->
      output_string oc (to_json ev);
      output_char oc '\n')
    events
