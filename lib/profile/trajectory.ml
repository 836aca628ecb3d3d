type row = {
  case : string;
  n : int;
  reps : int;
  wall_s : float;
  throughput : float;
  host : string;
  git_rev : string;
  unix_s : float;
}

let schema = "qcongest-perf-row/v1"

(* ------------------------- environment facts ----------------------- *)

let host_fingerprint () =
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  Printf.sprintf "%s/%s/%dbit/%dcores" hostname
    (String.lowercase_ascii Sys.os_type)
    Sys.word_size
    (Domain.recommended_domain_count ())

(* Resolve HEAD by reading [.git] directly — no subprocess, and a
   missing or unreadable repository degrades to ["unknown"] instead of
   failing the bench that asked. *)
let git_rev ?(root = ".") () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  let git = Filename.concat root ".git" in
  match read (Filename.concat git "HEAD") with
  | None -> "unknown"
  | Some head ->
    let rev =
      match String.index_opt head ' ' with
      | Some i when String.length head >= 4 && String.sub head 0 4 = "ref:" ->
        let ref_path = String.sub head (i + 1) (String.length head - i - 1) in
        (match read (Filename.concat git ref_path) with
        | Some rev -> Some rev
        | None -> (
          (* Packed ref: "<hex> <refname>" lines. *)
          match read (Filename.concat git "packed-refs") with
          | None -> None
          | Some packed ->
            String.split_on_char '\n' packed
            |> List.find_map (fun line ->
                   match String.index_opt line ' ' with
                   | Some j
                     when String.sub line (j + 1) (String.length line - j - 1) = ref_path
                     -> Some (String.sub line 0 j)
                   | _ -> None)))
      | _ -> Some head (* detached HEAD: the hash itself *)
    in
    (match rev with
    | Some r when String.length r >= 12 -> String.sub r 0 12
    | Some r when r <> "" -> r
    | _ -> "unknown")

(* ------------------------------ rows ------------------------------- *)

let make ?host ?rev ?(unix_s = Unix.gettimeofday ()) ~case ~n ~reps ~wall_s ~throughput
    () =
  {
    case;
    n;
    reps;
    wall_s;
    throughput;
    host = (match host with Some h -> h | None -> host_fingerprint ());
    git_rev = (match rev with Some r -> r | None -> git_rev ());
    unix_s;
  }

let to_json r =
  let module J = Telemetry.Json in
  J.obj
    [
      ("schema", J.str schema);
      ("case", J.str r.case);
      ("n", J.int r.n);
      ("reps", J.int r.reps);
      ("wall_s", J.float r.wall_s);
      ("throughput", J.float r.throughput);
      ("host", J.str r.host);
      ("git_rev", J.str r.git_rev);
      ("unix_s", J.float r.unix_s);
    ]

let of_json v =
  let module H = Telemetry.Json in
  let str k = Option.bind (H.member k v) H.to_string_opt in
  let num k = Option.bind (H.member k v) H.to_float_opt in
  let int k = Option.bind (H.member k v) H.to_int_opt in
  match (str "case", int "n", num "wall_s") with
  | Some case, Some n, Some wall_s ->
    Some
      {
        case;
        n;
        reps = Option.value (int "reps") ~default:1;
        wall_s;
        throughput = Option.value (num "throughput") ~default:0.0;
        host = Option.value (str "host") ~default:"unknown";
        git_rev = Option.value (str "git_rev") ~default:"unknown";
        unix_s = Option.value (num "unix_s") ~default:0.0;
      }
  | _ -> None

(* --------------------------- persistence --------------------------- *)

let dir ?root () =
  let d = Filename.concat (Telemetry.Export.artifacts_dir ?override:root ()) "trajectory" in
  Telemetry.Export.mkdir_p d;
  d

let history_path ?root () = Filename.concat (dir ?root ()) "perf.jsonl"
let latest_path ?root () = Filename.concat (dir ?root ()) "latest.json"

let append ?root rows =
  let path = history_path ?root () in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun r ->
      output_string oc (Telemetry.Json.print (to_json r));
      output_char oc '\n')
    rows;
  close_out oc;
  path

let write_latest ?root rows =
  let path = latest_path ?root () in
  Telemetry.Export.write_file_atomic ~path
    (Telemetry.Json.print (Telemetry.Json.arr (List.map to_json rows)) ^ "\n");
  path

(* Accept both shapes a perf file comes in: the append-only JSONL
   history and the JSON-array snapshot the gate points at. *)
let parse content =
  let module H = Telemetry.Json in
  let trimmed = String.trim content in
  if trimmed = "" then []
  else if trimmed.[0] = '[' then
    match H.parse trimmed with
    | Ok (H.Arr items) -> List.filter_map of_json items
    | Ok _ | Error _ -> []
  else
    String.split_on_char '\n' content
    |> List.filter_map (fun line ->
           if String.trim line = "" then None
           else
             match H.parse line with Ok v -> of_json v | Error _ -> None)

let read ~path =
  if not (Sys.file_exists path) then []
  else parse (In_channel.with_open_bin path In_channel.input_all)
