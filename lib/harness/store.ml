module J = Telemetry.Json

type t = {
  path : string;
  fsync : bool;
  owns_lock : bool;
  read_only : bool;  (** Opened with [~lock:false]: never writes. *)
  mutable closed : bool;
  ids : (string, unit) Hashtbl.t;
  mutable entries : (string * string) list;  (** Reversed insertion order. *)
  mutable dropped : int;
  mutable quarantined : int;
}

exception Locked of { lock_path : string; holder : int }

let path t = t.path
let count t = List.length t.entries
let dropped_lines t = t.dropped
let quarantined_lines t = t.quarantined
let mem t id = Hashtbl.mem t.ids id
let rows t = List.rev t.entries
let find t id = List.assoc_opt id (rows t)

let corrupt_sibling path =
  if Filename.check_suffix path ".jsonl" then
    Filename.chop_suffix path ".jsonl" ^ ".corrupt.jsonl"
  else path ^ ".corrupt"

let corrupt_path t = corrupt_sibling t.path

(* A valid row is a one-line JSON object carrying a string "id". *)
let row_id line =
  match J.parse line with
  | Ok (J.Obj _ as v) -> Option.bind (J.member "id" v) J.to_string_opt
  | Ok _ | Error _ -> None

(* ------------------------- v2 checksum framing --------------------- *)
(* An appended line is the logical row with an FNV-1a64 content
   checksum spliced in as a final ["crc"] member:

     {..logical row..}  ->  {..logical row..,"crc":"<16 hex of row>"}

   The splice is purely syntactic (drop the closing brace, add the
   field), so stripping it recovers the logical row byte-for-byte —
   in-memory rows, [find]/[rows] and every report built from them are
   independent of the framing. Lines without the suffix are legacy v1
   rows and still load (their ids are their only integrity check). *)

let frame_suffix = ",\"crc\":\""
let frame_len = String.length frame_suffix + 16 + 2 (* ..."<hex>"} *)

let frame row =
  Printf.sprintf "%s%s%s\"}"
    (String.sub row 0 (String.length row - 1))
    frame_suffix (Fnv.hex64 row)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

(* [Some (logical_row, crc)] when the line has the v2 shape. *)
let split_frame line =
  let n = String.length line in
  if
    n > frame_len
    && String.sub line (n - frame_len) (String.length frame_suffix) = frame_suffix
    && line.[n - 2] = '"'
    && line.[n - 1] = '}'
  then
    let crc = String.sub line (n - 18) 16 in
    if String.for_all is_hex crc then
      Some (String.sub line 0 (n - frame_len) ^ "}", crc)
    else None
  else None

type parsed = Valid of string * string  (** id, logical row *) | Corrupt

let parse_line line =
  match split_frame line with
  | Some (logical, crc) ->
    if crc = Fnv.hex64 logical then
      match row_id logical with Some id -> Valid (id, logical) | None -> Corrupt
    else Corrupt
  | None -> (
    (* Legacy v1 line — but an object that still carries a "crc"
       member here is a v2 line whose framing got damaged, not a v1
       row (the runner never emitted one): treat it as corrupt. *)
    match J.parse line with
    | Ok (J.Obj _ as v) when J.member "crc" v = None -> (
      match Option.bind (J.member "id" v) J.to_string_opt with
      | Some id -> Valid (id, line)
      | None -> Corrupt)
    | Ok _ | Error _ -> Corrupt)

(* ------------------------------ Locking ---------------------------- *)
(* Advisory single-runner lock: [path ^ ".lock"] is exclusively
   created and stamped with the holder's pid. A live foreign holder
   raises {!Locked}; the same process re-opens freely (tests and the
   CLI legitimately reload a store they already hold); a dead holder's
   lock is stale and silently stolen, so a crashed runner never wedges
   the next one. *)

let lock_file path = path ^ ".lock"

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true

(* [true] when this call created the lock file (and must remove it on
   [close]); [false] on a re-entrant open. *)
let rec acquire_lock ~attempts path =
  let lp = lock_file path in
  Telemetry.Export.mkdir_p (Filename.dirname lp);
  match Unix.openfile lp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
  | fd ->
    let line = string_of_int (Unix.getpid ()) ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd;
    true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
    let holder =
      try int_of_string_opt (String.trim (In_channel.with_open_bin lp In_channel.input_all))
      with Sys_error _ -> None
    in
    match holder with
    | Some pid when pid = Unix.getpid () -> false
    | Some pid when pid_alive pid -> raise (Locked { lock_path = lp; holder = pid })
    | _ ->
      (* Dead holder or unreadable stamp: stale. *)
      (try Sys.remove lp with Sys_error _ -> ());
      if attempts > 0 then acquire_lock ~attempts:(attempts - 1) path
      else raise (Locked { lock_path = lp; holder = -1 }))

let release_lock t =
  if t.owns_lock then
    let lp = lock_file t.path in
    (* Only remove our own stamp — a stealer may have replaced it. *)
    match
      int_of_string_opt (String.trim (In_channel.with_open_bin lp In_channel.input_all))
    with
    | Some pid when pid = Unix.getpid () -> ( try Sys.remove lp with Sys_error _ -> ())
    | Some _ | None -> ()
    | exception Sys_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    release_lock t
  end

(* ------------------------------ Loading ---------------------------- *)

let load ?(fsync = false) ?(lock = true) ~path () =
  let owns_lock = if lock then acquire_lock ~attempts:3 path else false in
  let t =
    {
      path;
      fsync;
      owns_lock;
      read_only = not lock;
      closed = false;
      ids = Hashtbl.create 64;
      entries = [];
      dropped = 0;
      quarantined = 0;
    }
  in
  if Sys.file_exists path then begin
    let content = In_channel.with_open_bin path In_channel.input_all in
    let ends_with_nl = content = "" || content.[String.length content - 1] = '\n' in
    let lines = String.split_on_char '\n' content in
    (* A well-formed file ends with '\n', so splitting yields a final
       "" sentinel; anything else trailing is a partial write. *)
    let rec consume kept bad = function
      | [] | [ "" ] -> (List.rev kept, List.rev bad)
      | [ line ] when not ends_with_nl -> (
        (* Unterminated final line: a partial append in progress when
           the writer died. A valid row just missing its newline is
           kept; anything else is tail damage, not mid-file corruption. *)
        match parse_line line with
        | Valid (id, logical) when not (Hashtbl.mem t.ids id) ->
          Hashtbl.replace t.ids id ();
          (List.rev ((id, logical) :: kept), List.rev bad)
        | Valid _ | Corrupt ->
          t.dropped <- t.dropped + 1;
          (List.rev kept, List.rev bad))
      | line :: rest -> (
        match parse_line line with
        | Valid (id, logical) when not (Hashtbl.mem t.ids id) ->
          Hashtbl.replace t.ids id ();
          consume ((id, logical) :: kept) bad rest
        | Valid _ | Corrupt ->
          (* Mid-file damage (bit flip, spliced or truncated row,
             duplicate id): quarantine the line, keep everything
             around it. *)
          consume kept (line :: bad) rest)
    in
    let kept, bad = consume [] [] lines in
    t.entries <- List.rev kept;
    t.quarantined <- List.length bad;
    (* Repairs are a writer's privilege. A [~lock:false] open is a
       read-only observation of a store somebody else may own: what
       looks like a "partial trailing line" here can be a perfectly
       healthy append in flight on the owner's side, so rewriting (or
       quarantining to the sibling) from this handle would race the
       owner and lose its row. Read-only handles keep the surviving
       rows in memory and leave every on-disk byte alone. *)
    if not t.read_only then begin
      if bad <> [] then begin
        let cpath = corrupt_sibling path in
        Telemetry.Export.mkdir_p (Filename.dirname cpath);
        let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 cpath in
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          bad;
        flush oc;
        if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
        close_out oc
      end;
      (* Rewrite whenever the on-disk bytes and the loaded rows disagree.
         Survivors are re-framed, which transparently upgrades legacy v1
         lines touched by a repair. *)
      if t.dropped > 0 || t.quarantined > 0 || not ends_with_nl then begin
        let b = Buffer.create (String.length content) in
        List.iter
          (fun (_, logical) ->
            Buffer.add_string b (frame logical);
            Buffer.add_char b '\n')
          kept;
        Telemetry.Export.write_file_atomic ~fsync ~path (Buffer.contents b)
      end
    end
  end;
  t

let append t ~id row =
  if t.closed then invalid_arg "Store.append: store is closed";
  if t.read_only then
    invalid_arg "Store.append: store was opened read-only (~lock:false)";
  if String.contains row '\n' then invalid_arg "Store.append: row contains a newline";
  (match row_id row with
  | Some rid when rid = id -> ()
  | _ -> invalid_arg "Store.append: row is not a JSON object with the given id");
  if row.[String.length row - 1] <> '}' then
    invalid_arg "Store.append: row must end with '}' (no trailing whitespace)";
  if mem t id then invalid_arg (Printf.sprintf "Store.append: duplicate id %s" id);
  Telemetry.Export.mkdir_p (Filename.dirname t.path);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 t.path in
  output_string oc (frame row);
  output_char oc '\n';
  flush oc;
  if t.fsync then Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Hashtbl.replace t.ids id ();
  t.entries <- (id, row) :: t.entries
