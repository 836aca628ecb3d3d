(* Every JSON artifact reprints to its own bytes through
   Telemetry.Json: a .json file is one printed value (a trailing
   newline aside), a .jsonl file one printed value per line. A writer
   that bypasses the one printer fails here.

   Usage: json_reprint FILE...; exits 1 after naming every file and
   line that does not reprint. *)

let () =
  let failures = ref 0 in
  let check file where text =
    match Telemetry.Json.parse text with
    | Ok v when Telemetry.Json.print v = text -> ()
    | Ok v ->
      incr failures;
      Printf.printf "%s%s reprints differently:\n  %s\n  %s\n" file where text
        (Telemetry.Json.print v)
    | Error msg ->
      incr failures;
      Printf.printf "%s%s does not parse: %s\n" file where msg
  in
  let chop_newline s =
    if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1) else s
  in
  Array.iteri
    (fun i file ->
      if i > 0 then begin
        let text = chop_newline (In_channel.with_open_bin file In_channel.input_all) in
        if Filename.check_suffix file ".jsonl" then
          List.iteri
            (fun n line -> check file (Printf.sprintf ", line %d," (n + 1)) line)
            (String.split_on_char '\n' text)
        else check file "" text
      end)
    Sys.argv;
  if !failures > 0 then exit 1
