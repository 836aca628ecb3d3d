type t = {
  exit_code : int;
  wall_s : float;
  alloc_words : float option;
  top_heap_words : float option;
}

let env ~domains ~artifacts =
  let replaced = [ "QCONGEST_JOBS"; "QCONGEST_SHARDS"; "OCAMLRUNPARAM"; "ARTIFACTS_DIR" ] in
  let keep kv =
    match String.index_opt kv '=' with
    | Some i -> not (List.mem (String.sub kv 0 i) replaced)
    | None -> true
  in
  Array.append
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))
    [|
      Printf.sprintf "QCONGEST_JOBS=%d" domains;
      "OCAMLRUNPARAM=v=0x400";
      "ARTIFACTS_DIR=" ^ artifacts;
    |]

(* The runtime's exit report is "name: value" lines. *)
let gc_stat stderr name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = name ->
        float_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' stderr)

let run ~env ~dir cli args =
  let out_path = Filename.concat dir "op.stdout" and err_path = Filename.concat dir "op.stderr" in
  let open_out p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = open_out out_path and err = open_out err_path in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; null ])
      (fun () -> Unix.create_process_env cli (Array.of_list (cli :: args)) env null out err)
  in
  let _, status = Unix.waitpid [] pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  let stderr = In_channel.with_open_bin err_path In_channel.input_all in
  {
    exit_code = (match status with Unix.WEXITED c -> c | _ -> -1);
    wall_s;
    alloc_words = gc_stat stderr "allocated_words";
    top_heap_words = gc_stat stderr "top_heap_words";
  }
