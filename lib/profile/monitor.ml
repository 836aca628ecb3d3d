type stats = {
  settled : int;
  total : int;
  ok : int;
  failed : int;
  timeout : int;
  skipped : int;
}

let empty = { settled = 0; total = 0; ok = 0; failed = 0; timeout = 0; skipped = 0 }

let of_rows ?(total = 0) ~rows ~skipped () =
  let ok = ref 0 and failed = ref 0 and timeout = ref 0 in
  List.iter
    (fun (_, raw) ->
      match Harness.Runner.row_of_string raw with
      | Ok { Harness.Runner.outcome = Harness.Runner.Succeeded _; _ } -> incr ok
      | Ok { Harness.Runner.outcome = Harness.Runner.Timed_out _; _ } ->
        incr failed;
        incr timeout
      | Ok _ | Error _ -> incr failed)
    rows;
  { settled = List.length rows; total; ok = !ok; failed = !failed; timeout = !timeout; skipped }

(* One read-only [Store.load]: it never locks, repairs or writes, so
   watching a live sweep is safe (and so is pointing [qcongest top] at
   a finished one). *)
let observe ?(total = 0) ~path () =
  let store = Harness.Store.load ~lock:false ~path () in
  let skipped = Harness.Store.dropped_lines store + Harness.Store.quarantined_lines store in
  of_rows ~total ~rows:(Harness.Store.rows store) ~skipped ()

let rate ~baseline ~elapsed_s s =
  if elapsed_s <= 0.0 then 0.0 else float_of_int (max 0 (s.settled - baseline)) /. elapsed_s

let eta_s ~baseline ~elapsed_s s =
  if s.total <= 0 then None
  else if s.total <= s.settled then Some 0.0
  else
    let r = rate ~baseline ~elapsed_s s in
    if r <= 0.0 then None else Some (float_of_int (s.total - s.settled) /. r)

let human_duration seconds =
  if seconds < 60.0 then Printf.sprintf "%.0fs" seconds
  else if seconds < 3600.0 then
    Printf.sprintf "%dm%02ds" (int_of_float seconds / 60) (int_of_float seconds mod 60)
  else
    Printf.sprintf "%dh%02dm"
      (int_of_float seconds / 3600)
      (int_of_float seconds mod 3600 / 60)

let render ?(width = 0) ?(baseline = 0) ?(elapsed_s = 0.0) s =
  let b = Buffer.create 96 in
  if s.total > 0 then
    Buffer.add_string b
      (Printf.sprintf "%d/%d rows (%d%%)" s.settled s.total
         (if s.total = 0 then 0 else 100 * s.settled / s.total))
  else Buffer.add_string b (Printf.sprintf "%d rows" s.settled);
  let r = rate ~baseline ~elapsed_s s in
  if r > 0.0 then Buffer.add_string b (Printf.sprintf " | %.1f rows/s" r);
  (match eta_s ~baseline ~elapsed_s s with
  | Some eta when eta > 0.0 ->
    Buffer.add_string b (" eta " ^ human_duration eta)
  | _ -> ());
  Buffer.add_string b (Printf.sprintf " | ok %d fail %d timeout %d" s.ok s.failed s.timeout);
  if s.skipped > 0 then Buffer.add_string b (Printf.sprintf " skipped %d" s.skipped);
  let line = Buffer.contents b in
  if width <= 0 then line
  else if String.length line >= width then String.sub line 0 width
  else line ^ String.make (width - String.length line) ' '
