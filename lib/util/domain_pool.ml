let env_var = "QCONGEST_JOBS"

let configured : int option ref = ref None

let set_default_jobs j =
  if j < 1 then invalid_arg "Domain_pool.set_default_jobs: jobs < 1";
  configured := Some j

let validate_env () =
  match Sys.getenv_opt env_var with
  | None -> Ok None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Ok (Some j)
    | Some _ | None ->
      Error
        (Printf.sprintf
           "%s=%S is not a positive integer (set it to a worker count >= 1, or unset it)"
           env_var s))

let default_jobs () =
  match validate_env () with
  | Ok (Some j) -> j
  | Error msg -> invalid_arg ("Domain_pool: " ^ msg)
  | Ok None -> (
    match !configured with
    | Some j -> j
    | None -> max 1 (Domain.recommended_domain_count ()))

(* Contiguous chunk [lo, hi) of worker [w] out of [jobs] over [n]
   items: sizes differ by at most one, every index covered exactly
   once, in order — the merge is deterministic by construction. *)
let chunk ~n ~jobs w =
  let base = n / jobs and extra = n mod jobs in
  let lo = (w * base) + min w extra in
  let hi = lo + base + (if w < extra then 1 else 0) in
  (lo, hi)

let run ?jobs n f =
  if n < 0 then invalid_arg "Domain_pool.run: negative size";
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs (max 1 n) in
  if jobs <= 1 then Array.init n f
  else begin
    let work w () =
      let lo, hi = chunk ~n ~jobs w in
      Array.init (hi - lo) (fun i -> f (lo + i))
    in
    (* Fan out chunks 1..jobs-1; chunk 0 runs on the calling domain so
       a pool of [jobs] uses exactly [jobs] domains in total. *)
    let others = Array.init (jobs - 1) (fun w -> Domain.spawn (work (w + 1))) in
    let first = work 0 () in
    Array.concat (first :: List.map Domain.join (Array.to_list others))
  end

let map_list ?jobs f l =
  let a = Array.of_list l in
  Array.to_list (run ?jobs (Array.length a) (fun i -> f a.(i)))
