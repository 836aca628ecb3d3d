let nominal_unit_s = 0.012

let lcg x = ((x * 1103515245) + 12345) land 0x3FFF_FFFF

(* Sattolo's shuffle makes [next] one cycle over all slots, so the walk
   below visits the whole 2 MiB array in a data-dependent order. *)
let chase () =
  let n = 1 lsl 18 in
  let next = Array.init n Fun.id in
  let s = ref 7 in
  for i = n - 1 downto 1 do
    s := lcg !s;
    let j = !s mod i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 60_000 do
    p := next.(!p);
    acc := !acc + !p
  done;
  !acc

let churn () =
  let h = Hashtbl.create 1024 in
  let s = ref 11 and acc = ref 0 in
  for i = 1 to 15_000 do
    s := lcg !s;
    let k = !s land 0xFFFF in
    (match Hashtbl.find_opt h k with
    | Some (a, b) ->
      acc := !acc + a + b;
      Hashtbl.replace h k (b, i)
    | None -> Hashtbl.add h k (i, !s));
    acc := List.fold_left (fun a (x, y) -> a + x + y) !acc (List.init 8 (fun j -> (j, i)))
  done;
  !acc

let arith () =
  let s = ref 3 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    s := lcg !s;
    acc := !acc lxor (!s lsr 3)
  done;
  !acc

let run () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (chase () + churn () + arith ()));
  Unix.gettimeofday () -. t0
