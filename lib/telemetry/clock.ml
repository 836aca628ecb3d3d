type t = unit -> float

let wall : t =
  let start = Unix.gettimeofday () in
  fun () -> Unix.gettimeofday () -. start
let fixed f : t = fun () -> f

let manual ?(start = 0.0) () =
  let t = ref start in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let now (t : t) = t ()
