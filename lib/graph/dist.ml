type t = int

let inf = max_int / 4
let is_inf d = d >= inf
let is_finite d = d < inf

let add a b =
  if a < 0 || b < 0 then invalid_arg "Dist.add: negative";
  if is_inf a || is_inf b then inf else Int.min inf (a + b)

let min (a : t) (b : t) = Int.min a b
let compare (a : t) (b : t) = Int.compare a b

let to_int_exn d = if is_inf d then invalid_arg "Dist.to_int_exn: infinite" else d

let to_string d = if is_inf d then "inf" else string_of_int d

let scale_up_exn d c =
  if c <= 0 then invalid_arg "Dist.scale_up_exn";
  if is_inf d then inf else Int.min inf (d * c)
