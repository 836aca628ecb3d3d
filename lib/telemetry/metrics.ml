(* Bucket 0 is the underflow bucket (samples <= 0); bucket i >= 1
   holds samples whose bit length is i, i.e. the range
   [2^(i-1), 2^i - 1]. 63 buckets cover every OCaml int. *)
let n_buckets = 64

let bucket_of v =
  if v <= 0 then 0
  else begin
    let r = ref 0 and x = ref v in
    while !x > 0 do
      incr r;
      x := !x lsr 1
    done;
    !r
  end

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

type value = Counter of int ref | Gauge of float ref | Histogram of hist

type t = (string, value) Hashtbl.t

let create () : t = Hashtbl.create 32

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let find_or_create t name mk =
  match Hashtbl.find_opt t name with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.replace t name v;
    v

let mismatch name v want =
  invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name v) want)

let add t name v =
  if v < 0 then invalid_arg "Metrics.add: negative increment";
  match find_or_create t name (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + v
  | other -> mismatch name other "counter"

let incr t name = add t name 1

let set_gauge t name v =
  match find_or_create t name (fun () -> Gauge (ref v)) with
  | Gauge r -> r := v
  | other -> mismatch name other "gauge"

let observe t name v =
  match
    find_or_create t name (fun () ->
        Histogram
          { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
            h_buckets = Array.make n_buckets 0 })
  with
  | Histogram h ->
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = h.h_buckets in
    let i = bucket_of v in
    b.(i) <- b.(i) + 1
  | other -> mismatch name other "histogram"

(* ------------------------------- snapshots ------------------------- *)

type histogram_stats = {
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
  buckets : (int * int) list;
}

type svalue = SCounter of int | SGauge of float | SHistogram of histogram_stats

type snapshot = (string * svalue) list (* sorted by name *)

let snapshot (t : t) : snapshot =
  Hashtbl.fold
    (fun name v acc ->
      let sv =
        match v with
        | Counter r -> SCounter !r
        | Gauge r -> SGauge !r
        | Histogram h ->
          let buckets = ref [] in
          for i = n_buckets - 1 downto 0 do
            if h.h_buckets.(i) > 0 then buckets := (bucket_upper i, h.h_buckets.(i)) :: !buckets
          done;
          SHistogram
            { count = h.h_count; sum = h.h_sum; min_v = h.h_min; max_v = h.h_max;
              buckets = !buckets }
      in
      (name, sv) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let names (s : snapshot) = List.map fst s

let counter_value s name =
  match List.assoc_opt name s with Some (SCounter v) -> Some v | _ -> None

let gauge_value s name =
  match List.assoc_opt name s with Some (SGauge v) -> Some v | _ -> None

let histogram_stats s name =
  match List.assoc_opt name s with Some (SHistogram h) -> Some h | _ -> None

(* The histogram only keeps bucket occupancy, so a percentile is the
   inclusive upper bound of the bucket holding the rank-p sample — an
   overestimate by at most 2x (the bucket width), which is the
   resolution contract of log2 bucketing. Rank follows the
   nearest-rank definition: rank = ceil(p/100 * count), clamped to
   [1, count], so p = 0 reports the first occupied bucket and p = 100
   the last. *)
let percentile (h : histogram_stats) p =
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Metrics.percentile: p outside [0, 100]";
  if h.count = 0 then None
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)) in
      max 1 (min h.count r)
    in
    let rec scan acc = function
      | [] -> None (* unreachable: bucket counts sum to h.count *)
      | (le, c) :: rest -> if acc + c >= rank then Some le else scan (acc + c) rest
    in
    scan 0 h.buckets
  end

let to_json (s : snapshot) =
  Json.obj
    (List.map
       (fun (name, v) ->
         let body =
           match v with
           | SCounter c -> Json.obj [ ("type", Json.str "counter"); ("value", Json.int c) ]
           | SGauge g -> Json.obj [ ("type", Json.str "gauge"); ("value", Json.float g) ]
           | SHistogram h ->
             Json.obj
               [
                 ("type", Json.str "histogram");
                 ("count", Json.int h.count);
                 ("sum", Json.int h.sum);
                 ("min", Json.int (if h.count = 0 then 0 else h.min_v));
                 ("max", Json.int (if h.count = 0 then 0 else h.max_v));
                 ( "buckets",
                   Json.arr
                     (List.map
                        (fun (le, c) ->
                          Json.obj [ ("le", Json.int le); ("count", Json.int c) ])
                        h.buckets) );
               ]
         in
         (name, body))
       s)
