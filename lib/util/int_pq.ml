type t = {
  keys : int array; (* heap slot -> key *)
  prios : int array; (* heap slot -> priority *)
  pos : int array; (* key -> heap slot, or -1 *)
  mutable len : int;
}

let create ~n =
  let n = max 1 n in
  { keys = Array.make n 0; prios = Array.make n 0; pos = Array.make n (-1); len = 0 }

let is_empty t = t.len = 0
let size t = t.len
let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

(* Move [(key, prio)] up from slot [i] until the heap property holds.
   The displaced entries are shifted down in place (half the writes of
   repeated swaps). *)
let sift_up t i key prio =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if prio < t.prios.(parent) then begin
      t.keys.(!i) <- t.keys.(parent);
      t.prios.(!i) <- t.prios.(parent);
      t.pos.(t.keys.(!i)) <- !i;
      i := parent
    end
    else continue := false
  done;
  t.keys.(!i) <- key;
  t.prios.(!i) <- prio;
  t.pos.(key) <- !i

let sift_down t i key prio =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i and sp = ref prio in
    if l < t.len && t.prios.(l) < !sp then begin
      smallest := l;
      sp := t.prios.(l)
    end;
    if r < t.len && t.prios.(r) < !sp then smallest := r;
    if !smallest = !i then continue := false
    else begin
      t.keys.(!i) <- t.keys.(!smallest);
      t.prios.(!i) <- t.prios.(!smallest);
      t.pos.(t.keys.(!i)) <- !i;
      i := !smallest
    end
  done;
  t.keys.(!i) <- key;
  t.prios.(!i) <- prio;
  t.pos.(key) <- !i

let insert t ~key ~prio =
  if key < 0 || key >= Array.length t.pos then invalid_arg "Int_pq.insert: key out of range";
  if t.pos.(key) >= 0 then invalid_arg "Int_pq.insert: key present";
  let i = t.len in
  t.len <- t.len + 1;
  sift_up t i key prio

let insert_or_decrease t ~key ~prio =
  if key < 0 || key >= Array.length t.pos then
    invalid_arg "Int_pq.insert_or_decrease: key out of range";
  let i = t.pos.(key) in
  if i < 0 then begin
    let i = t.len in
    t.len <- t.len + 1;
    sift_up t i key prio
  end
  else if prio < t.prios.(i) then sift_up t i key prio

let pop_min t =
  if t.len = 0 then None
  else begin
    let key = t.keys.(0) and prio = t.prios.(0) in
    t.pos.(key) <- -1;
    t.len <- t.len - 1;
    if t.len > 0 then sift_down t 0 t.keys.(t.len) t.prios.(t.len);
    Some (key, prio)
  end

let priority t key = if mem t key then Some t.prios.(t.pos.(key)) else None
