type t = { mutable a : int array; mutable len : int }

let create ?(capacity = 16) () = { a = Array.make (max 1 capacity) 0; len = 0 }

let is_empty t = t.len = 0
let size t = t.len

let grow t =
  if t.len = Array.length t.a then begin
    let a' = Array.make (2 * Array.length t.a) 0 in
    Array.blit t.a 0 a' 0 t.len;
    t.a <- a'
  end

let push t x =
  grow t;
  let a = t.a in
  let i = ref t.len in
  t.len <- t.len + 1;
  (* Sift up with plain int comparisons: no closure, no boxing. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if x < a.(parent) then begin
      a.(!i) <- a.(parent);
      i := parent
    end
    else continue := false
  done;
  a.(!i) <- x

let peek t = if t.len = 0 then None else Some t.a.(0)

let pop_exn t =
  if t.len = 0 then invalid_arg "Int_heap.pop_exn: empty"
  else begin
    let a = t.a in
    let root = a.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      let x = a.(t.len) in
      (* Sift the last element down from the root. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        let sx = ref x in
        if l < t.len && a.(l) < !sx then begin
          smallest := l;
          sx := a.(l)
        end;
        if r < t.len && a.(r) < !sx then smallest := r;
        if !smallest = !i then continue := false
        else begin
          a.(!i) <- a.(!smallest);
          i := !smallest
        end
      done;
      a.(!i) <- x
    end;
    root
  end

let pop t = if t.len = 0 then None else Some (pop_exn t)

(* Heap sort with plain int comparisons. [sift_down a len i x] puts
   [x] at [i] of the max-heap [a.(0 .. len - 1)], moving larger
   children up. *)
let rec sift_down (a : int array) len i x =
  let l = (2 * i) + 1 in
  if l >= len then a.(i) <- x
  else begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    let ac = a.(c) in
    if ac > x then begin
      a.(i) <- ac;
      sift_down a len c x
    end
    else a.(i) <- x
  end

let sort (a : int array) k =
  if k < 0 || k > Array.length a then invalid_arg "Int_heap.sort: prefix out of range";
  for i = (k / 2) - 1 downto 0 do
    sift_down a k i a.(i)
  done;
  for last = k - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    sift_down a last 0 x
  done
