type t = {
  id : int;
  n : int;
  max_w : int;
  neighbors : (int * int) array;
}

let degree t = Array.length t.neighbors
