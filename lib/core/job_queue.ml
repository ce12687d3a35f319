type 'a t = {
  mutable front : 'a list; (* oldest first *)
  mutable back : 'a list; (* pushed since the last view, newest first *)
  mutable len : int;
}

let create () = { front = []; back = []; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  t.back <- x :: t.back;
  t.len <- t.len + 1

let to_list t =
  (match t.back with
  | [] -> ()
  | back ->
    t.front <- t.front @ List.rev back;
    t.back <- []);
  t.front

let remove t x =
  let rec go acc = function
    | [] -> ()
    | y :: rest when y == x ->
      t.front <- List.rev_append acc rest;
      t.len <- t.len - 1
    | y :: rest -> go (y :: acc) rest
  in
  go [] (to_list t)
