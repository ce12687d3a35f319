(* Struct-of-arrays layout: slot [i] is ([prios.(i)], [seqs.(i)],
   [vals.(i)]). Times stay unboxed in a [Float.Array.t], so a push
   allocates nothing until the arrays double, and a comparison reads two
   flat arrays instead of chasing an entry pointer. Sifts move a hole
   rather than swapping, holding the moving element in locals.

   The tree is 4-ary (children of [i] are [4i+1 .. 4i+4]): half the
   depth of a binary heap, with the four children adjacent in each
   array. It measured faster per event than binary at a depth of 16k. *)

type 'a t = {
  mutable prios : Float.Array.t;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let initial_capacity = 16

let create ~dummy =
  {
    prios = Float.Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = 2 * Array.length h.vals in
  let prios = Float.Array.make cap 0.0 in
  Float.Array.blit h.prios 0 prios 0 h.size;
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.size;
  let vals = Array.make cap h.dummy in
  Array.blit h.vals 0 vals 0 h.size;
  h.prios <- prios;
  h.seqs <- seqs;
  h.vals <- vals

(* Move the element at [i] down to its place among slots [0, size). *)
let sift_down h i =
  let prios = h.prios and seqs = h.seqs and vals = h.vals and n = h.size in
  let p = Float.Array.get prios i and s = seqs.(i) and v = vals.(i) in
  let hole = ref i in
  let moving = ref true in
  while !moving do
    let first = (4 * !hole) + 1 in
    if first >= n then moving := false
    else begin
      let m = ref first in
      let mp = ref (Float.Array.get prios first) in
      let ms = ref seqs.(first) in
      for c = first + 1 to min (first + 3) (n - 1) do
        let cp = Float.Array.get prios c in
        if cp < !mp || (cp = !mp && seqs.(c) < !ms) then begin
          m := c;
          mp := cp;
          ms := seqs.(c)
        end
      done;
      if !mp < p || (!mp = p && !ms < s) then begin
        Float.Array.set prios !hole !mp;
        seqs.(!hole) <- !ms;
        vals.(!hole) <- vals.(!m);
        hole := !m
      end
      else moving := false
    end
  done;
  Float.Array.set prios !hole p;
  seqs.(!hole) <- s;
  vals.(!hole) <- v

(* A new element's seq exceeds every queued one, so it rises only past
   strictly later times: ties stay in insertion order. *)
let push h prio value =
  if h.size = Array.length h.vals then grow h;
  let prios = h.prios and seqs = h.seqs and vals = h.vals in
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let hole = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 4 in
    let pp = Float.Array.get prios parent in
    if prio < pp then begin
      Float.Array.set prios !hole pp;
      seqs.(!hole) <- seqs.(parent);
      vals.(!hole) <- vals.(parent);
      hole := parent
    end
    else moving := false
  done;
  Float.Array.set prios !hole prio;
  seqs.(!hole) <- s;
  vals.(!hole) <- value

let top_prio h =
  if h.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  Float.Array.get h.prios 0

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.vals.(0)

(* The last element fills the root and sinks; its old slot gets the
   sentinel so the heap keeps no reference to a popped value. *)
let pop_top h =
  if h.size = 0 then invalid_arg "Heap.pop_top: empty heap";
  let v = h.vals.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    Float.Array.set h.prios 0 (Float.Array.get h.prios last);
    h.seqs.(0) <- h.seqs.(last);
    h.vals.(0) <- h.vals.(last)
  end;
  h.vals.(last) <- h.dummy;
  if last > 1 then sift_down h 0;
  v

let pop h =
  if h.size = 0 then None
  else
    let p = Float.Array.get h.prios 0 in
    Some (p, pop_top h)

let clear h =
  Array.fill h.vals 0 h.size h.dummy;
  h.size <- 0

(* Survivors keep their original (prio, seq), and pop order is a pure
   function of (prio, seq), so an O(n) compact-and-heapify cannot be
   observed through pop. *)
let filter h keep =
  let prios = h.prios and seqs = h.seqs and vals = h.vals in
  let j = ref 0 in
  for i = 0 to h.size - 1 do
    if keep vals.(i) then begin
      Float.Array.set prios !j (Float.Array.get prios i);
      seqs.(!j) <- seqs.(i);
      vals.(!j) <- vals.(i);
      incr j
    end
  done;
  Array.fill vals !j (h.size - !j) h.dummy;
  h.size <- !j;
  if h.size > 1 then
    for i = (h.size - 2) / 4 downto 0 do
      sift_down h i
    done
