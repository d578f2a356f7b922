(* Three parallel arrays rather than an array of records: a push allocates
   nothing (beyond amortised growth) and a comparison reads two unboxed ints.
   Slots at and beyond [len] hold [filler], so a popped value is reachable
   only through whoever popped it. *)
type 'a t = {
  mutable prios : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  filler : 'a;
}

let create ~filler () =
  { prios = [||]; seqs = [||]; vals = [||]; len = 0; filler }

let length h = h.len

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.prios in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let prios = Array.make ncap 0 and seqs = Array.make ncap 0 in
    let vals = Array.make ncap h.filler in
    Array.blit h.prios 0 prios 0 h.len;
    Array.blit h.seqs 0 seqs 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.prios <- prios;
    h.seqs <- seqs;
    h.vals <- vals
  end

let set h i prio seq v =
  h.prios.(i) <- prio;
  h.seqs.(i) <- seq;
  h.vals.(i) <- v

let move h ~src ~dst = set h dst h.prios.(src) h.seqs.(src) h.vals.(src)

let less (p : int) (s : int) p' s' = p < p' || (p = p' && s < s')

(* Both sifts carry a hole down or up the tree and write the moving entry
   once, at the hole's final position. *)
let rec sift_up h i prio seq v =
  let parent = (i - 1) / 2 in
  if i > 0 && less prio seq h.prios.(parent) h.seqs.(parent) then begin
    move h ~src:parent ~dst:i;
    sift_up h parent prio seq v
  end
  else set h i prio seq v

let rec sift_down h i prio seq v =
  let l = (2 * i) + 1 in
  if l >= h.len then set h i prio seq v
  else begin
    let r = l + 1 in
    let c =
      if r < h.len && less h.prios.(r) h.seqs.(r) h.prios.(l) h.seqs.(l) then r
      else l
    in
    if less h.prios.(c) h.seqs.(c) prio seq then begin
      move h ~src:c ~dst:i;
      sift_down h c prio seq v
    end
    else set h i prio seq v
  end

let push h ~prio ~seq v =
  grow h;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) prio seq v

let top_prio h = if h.len = 0 then max_int else h.prios.(0)

let top h =
  if h.len = 0 then invalid_arg "Heap.top: empty heap";
  h.vals.(0)

let top_seq h =
  if h.len = 0 then invalid_arg "Heap.top_seq: empty heap";
  h.seqs.(0)

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.vals.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h 0 h.prios.(last) h.seqs.(last) h.vals.(last);
  h.vals.(last) <- h.filler;
  top
