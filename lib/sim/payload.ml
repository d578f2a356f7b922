type chunk = Str of string | Zero of int

let of_string s = Str s
let zeroes n = if n < 0 then invalid_arg "Payload.zeroes" else Zero n

let chunk_len = function Str s -> String.length s | Zero n -> n

let chunk_to_string = function Str s -> s | Zero n -> String.make n '\000'

let total_len cs = List.fold_left (fun acc c -> acc + chunk_len c) 0 cs

let concat_to_string cs = String.concat "" (List.map chunk_to_string cs)

let split_chunk c n =
  let len = chunk_len c in
  if n < 0 || n > len then invalid_arg "Payload.split_chunk";
  match c with
  | Zero _ -> (Zero n, Zero (len - n))
  | Str s -> (Str (String.sub s 0 n), Str (String.sub s n (len - n)))

(* Rolling polynomial content hash: H(s @ c) = H(s) * r^len(c) + poly(c).
   Invariant under re-chunking (the two replicas see the same byte stream
   cut at different chunk boundaries), and O(log n) for synthetic zero
   runs, whose bytes contribute no poly term. *)
let hash_r = 1000003

let rec pow_r n =
  if n = 0 then 1
  else
    let h = pow_r (n / 2) in
    let h2 = h * h in
    if n land 1 = 0 then h2 else h2 * hash_r

let stream_hash h cs =
  List.fold_left
    (fun h c ->
      match c with
      | Zero n -> h * pow_r n
      | Str s ->
          String.fold_left (fun h ch -> (h * hash_r) + Char.code ch) h s)
    h cs

(* The [n] bytes of [c] from byte [off]: [c] itself when that is all of it. *)
let sub c off n =
  if off = 0 && n = chunk_len c then c
  else match c with Zero _ -> Zero n | Str s -> Str (String.sub s off n)

module Buf = struct
  (* A ring of chunks, [count] of them from [ring.(head)], of which the
     first [skip] bytes are already consumed.  Empty slots hold [none]. *)
  type t = {
    mutable ring : chunk array;  (* length 0 or a power of two *)
    mutable head : int;
    mutable count : int;
    mutable skip : int;
    mutable len : int;
    mutable base : int;
  }

  let none = Zero 0

  let create ?(base = 0) () =
    { ring = [||]; head = 0; count = 0; skip = 0; len = 0; base }

  let length t = t.len
  let base t = t.base
  let limit t = t.base + t.len
  let nth t k = t.ring.((t.head + k) land (Array.length t.ring - 1))

  let append t c =
    let cl = chunk_len c in
    if cl > 0 then begin
      let n = Array.length t.ring in
      if t.count = n then begin
        let ring = Array.make (max 4 (2 * n)) none in
        for k = 0 to t.count - 1 do
          ring.(k) <- nth t k
        done;
        t.ring <- ring;
        t.head <- 0
      end;
      t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- c;
      t.count <- t.count + 1;
      t.len <- t.len + cl
    end

  (* Consume [n] bytes of the first chunk, which has that many left. *)
  let advance t n =
    t.len <- t.len - n;
    t.base <- t.base + n;
    if t.skip + n = chunk_len t.ring.(t.head) then begin
      t.ring.(t.head) <- none;
      t.head <- (t.head + 1) land (Array.length t.ring - 1);
      t.count <- t.count - 1;
      t.skip <- 0
    end
    else t.skip <- t.skip + n

  let[@tail_mod_cons] rec take_n t n =
    if n = 0 then []
    else
      let c = t.ring.(t.head) in
      let k = min n (chunk_len c - t.skip) in
      let piece = sub c t.skip k in
      advance t k;
      piece :: take_n t (n - k)

  let take t n = take_n t (min n t.len)

  let rec drop t n =
    if n > 0 then begin
      let k = min n (chunk_len t.ring.(t.head) - t.skip) in
      advance t k;
      drop t (n - k)
    end

  let drop_to t off = drop t (max 0 (min (off - t.base) t.len))

  (* [want] bytes from chunk [k], starting [off] bytes into it. *)
  let[@tail_mod_cons] rec collect t k off want =
    if want = 0 then []
    else
      let c = nth t k in
      let cl = chunk_len c in
      if off >= cl then collect t (k + 1) (off - cl) want
      else
        let n = min (cl - off) want in
        sub c off n :: collect t (k + 1) 0 (want - n)

  let peek_range t ~off ~len =
    let start = max t.base off in
    let stop = min (limit t) (off + len) in
    if stop <= start then [] else collect t 0 (t.skip + start - t.base) (stop - start)

  let to_string t =
    let acc = Buffer.create (min t.len 4096) in
    for k = 0 to t.count - 1 do
      let c = nth t k in
      let off = if k = 0 then t.skip else 0 in
      Buffer.add_string acc (chunk_to_string (sub c off (chunk_len c - off)))
    done;
    Buffer.contents acc
end
