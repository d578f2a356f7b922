(* [len] values from [slots.(head)], wrapping; [slots] has length 0 or a
   power of two, and every slot outside the run holds [vacant].

   Slots hold [Obj.t] so that a slot can be cleared without a value of
   type ['a] at hand.  Every array is made from the immediate [vacant], so
   none is a flat float array: a float is stored boxed, like any other
   value, and read back as it was stored. *)
type 'a t = { mutable slots : Obj.t array; mutable head : int; mutable len : int }

let vacant = Obj.repr 0

let create () = { slots = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let n = Array.length t.slots in
  let slots = Array.make (max 8 (2 * n)) vacant in
  for k = 0 to t.len - 1 do
    slots.(k) <- t.slots.((t.head + k) land (n - 1))
  done;
  t.slots <- slots;
  t.head <- 0

let push t (v : 'a) =
  if t.len = Array.length t.slots then grow t;
  t.slots.((t.head + t.len) land (Array.length t.slots - 1)) <- Obj.repr v;
  t.len <- t.len + 1

let pop t : 'a =
  if t.len = 0 then invalid_arg "Ring.pop: empty ring";
  let v = t.slots.(t.head) in
  t.slots.(t.head) <- vacant;
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.len <- t.len - 1;
  Obj.obj v
