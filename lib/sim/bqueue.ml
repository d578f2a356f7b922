type 'a t = { items : 'a Ring.t; not_empty : Waitq.t }

let create () = { items = Ring.create (); not_empty = Waitq.create () }
let length t = Ring.length t.items
let is_empty t = Ring.is_empty t.items

let put t v =
  Ring.push t.items v;
  ignore (Waitq.wake_one t.not_empty)

(* Wake-ups are hints: a process ready at the same instant may slip in
   between the wake and the resume, so takers re-check in a loop. *)
let rec get t =
  if Ring.is_empty t.items then begin
    ignore (Sync.wait_on t.not_empty);
    get t
  end
  else Ring.pop t.items

let try_get t = if Ring.is_empty t.items then None else Some (Ring.pop t.items)

let rec get_timeout t ~deadline =
  if not (Ring.is_empty t.items) then Some (Ring.pop t.items)
  else
    match Sync.wait_on ~deadline t.not_empty with
    | `Timeout -> None
    | `Woken -> get_timeout t ~deadline
