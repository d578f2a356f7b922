type 'a t = {
  items : 'a Ring.t;
  cap : int option;
  not_empty : Waitq.t;
  not_full : Waitq.t;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Bqueue.create: capacity must be positive"
  | _ -> ());
  {
    items = Ring.create ();
    cap = capacity;
    not_empty = Waitq.create ();
    not_full = Waitq.create ();
  }

let length t = Ring.length t.items
let is_empty t = Ring.is_empty t.items

let is_full t =
  match t.cap with None -> false | Some c -> Ring.length t.items >= c

(* Wake-ups are hints: a process ready at the same instant may slip in
   between the wake and the resume, so both directions re-check in a loop. *)
let rec put t v =
  if is_full t then begin
    ignore (Sync.wait_on t.not_full);
    put t v
  end
  else begin
    Ring.push t.items v;
    ignore (Waitq.wake_one t.not_empty)
  end

let take t =
  let v = Ring.pop t.items in
  ignore (Waitq.wake_one t.not_full);
  v

let rec get t =
  if Ring.is_empty t.items then begin
    ignore (Sync.wait_on t.not_empty);
    get t
  end
  else take t

let try_get t = if Ring.is_empty t.items then None else Some (take t)

let rec get_timeout t ~deadline =
  if not (Ring.is_empty t.items) then Some (take t)
  else
    match Sync.wait_on ~deadline t.not_empty with
    | `Timeout -> None
    | `Woken -> get_timeout t ~deadline
