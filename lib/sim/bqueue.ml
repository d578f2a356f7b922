type 'a t = {
  items : 'a Queue.t;
  cap : int option;
  not_empty : Waitq.t;
  not_full : Waitq.t;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Bqueue.create: capacity must be positive"
  | _ -> ());
  {
    items = Queue.create ();
    cap = capacity;
    not_empty = Waitq.create ();
    not_full = Waitq.create ();
  }

let length t = Queue.length t.items
let capacity t = t.cap
let is_empty t = Queue.is_empty t.items

let is_full t =
  match t.cap with None -> false | Some c -> Queue.length t.items >= c

(* Wake-ups are hints: a process ready at the same instant may slip in
   between the wake and the resume, so both directions re-check in a loop. *)
let rec put t v =
  if is_full t then begin
    ignore (Sync.wait_on t.not_full);
    put t v
  end
  else begin
    Queue.push v t.items;
    ignore (Waitq.wake_one t.not_empty)
  end

let rec get t =
  match Queue.take_opt t.items with
  | Some v ->
      ignore (Waitq.wake_one t.not_full);
      v
  | None ->
      ignore (Sync.wait_on t.not_empty);
      get t

let try_get t =
  match Queue.take_opt t.items with
  | Some v ->
      ignore (Waitq.wake_one t.not_full);
      Some v
  | None -> None

let rec get_timeout t ~deadline =
  match Queue.take_opt t.items with
  | Some v ->
      ignore (Waitq.wake_one t.not_full);
      Some v
  | None -> (
      match Sync.wait_on ~deadline t.not_empty with
      | `Timeout -> None
      | `Woken -> get_timeout t ~deadline)
