(* An intrusive FIFO: each entry is its own list cell.  An [Idle] entry is
   in no queue; [Waiting] and [Cancelled] ones are linked, a cancelled one
   until a wake operation walks past and drops it, so [cancel] stays O(1). *)
type state = Idle | Waiting | Cancelled

type entry =
  | Nil
  | Entry of { waker : unit -> unit; mutable st : state; mutable next : entry }

type t = { mutable head : entry; mutable tail : entry }

let create () = { head = Nil; tail = Nil }

let entry waker = Entry { waker; st = Idle; next = Nil }

let push t e =
  match e with
  | Entry r when r.st = Idle ->
      r.st <- Waiting;
      (match t.tail with Nil -> t.head <- e | Entry last -> last.next <- e);
      t.tail <- e
  | _ -> invalid_arg "Waitq.push: entry already queued"

let add t waker =
  let e = entry waker in
  push t e;
  e

let cancel = function
  | Entry r when r.st = Waiting -> r.st <- Cancelled
  | _ -> ()

let rec wake_one t =
  match t.head with
  | Nil -> false
  | Entry r -> (
      t.head <- r.next;
      (match r.next with Nil -> t.tail <- Nil | Entry _ -> ());
      r.next <- Nil;
      let st = r.st in
      r.st <- Idle;
      match st with
      | Cancelled -> wake_one t
      | Idle -> assert false
      | Waiting ->
          r.waker ();
          true)

let wake_all t =
  let n = ref 0 in
  while wake_one t do
    incr n
  done;
  !n

let rec count n = function
  | Nil -> n
  | Entry r -> count (if r.st = Waiting then n + 1 else n) r.next

let length t = count 0 t.head
let is_empty t = length t = 0
