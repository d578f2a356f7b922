type entry = { waker : unit -> unit; mutable st : [ `Waiting | `Cancelled | `Woken ] }

type t = { q : entry Queue.t }

let create () = { q = Queue.create () }

let add t waker =
  let e = { waker; st = `Waiting } in
  Queue.push e t.q;
  e

let cancel e = if e.st = `Waiting then e.st <- `Cancelled

(* Cancelled entries are dropped lazily as wake operations walk the queue,
   so [cancel] itself stays O(1). *)
let rec wake_one t =
  if Queue.is_empty t.q then false
  else
    let e = Queue.take t.q in
    match e.st with
    | `Cancelled -> wake_one t
    | `Woken -> assert false
    | `Waiting ->
        e.st <- `Woken;
        e.waker ();
        true

let wake_all t =
  let n = ref 0 in
  while wake_one t do
    incr n
  done;
  !n

let length t =
  Queue.fold (fun acc e -> if e.st = `Waiting then acc + 1 else acc) 0 t.q

let is_empty t = length t = 0
