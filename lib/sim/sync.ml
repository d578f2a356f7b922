type outcome = [ `Woken | `Timeout ]

let wait_on ?deadline q =
  match deadline with
  | None ->
      Engine.suspend_on q;
      `Woken
  | Some at -> (
      (* The deadline is a cancellable engine timer: a wake cancels it in
         O(1), a timeout withdraws the queue entry synchronously so it never
         consumes a later wake (hand-off structures depend on this). *)
      match
        Engine.with_timeout ~at (fun _p wake ->
            let entry = Waitq.add q wake in
            fun () -> Waitq.cancel entry)
      with
      | `Done -> `Woken
      | `Timeout -> `Timeout)

module Mutex = struct
  type t = { mutable locked : bool; q : Waitq.t }

  let create () = { locked = false; q = Waitq.create () }

  (* Hand-off semantics: [unlock] transfers ownership directly to the oldest
     waiter, giving FIFO fairness.  The woken waiter returns from [wait_on]
     already holding the lock. *)
  let lock t =
    if not t.locked then t.locked <- true
    else begin
      match wait_on t.q with `Woken -> () | `Timeout -> assert false
    end

  let unlock t =
    if not t.locked then invalid_arg "Sync.Mutex.unlock: not locked";
    if not (Waitq.wake_one t.q) then t.locked <- false

  let is_locked t = t.locked

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Semaphore = struct
  type t = { mutable count : int; q : Waitq.t }

  let create n =
    if n < 0 then invalid_arg "Sync.Semaphore.create: negative count";
    { count = n; q = Waitq.create () }

  (* Like Mutex, releases hand the unit directly to the oldest waiter. *)
  let acquire t =
    if t.count > 0 then t.count <- t.count - 1
    else match wait_on t.q with `Woken -> () | `Timeout -> assert false

  let try_acquire t =
    if t.count > 0 then begin
      t.count <- t.count - 1;
      true
    end
    else false

  let release t = if not (Waitq.wake_one t.q) then t.count <- t.count + 1
end
