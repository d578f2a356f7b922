open Ftsim_sim

type addr = int

type word = { mutable value : int; q : Waitq.t }

type table = {
  words : (addr, word) Hashtbl.t;
  mutable next : addr;
  eng : Engine.t option;  (* None only for engine-less unit tests *)
  (* Deferred-resume buffers, keyed by the deferring process's pid.  While
     a process has a buffer registered, resumes for waiters it wakes are
     queued instead of invoked; the wake itself (FIFO dequeue, state
     transition, woken count) stays synchronous.  The sharded det core
     uses this to hold wake-ups performed inside a deterministic section
     until the section's tuple has been appended to the replication log —
     without it, a woken thread could emit tuples on other channels at
     smaller LSNs than its waker's, breaking the causal closure of every
     log prefix that failover and output commit rely on. *)
  defers : (int, (unit -> unit) Queue.t) Hashtbl.t;
}

let create_table ?eng () =
  { words = Hashtbl.create 64; next = 0; eng; defers = Hashtbl.create 4 }

let defer_begin t =
  Hashtbl.replace t.defers (Engine.pid (Engine.self ())) (Queue.create ())

let defer_flush t =
  let pid = Engine.pid (Engine.self ()) in
  match Hashtbl.find_opt t.defers pid with
  | None -> ()
  | Some q ->
      Hashtbl.remove t.defers pid;
      Queue.iter (fun f -> f ()) q

(* Run [f] now unless the calling process is inside a defer window.  Wakes
   from other processes (and from timer context, which never opens a
   window) pass straight through.  The buffers are keyed per-pid, which is
   what makes wakes safe under parallel replay: a secondary never opens a
   window (deferral is primary-only), so a replay executor waking a thread
   whose waker's record ran on a {e different} executor takes the
   pass-through path — there is no cross-executor state to race on, and
   the wake's ordering is supplied entirely by Det's admission gate, not
   by which process performs it. *)
let resume_or_defer t f =
  if Hashtbl.length t.defers = 0 then f ()
  else
    match Hashtbl.find_opt t.defers (Engine.pid (Engine.self ())) with
    | Some q -> Queue.add f q
    | None -> f ()

let word_of t a =
  match Hashtbl.find_opt t.words a with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Futex: unknown address %d" a)

let alloc t =
  let a = t.next in
  t.next <- t.next + 1;
  Hashtbl.replace t.words a { value = 0; q = Waitq.create () };
  a

let get t a = (word_of t a).value
let set t a v = (word_of t a).value <- v

let wait t a ~expected =
  let w = word_of t a in
  if w.value <> expected then `Value_mismatch
  else begin
    match Sync.wait_on w.q with `Woken -> `Woken | `Timeout -> assert false
  end

let wake t a ~count =
  let w = word_of t a in
  let woken = ref 0 in
  while !woken < count && Waitq.wake_one w.q do
    incr woken
  done;
  (match t.eng with
  | Some eng when !woken > 0 && Evlog.detail (Engine.evlog eng) ->
      let ev = Engine.evlog eng in
      Evlog.begin_instant ev ~comp:"kernel.futex" "wake";
      Evlog.arg_int ev "addr" a;
      Evlog.arg_int ev "woken" !woken;
      Evlog.close ev
  | _ -> ());
  !woken

let waiters t a = Waitq.length (word_of t a).q

type waiter = {
  mutable st : [ `Pending | `Woken | `Cancelled ];
  mutable parked : (unit -> unit) option;
  mutable entry : Waitq.entry option;
}

let prepare_wait t a =
  let word = word_of t a in
  let w = { st = `Pending; parked = None; entry = None } in
  let entry =
    Waitq.add word.q (fun () ->
        (* The state transition is synchronous (the waker's dequeue/count
           and a racing [commit_wait] both depend on it); only the resume
           is routed through the waker's defer window, and it re-reads
           [parked] at flush time — by then a timed wait may have expired
           and withdrawn, in which case the wake is absorbed as a legal
           signal-lost-to-timeout outcome. *)
        w.st <- `Woken;
        resume_or_defer t (fun () ->
            match w.parked with Some resume -> resume () | None -> ()))
  in
  w.entry <- Some entry;
  w

let commit_wait w =
  match w.st with
  | `Woken -> ()
  | `Cancelled -> invalid_arg "Futex.commit_wait: waiter was cancelled"
  | `Pending ->
      Engine.suspend (fun _p resume -> w.parked <- Some resume);
      assert (w.st = `Woken)

let commit_wait_deadline w ~deadline =
  match w.st with
  | `Woken -> `Woken
  | `Cancelled -> invalid_arg "Futex.commit_wait_deadline: waiter was cancelled"
  | `Pending -> (
      match
        Engine.with_timeout ~at:deadline (fun _p resume ->
            w.parked <- Some resume;
            fun () ->
              (* Deadline won: withdraw from the futex queue before any later
                 wake can pick this waiter. *)
              w.st <- `Cancelled;
              w.parked <- None;
              match w.entry with Some e -> Waitq.cancel e | None -> ())
      with
      | `Done ->
          assert (w.st = `Woken);
          `Woken
      | `Timeout -> `Timeout)

let cancel_wait w =
  if w.st = `Pending then begin
    w.st <- `Cancelled;
    match w.entry with Some e -> Waitq.cancel e | None -> ()
  end

let waiter_woken w = w.st = `Woken
