type hooks = {
  is_replica : bool;
  chan_alloc : unit -> int;
  det_start : chans:int list -> unit;
  det_end : unit -> unit;
  defer_wakes : bool;
  record_timed_outcome : timed_out:bool -> unit;
  replay_timed_outcome : unit -> bool option;
}

type t = { k : Kernel.t; mutable hooks : hooks option }

let create k = { k; hooks = None }
let set_hooks t h = t.hooks <- h

(* Channel id for a new sync object.  0 (the misc channel) when no
   replication hooks are installed — harmless, since channels only matter
   once hooks exist. *)
let chan t = match t.hooks with Some h -> h.chan_alloc () | None -> 0

(* [defer_wakes] (primary with sharding on): wake-ups performed inside the
   section body are held until the section's tuple is on the replication
   log — see {!Futex.defer_begin}.  The flush runs after [det_end] returns,
   i.e. after the append, outside the channel locks. *)
let det_start t ~chans =
  match t.hooks with
  | Some h ->
      h.det_start ~chans;
      if h.defer_wakes then Futex.defer_begin (Kernel.futexes t.k)
  | None -> ()

let det_end t =
  match t.hooks with
  | Some h ->
      h.det_end ();
      if h.defer_wakes then Futex.defer_flush (Kernel.futexes t.k)
  | None -> ()

(* Charge the operation's CPU cost before entering the deterministic
   section: no suspension may separate the section from the queue position
   it fixes. *)
let charge t = Kernel.pthread_op t.k

(* {1 Mutex}

   Word protocol: 0 = free, 1 = held.  Hand-off: [unlock] wakes the oldest
   waiter and leaves the word at 1, transferring ownership directly, so the
   acquisition order equals the (deterministically serialized) arrival
   order. *)

type mutex = { maddr : Futex.addr; mchan : int }

let mutex_create t = { maddr = Futex.alloc (Kernel.futexes t.k); mchan = chan t }

let mutex_locked t m = Futex.get (Kernel.futexes t.k) m.maddr = 1

let mutex_lock t m =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ m.mchan ];
  if Futex.get tbl m.maddr = 0 then begin
    Futex.set tbl m.maddr 1;
    det_end t
  end
  else begin
    let w = Futex.prepare_wait tbl m.maddr in
    det_end t;
    Futex.commit_wait w
  end

let mutex_trylock t m =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ m.mchan ];
  let ok = Futex.get tbl m.maddr = 0 in
  if ok then Futex.set tbl m.maddr 1;
  det_end t;
  ok

let mutex_unlock_raw t m =
  let tbl = Kernel.futexes t.k in
  if Futex.get tbl m.maddr = 0 then
    invalid_arg "Pthread.mutex_unlock: not locked";
  if Futex.wake tbl m.maddr ~count:1 = 0 then Futex.set tbl m.maddr 0

let mutex_unlock t m =
  charge t;
  det_start t ~chans:[ m.mchan ];
  mutex_unlock_raw t m;
  det_end t

(* {1 Condition variables} *)

type cond = { caddr : Futex.addr; cchan : int }

let cond_create t = { caddr = Futex.alloc (Kernel.futexes t.k); cchan = chan t }

(* A condvar wait touches two sync objects in one section (enqueue on the
   cond, release of the mutex), so the section claims both channels. *)
let cond_chans c m =
  if c.cchan = m.mchan then [ c.cchan ] else [ c.cchan; m.mchan ]

let cond_wait t c m =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:(cond_chans c m);
  let w = Futex.prepare_wait tbl c.caddr in
  mutex_unlock_raw t m;
  det_end t;
  Futex.commit_wait w;
  mutex_lock t m

let cond_timedwait t c m ~deadline =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:(cond_chans c m);
  let w = Futex.prepare_wait tbl c.caddr in
  mutex_unlock_raw t m;
  det_end t;
  (* The signal-versus-timeout race is resolved once, on the primary, and
     its outcome is logged as this thread's next deterministic event; a
     replica forces the logged outcome instead of racing its own timer. *)
  let timed_out =
    match t.hooks with
    | Some h when h.is_replica -> (
        (* Replica: learn the outcome at this op's turn in the log. *)
        det_start t ~chans:[ c.cchan ];
        let o = h.replay_timed_outcome () in
        det_end t;
        match o with
        | Some true ->
            Futex.cancel_wait w;
            true
        | Some false ->
            assert (Futex.waiter_woken w);
            false
        | None ->
            (* Failover opened the gates mid-wait: race the local timer. *)
            Futex.commit_wait_deadline w ~deadline = `Timeout)
    | _ ->
        let r = Futex.commit_wait_deadline w ~deadline in
        let timed_out = r = `Timeout in
        det_start t ~chans:[ c.cchan ];
        (match t.hooks with
        | Some h -> h.record_timed_outcome ~timed_out
        | None -> ());
        det_end t;
        timed_out
  in
  mutex_lock t m;
  if timed_out then `Timeout else `Signaled

let cond_signal t c =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ c.cchan ];
  ignore (Futex.wake tbl c.caddr ~count:1);
  det_end t

let cond_broadcast t c =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ c.cchan ];
  ignore (Futex.wake tbl c.caddr ~count:max_int);
  det_end t

(* {1 Read-write locks} *)

type rwlock = {
  mutable readers : int;
  mutable writer : bool;
  mutable waiting_readers : int;
  mutable waiting_writers : int;
  raddr : Futex.addr;
  waddr : Futex.addr;
  lchan : int;
}

let rwlock_create t =
  let tbl = Kernel.futexes t.k in
  {
    readers = 0;
    writer = false;
    waiting_readers = 0;
    waiting_writers = 0;
    raddr = Futex.alloc tbl;
    waddr = Futex.alloc tbl;
    lchan = chan t;
  }

let rwlock_rdlock t l =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ l.lchan ];
  if (not l.writer) && l.waiting_writers = 0 then begin
    l.readers <- l.readers + 1;
    det_end t
  end
  else begin
    let w = Futex.prepare_wait tbl l.raddr in
    l.waiting_readers <- l.waiting_readers + 1;
    det_end t;
    Futex.commit_wait w
  end

let rwlock_tryrdlock t l =
  charge t;
  det_start t ~chans:[ l.lchan ];
  let ok = (not l.writer) && l.waiting_writers = 0 in
  if ok then l.readers <- l.readers + 1;
  det_end t;
  ok

let rwlock_wrlock t l =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ l.lchan ];
  if (not l.writer) && l.readers = 0 then begin
    l.writer <- true;
    det_end t
  end
  else begin
    let w = Futex.prepare_wait tbl l.waddr in
    l.waiting_writers <- l.waiting_writers + 1;
    det_end t;
    Futex.commit_wait w
  end

let rwlock_trywrlock t l =
  charge t;
  det_start t ~chans:[ l.lchan ];
  let ok = (not l.writer) && l.readers = 0 in
  if ok then l.writer <- true;
  det_end t;
  ok

let rwlock_unlock t l =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ l.lchan ];
  if l.writer then l.writer <- false
  else begin
    if l.readers <= 0 then invalid_arg "Pthread.rwlock_unlock: not held";
    l.readers <- l.readers - 1
  end;
  if l.readers = 0 && not l.writer then begin
    if l.waiting_writers > 0 then begin
      (* Hand off to the oldest writer. *)
      l.writer <- true;
      l.waiting_writers <- l.waiting_writers - 1;
      ignore (Futex.wake tbl l.waddr ~count:1)
    end
    else if l.waiting_readers > 0 then begin
      l.readers <- l.waiting_readers;
      l.waiting_readers <- 0;
      ignore (Futex.wake tbl l.raddr ~count:max_int)
    end
  end;
  det_end t

(* {1 Barriers} *)

type barrier = {
  total : int;
  mutable arrived : int;
  mutable generation : int;
  baddr : Futex.addr;
  bchan : int;
}

let barrier_create t ~count =
  if count <= 0 then invalid_arg "Pthread.barrier_create";
  {
    total = count;
    arrived = 0;
    generation = 0;
    baddr = Futex.alloc (Kernel.futexes t.k);
    bchan = chan t;
  }

let barrier_wait t b =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ b.bchan ];
  b.arrived <- b.arrived + 1;
  if b.arrived = b.total then begin
    (* Last arrival releases the generation and is the serial thread. *)
    b.arrived <- 0;
    b.generation <- b.generation + 1;
    ignore (Futex.wake tbl b.baddr ~count:max_int);
    det_end t;
    `Serial
  end
  else begin
    let w = Futex.prepare_wait tbl b.baddr in
    det_end t;
    Futex.commit_wait w;
    `Normal
  end

(* {1 Counting semaphores} *)

type sem = { mutable count : int; saddr : Futex.addr; schan : int }

let sem_create t n =
  if n < 0 then invalid_arg "Pthread.sem_create";
  { count = n; saddr = Futex.alloc (Kernel.futexes t.k); schan = chan t }

let sem_wait t s =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ s.schan ];
  if s.count > 0 then begin
    s.count <- s.count - 1;
    det_end t
  end
  else begin
    (* Hand-off: a post wakes the oldest waiter, transferring the unit
       directly, so acquisition order is the deterministic arrival order. *)
    let w = Futex.prepare_wait tbl s.saddr in
    det_end t;
    Futex.commit_wait w
  end

let sem_trywait t s =
  charge t;
  det_start t ~chans:[ s.schan ];
  let ok = s.count > 0 in
  if ok then s.count <- s.count - 1;
  det_end t;
  ok

let sem_post t s =
  let tbl = Kernel.futexes t.k in
  charge t;
  det_start t ~chans:[ s.schan ];
  if Futex.wake tbl s.saddr ~count:1 = 0 then s.count <- s.count + 1;
  det_end t

let sem_value _t s = s.count
