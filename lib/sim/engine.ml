type exit_reason = Normal | Killed | Exn of exn

exception Killed_exn

(* Two event sources share one [(at, seq)] key space: the heap (one-shot
   [schedule] closures, process wake-ups) and the timer wheel (cancellable
   timers).  [run] always fires the globally smallest [(at, seq)] next, so
   adding the wheel changes nothing about event order — only about what
   [cancel] costs and whether dead timers linger. *)
type t = {
  mutable now : Time.t;
  events : (unit -> unit) Heap.t;
  timers : (unit -> unit) Twheel.t;
  mutable seq : int;
  mutable live : int;
  mutable next_pid : int;
  mutable stopping : bool;
  root_prng : Prng.t;
  registry : Metrics.Registry.t;
  evlog : Evlog.t;
  c_events : Metrics.Counter.t;
  c_timers_armed : Metrics.Counter.t;
  c_timers_cancelled : Metrics.Counter.t;
  c_timers_fired : Metrics.Counter.t;
  c_spawned : Metrics.Counter.t;
}

(* A parked process keeps its continuation in [k] from the park until the
   event that resumes it.  [gen] counts its parks: a waker remembers the
   park it was handed out for and does nothing once that park has ended.
   [resume] and [sleep_h] are the process's own resume event and the wheel
   handle of the sleep it is parked in; [resume] is built when the process
   first runs, so spawning allocates no more than the record. *)
and proc = {
  pid : int;
  name : string;
  eng : t;
  mutable state : state;
  mutable doomed : bool;
  mutable watchers : (exit_reason -> unit) list;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable gen : int;
  mutable resume : unit -> unit;
  mutable sleep_h : (unit -> unit) Twheel.handle;
}

(* [Blocked]: parked, waiting for a waker or a kill to claim it.  [Ready]:
   claimed, with its resumption scheduled. *)
and state = Embryo | Ready | Running | Blocked | Exited of exit_reason

(* A process parked at a gate.  The record is built once per [Gate.wait]
   and outlives every re-park, so parking again allocates nothing.
   [w_gen] is the park it joined the gate with: a process killed while
   parked has left that park, so a broadcast drops its entry.  [w_next]
   links the gate's FIFO, or the rest of a wave. *)
type waiter =
  | Nil
  | Waiter of {
      w_proc : proc;
      w_ready : unit -> bool;
      mutable w_gen : int;
      mutable w_next : waiter;
    }

type gate = { mutable g_head : waiter; mutable g_tail : waiter }

type _ Effect.t +=
  | E_self : proc Effect.t
  | E_suspend : (proc -> (unit -> unit) -> unit) -> unit Effect.t
  | E_sleep : Time.t -> unit Effect.t
  | E_sleep_until : Time.t -> unit Effect.t
  | E_wait : Waitq.t -> unit Effect.t
  | E_gate_wait : gate * (unit -> bool) -> unit Effect.t

let create ?(seed = 42) ?evlog_cap () =
  let registry = Metrics.Registry.create () in
  let evlog = Evlog.create ?cap:evlog_cap () in
  Evlog.set_dropped_counter evlog
    (Metrics.Registry.counter registry "evlog.dropped_events");
  let t =
    {
      now = 0;
      events = Heap.create ~filler:ignore ();
      timers = Twheel.create ();
      seq = 0;
      live = 0;
      next_pid = 0;
      stopping = false;
      root_prng = Prng.create ~seed;
      registry;
      evlog;
      c_events = Metrics.Registry.counter registry "engine.events_fired";
      c_timers_armed = Metrics.Registry.counter registry "engine.timers_armed";
      c_timers_cancelled =
        Metrics.Registry.counter registry "engine.timers_cancelled";
      c_timers_fired = Metrics.Registry.counter registry "engine.timers_fired";
      c_spawned = Metrics.Registry.counter registry "engine.procs_spawned";
    }
  in
  Evlog.set_clock evlog (fun () -> t.now);
  t

let now t = t.now
let prng t = t.root_prng
let metrics t = t.registry
let evlog t = t.evlog
let pending_events t = Heap.length t.events + Twheel.live t.timers
let live_procs t = t.live
let stop t = t.stopping <- true
let pid p = p.pid
let engine_of_proc p = p.eng

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: time in the past";
  if at = Time.never then invalid_arg "Engine.schedule: Time.never";
  t.seq <- t.seq + 1;
  Heap.push t.events ~prio:at ~seq:t.seq f

type handle = { h_eng : t; h_timer : (unit -> unit) Twheel.handle }

(* File [f] in the wheel at [at], drawing the next seq. *)
let arm t ~at f =
  if at < t.now then invalid_arg "Engine.timer: time in the past";
  if at = Time.never then invalid_arg "Engine.timer: Time.never";
  (* The wheel's clock normally tracks [t.now] (the run loop syncs it before
     firing anything); outside [run] it may lag, so catch up before filing. *)
  Twheel.advance t.timers ~upto:t.now;
  t.seq <- t.seq + 1;
  Metrics.Counter.incr t.c_timers_armed;
  Twheel.add t.timers ~at ~seq:t.seq f

let timer t ~at f = { h_eng = t; h_timer = arm t ~at f }

let disarm t th =
  if Twheel.is_armed th then begin
    Twheel.cancel t.timers th;
    Metrics.Counter.incr t.c_timers_cancelled
  end

let cancel h = disarm h.h_eng h.h_timer
let timer_armed h = Twheel.is_armed h.h_timer

(* Open a [proc.*] event with [p]'s pid and name; the caller closes it. *)
let proc_event p name =
  let ev = p.eng.evlog in
  Evlog.begin_instant ev ~comp:"sim.engine" name;
  Evlog.arg_int ev "pid" p.pid;
  Evlog.arg_str ev "name" p.name

let finish p reason =
  (match p.state with Exited _ -> assert false | _ -> ());
  p.state <- Exited reason;
  p.eng.live <- p.eng.live - 1;
  let why =
    match reason with
    | Normal -> "normal"
    | Killed -> "killed"
    | Exn e -> Printexc.to_string e
  in
  proc_event p "proc.exit";
  Evlog.arg_str p.eng.evlog "reason" why;
  Evlog.close p.eng.evlog;
  let ws = p.watchers in
  p.watchers <- [];
  List.iter (fun w -> w reason) ws

(* Resume [p]'s continuation [k].  Re-checks [doomed] so that a kill that
   raced with the wake-up unwinds the process instead of running it. *)
let fire p k =
  p.state <- Running;
  if p.doomed then Effect.Deep.discontinue k Killed_exn
  else Effect.Deep.continue k ()

(* Never armed: the sleep handle of a process that is not asleep. *)
let no_sleep = Twheel.unarmed

(* [p]'s resume event.  A kill that claimed a sleeper cancels the sleep's
   timer here, as it unwinds the fiber: a timer due at this instant before
   this event has already fired, as a no-op, and counts as fired. *)
let resume p () =
  match (p.state, p.k) with
  | Ready, Some k ->
      p.k <- None;
      if p.doomed then disarm p.eng p.sleep_h;
      p.sleep_h <- no_sleep;
      fire p k
  | _ -> ()

(* Park [p], whose continuation is already in [p.k]: a new generation. *)
let park p =
  let ev = p.eng.evlog in
  if Evlog.detail ev then begin
    Evlog.begin_instant ev ~comp:"sim.engine" "proc.park";
    Evlog.arg_int ev "pid" p.pid;
    Evlog.close ev
  end;
  p.gen <- p.gen + 1;
  p.state <- Blocked

(* End [p]'s park and schedule its resume event. *)
let claim p =
  p.state <- Ready;
  schedule p.eng ~at:p.eng.now p.resume

(* A waker for [p]'s current park: it claims [p] if that park is still on,
   and is inert once it has ended, however late it runs. *)
let waker p =
  let gen = p.gen in
  fun () -> match p.state with Blocked when p.gen = gen -> claim p | _ -> ()

(* {2 Gates}

   A gate is a wait queue whose waiters carry guards.  A broadcast claims
   every waiter still parked, exactly as a waker would (the process becomes
   [Ready], so a kill now only dooms it), reserves one seq per claimed
   waiter and schedules a single event, the sweep, at the first of them.
   Waking each waiter with its own event would have given them those very
   seqs at the current instant: a block of consecutive [(at, seq)] keys
   that no other event can enter, since every later event draws a larger
   seq.  So the sweep walks the wave in FIFO order inside one event and
   fires exactly the schedule the separate events would have.  The one
   thing that ends a run between two events is [stop] (or an exception
   escaping a resumed process): the sweep then files the rest of the wave
   as an event at the next reserved seq, which still precedes everything
   scheduled since the broadcast. *)

let append q w =
  match w with
  | Nil -> ()
  | Waiter r ->
      r.w_next <- Nil;
      (match q.g_tail with Nil -> q.g_head <- w | Waiter t -> t.w_next <- w);
      q.g_tail <- w

(* Append [w], whose process has just parked, to the gate. *)
let gate_add g w =
  match w with
  | Nil -> ()
  | Waiter r ->
      r.w_gen <- r.w_proc.gen;
      append g w

(* Move the waiters from [w] on into [wave], claiming each as a waker
   would; [n] counts the claimed.  A waiter whose process left the gate
   (killed while parked) is dropped. *)
let rec claim_into wave n = function
  | Nil -> n
  | Waiter r as w -> (
      let next = r.w_next in
      match r.w_proc.state with
      | Blocked when r.w_proc.gen = r.w_gen ->
          r.w_proc.state <- Ready;
          append wave w;
          claim_into wave (n + 1) next
      | _ -> claim_into wave n next)

(* Resume the waiter if its guard holds or it was killed, else re-park it. *)
let sweep_one g = function
  | Nil -> ()
  | Waiter r as w -> (
      let p = r.w_proc in
      match (p.state, p.k) with
      | Ready, Some k ->
          if p.doomed || r.w_ready () then begin
            p.k <- None;
            fire p k
          end
          else begin
            park p;
            gate_add g w
          end
      | _ -> ())

(* Sweep the wave from [w], whose reserved seq is [seq]. *)
let rec sweep eng g w seq =
  match w with
  | Nil -> ()
  | Waiter r ->
      let next = r.w_next in
      (match sweep_one g w with
      | () -> ()
      | exception e ->
          defer_sweep eng g next (seq + 1);
          raise e);
      if eng.stopping then defer_sweep eng g next (seq + 1)
      else sweep eng g next (seq + 1)

and defer_sweep eng g w seq =
  match w with
  | Nil -> ()
  | Waiter _ ->
      Heap.push eng.events ~prio:eng.now ~seq (fun () -> sweep eng g w seq)

let gate_broadcast g =
  match g.g_head with
  | Nil -> ()
  | parked -> (
      g.g_head <- Nil;
      g.g_tail <- Nil;
      let wave = { g_head = Nil; g_tail = Nil } in
      let n = claim_into wave 0 parked in
      match wave.g_head with
      | Nil -> ()
      | Waiter r as head ->
          let eng = r.w_proc.eng in
          let seq = eng.seq + 1 in
          eng.seq <- eng.seq + n;
          Heap.push eng.events ~prio:eng.now ~seq (fun () ->
              sweep eng g head seq))

(* Placeholders for the refs below (nothing is ever added to [no_queue] or
   [no_gate]).  A registration and a guard are dropped once used, so a
   process does not keep what they hold alive after its park. *)
let no_register _ _ = ()
let no_ready () = true
let no_queue = Waitq.create ()
let no_gate = { g_head = Nil; g_tail = Nil }

(* The handler of [p]'s fiber, built when [p] first runs, with everything a
   park needs: [p]'s resume event, its sleep waker, its wait-queue entry
   and one [Some] closure per effect.  An effect leaves its argument in the
   refs below and returns its prebuilt closure, so handling it allocates
   nothing; a park costs the continuation, its [Some] box and, for a
   sleep, the wheel entry it files. *)
let handler p =
  let open Effect.Deep in
  let t = p.eng in
  let register = ref no_register and deadline = ref 0 in
  let queue = ref no_queue and gate = ref no_gate and ready = ref no_ready in
  (* A sleep's timer fires at most once per park and, if a kill claimed
     [p] first, finds it no longer [Blocked]; the resume event cancels the
     timer before [p] can park again.  So it needs no generation.  Nor
     does the wait-queue entry: a wake takes it out of its queue before
     it claims [p], and a kill that claimed [p] first leaves it queued, to
     take one wake and claim nothing, but [p] never parks again. *)
  let alarm () = match p.state with Blocked -> claim p | _ -> () in
  let entry = Waitq.entry alarm in
  (* [then_] files the wake-up of the park just begun. *)
  let parks then_ =
    Some
      (fun (k : (unit, unit) continuation) ->
        if p.doomed then discontinue k Killed_exn
        else begin
          p.k <- Some k;
          park p;
          then_ ()
        end)
  in
  let on_suspend =
    parks (fun () ->
        let r = !register in
        register := no_register;
        r p (waker p))
  and on_sleep = parks (fun () -> p.sleep_h <- arm t ~at:!deadline alarm)
  and on_wait = parks (fun () -> Waitq.push !queue entry)
  and on_gate =
    parks (fun () ->
        let w =
          Waiter { w_proc = p; w_ready = !ready; w_gen = 0; w_next = Nil }
        in
        ready := no_ready;
        gate_add !gate w)
  and on_self = Some (fun (k : (proc, unit) continuation) -> continue k p) in
  p.resume <- resume p;
  {
    retc = (fun () -> finish p Normal);
    exnc =
      (fun e ->
        match e with Killed_exn -> finish p Killed | e -> finish p (Exn e));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | E_self -> on_self
        | E_suspend r ->
            register := r;
            on_suspend
        | E_sleep d ->
            deadline := t.now + d;
            on_sleep
        | E_sleep_until at ->
            deadline := max at t.now;
            on_sleep
        | E_wait q ->
            queue := q;
            on_wait
        | E_gate_wait (g, r) ->
            gate := g;
            ready := r;
            on_gate
        | _ -> None);
  }

let spawn t ?(name = "proc") ?at f =
  let at = match at with None -> t.now | Some a -> a in
  t.next_pid <- t.next_pid + 1;
  let p =
    {
      pid = t.next_pid;
      name;
      eng = t;
      state = Embryo;
      doomed = false;
      watchers = [];
      k = None;
      gen = 0;
      resume = ignore;
      sleep_h = no_sleep;
    }
  in
  t.live <- t.live + 1;
  Metrics.Counter.incr t.c_spawned;
  proc_event p "proc.spawn";
  Evlog.close t.evlog;
  schedule t ~at (fun () ->
      match p.state with
      | Embryo when p.doomed -> finish p Killed
      | Embryo ->
          p.state <- Running;
          Effect.Deep.match_with f () (handler p)
      | Exited _ -> ()
      | Ready | Running | Blocked -> assert false);
  p

(* Each pass probes the wheel once ([Twheel.next_event] is O(1)) and, when
   the heap's head comes first, fires it at once: nothing in the wheel is
   due before [w], so moving the wheel's clock to [ha] scans nothing.
   Otherwise the wheel cascades up to [w], after which every due timer has
   [ta <= w <= ha], and the smaller [(at, seq)] of the two heads fires.  If
   nothing became due, [w] was only a cascade step: it fires nothing, does
   not move [t.now], and the next pass decides again — so the heap never
   fires while an earlier timer is still sifting down the wheel.  Neither
   firing nor a cascade allocates. *)
let run ?(until = Time.never) t =
  t.stopping <- false;
  let fire_heap at =
    let f = Heap.pop t.events in
    if at > t.now then t.now <- at;
    Metrics.Counter.incr t.c_events;
    f ()
  in
  let fire_timer at =
    let f = Twheel.pop_due t.timers in
    if at > t.now then t.now <- at;
    Metrics.Counter.incr t.c_events;
    Metrics.Counter.incr t.c_timers_fired;
    if Evlog.detail t.evlog then
      Evlog.emit t.evlog ~comp:"sim.engine" "timer.fire";
    f ()
  in
  let clock_to_until () =
    if until > t.now then t.now <- until;
    Twheel.advance t.timers ~upto:t.now
  in
  let rec loop () =
    if not t.stopping then begin
      let w = Twheel.next_event t.timers in
      let ha = Heap.top_prio t.events in
      if ha < w then begin
        if ha > until then clock_to_until ()
        else begin
          Twheel.advance t.timers ~upto:ha;
          fire_heap ha;
          loop ()
        end
      end
      else if w = Time.never then ()
      else if w > until then clock_to_until ()
      else begin
        Twheel.advance t.timers ~upto:w;
        let ta = Twheel.due_at t.timers in
        if ta <> Time.never then
          if ta < ha || Twheel.due_seq t.timers < Heap.top_seq t.events then
            fire_timer ta
          else fire_heap ha;
        loop ()
      end
    end
  in
  loop ()

let self () = Effect.perform E_self
let suspend register = Effect.perform (E_suspend register)
let suspend_on q = Effect.perform (E_wait q)
let sleep_until at = Effect.perform (E_sleep_until at)

let sleep d =
  if d < 0 then invalid_arg "Engine.sleep: negative duration";
  if d > 0 then Effect.perform (E_sleep d)

type timeout_outcome = [ `Done | `Timeout ]

let with_timeout ~at register =
  let outcome = ref `Done in
  let th = ref None in
  let withdraw = ref (fun () -> ()) in
  (try
     suspend (fun p waker ->
         let decided = ref false in
         let decide o () =
           if not !decided then begin
             decided := true;
             outcome := o;
             waker ()
           end
         in
         (* The deadline runs in raw event context: withdraw the registration
            synchronously so a wake arriving later at the same instant is not
            consumed by a waiter that has already timed out.  The [decided]
            gate also covers a wake and a deadline at the same instant with
            the wake first: the timer still fires (its cancellation below
            only happens once the process resumes) but must do nothing. *)
         th :=
           Some
             (timer p.eng ~at:(max at p.eng.now) (fun () ->
                  if not !decided then begin
                    !withdraw ();
                    decide `Timeout ()
                  end));
         withdraw := register p (decide `Done))
   with e ->
     (match !th with Some h -> cancel h | None -> ());
     raise e);
  (match !th with
  | Some h -> if !outcome = `Done then cancel h
  | None -> ());
  !outcome

let kill p =
  match p.state with
  | Exited _ -> ()
  | _ ->
      proc_event p "proc.kill";
      Evlog.close p.eng.evlog;
      p.doomed <- true;
      match p.state with
      | Blocked -> claim p
      | Embryo | Ready | Running | Exited _ -> ()

let status p = match p.state with Exited r -> Some r | _ -> None

let on_exit p f =
  match p.state with
  | Exited r -> f r
  | _ -> p.watchers <- f :: p.watchers

let join p =
  match p.state with
  | Exited r -> r
  | _ ->
      let result = ref Normal in
      suspend (fun _self waker ->
          on_exit p (fun r ->
              result := r;
              waker ()));
      !result

module Gate = struct
  type t = gate

  let create () = { g_head = Nil; g_tail = Nil }

  let wait g ~ready =
    if not (ready ()) then Effect.perform (E_gate_wait (g, ready))

  let broadcast = gate_broadcast
end
