open Ftsim_sim

type config = { propagation_delay : Time.t; capacity : int }

let default_config = { propagation_delay = Time.ns 550; capacity = 4096 }

type 'a chan = {
  cfg : config;
  eng : Engine.t;
  src : Partition.t;
  slots : Sync.Semaphore.t;
  inbox : 'a Bqueue.t;
  (* Messages in the propagation window, oldest first, in three parallel
     rings: each message, its delivery timer (cancelled on coherency loss)
     and its open trace span (which the drop path closes).  The delay is
     the same for every message and same-instant timers fire in arming
     order, so messages are delivered in the order they were sent: every
     delivery timer runs the channel's one [deliver], which pops the
     head. *)
  w_msgs : 'a Ring.t;
  w_timers : Engine.handle Ring.t;
  w_spans : Evlog.span Ring.t;
  mutable deliver : unit -> unit;
  mutable next_token : int;  (* messages sent so far: the next one's id *)
  sent_msgs : Metrics.Counter.t;
  sent_bytes : Metrics.Counter.t;
  r_msgs : Metrics.Counter.t;
  r_bytes : Metrics.Counter.t;
}

let deliver_head t =
  ignore (Ring.pop t.w_timers);
  Evlog.span_end (Engine.evlog t.eng) (Ring.pop t.w_spans);
  Bqueue.put t.inbox (Ring.pop t.w_msgs)

let create eng ?(config = default_config) ~src ~dst () =
  ignore dst;
  let reg = Engine.metrics eng in
  let t =
    {
      cfg = config;
      eng;
      src;
      slots = Sync.Semaphore.create config.capacity;
      inbox = Bqueue.create ();
      w_msgs = Ring.create ();
      w_timers = Ring.create ();
      w_spans = Ring.create ();
      deliver = ignore;
      next_token = 0;
      sent_msgs = Metrics.Counter.create ();
      sent_bytes = Metrics.Counter.create ();
      r_msgs = Metrics.Registry.counter reg "mailbox.msgs_sent";
      r_bytes = Metrics.Registry.counter reg "mailbox.bytes_sent";
    }
  in
  t.deliver <- (fun () -> deliver_head t);
  t

let account t bytes =
  Metrics.Counter.incr t.sent_msgs;
  Metrics.Counter.add t.sent_bytes bytes;
  Metrics.Counter.incr t.r_msgs;
  Metrics.Counter.add t.r_bytes bytes

let deliver_later t ~bytes v =
  let tok = t.next_token in
  t.next_token <- tok + 1;
  let ev = Engine.evlog t.eng in
  let sp = Evlog.begin_span ev ~comp:"hw.mailbox" "propagate" in
  Evlog.arg_int ev "token" tok;
  Evlog.arg_int ev "bytes" bytes;
  Evlog.close ev;
  Ring.push t.w_msgs v;
  Ring.push t.w_spans sp;
  Ring.push t.w_timers
    (Engine.timer t.eng ~at:(Engine.now t.eng + t.cfg.propagation_delay) t.deliver)

let send t ~bytes v =
  Partition.check_alive t.src;
  Sync.Semaphore.acquire t.slots;
  account t bytes;
  deliver_later t ~bytes v

let try_send t ~bytes v =
  Partition.check_alive t.src;
  if Sync.Semaphore.try_acquire t.slots then begin
    account t bytes;
    deliver_later t ~bytes v;
    true
  end
  else false

let recv t =
  let v = Bqueue.get t.inbox in
  Sync.Semaphore.release t.slots;
  v

let recv_timeout t ~deadline =
  match Bqueue.get_timeout t.inbox ~deadline with
  | None -> None
  | Some v ->
      Sync.Semaphore.release t.slots;
      Some v

let poll t =
  match Bqueue.try_get t.inbox with
  | None -> None
  | Some v ->
      Sync.Semaphore.release t.slots;
      Some v

let in_flight t = Ring.length t.w_msgs + Bqueue.length t.inbox

let src_halted t = Partition.is_halted t.src

let drop_in_flight t =
  (* Nothing in flight: a coherency-disrupting fault against an empty ring
     must be a pure no-op (no timer scan, no trace event) — callers are not
     required to check first. *)
  if in_flight t = 0 then 0
  else begin
  let n = ref 0 in
  let rec drain () =
    match Bqueue.try_get t.inbox with
    | Some _ ->
        Sync.Semaphore.release t.slots;
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  (* Messages still in the propagation window are lost too: their delivery
     timers are cancelled, modelling the victim's outbound rings losing
     coherency mid-flight (§3.5).  They go in the order they were sent, and
     so do the semaphore hand-offs. *)
  while not (Ring.is_empty t.w_msgs) do
    ignore (Ring.pop t.w_msgs);
    Engine.cancel (Ring.pop t.w_timers);
    Evlog.span_end (Engine.evlog t.eng) (Ring.pop t.w_spans)
      ~args:[ ("dropped", Evlog.Bool true) ];
    Sync.Semaphore.release t.slots;
    incr n
  done;
  if !n > 0 then
    Evlog.emit (Engine.evlog t.eng) ~comp:"hw.mailbox" "drop_in_flight"
      ~args:[ ("count", Evlog.Int !n) ];
  !n
  end

let msgs_sent t = Metrics.Counter.value t.sent_msgs
let bytes_sent t = Metrics.Counter.value t.sent_bytes

type 'a duplex = { a_to_b : 'a chan; b_to_a : 'a chan }

let duplex eng ?config ~a ~b () =
  {
    a_to_b = create eng ?config ~src:a ~dst:b ();
    b_to_a = create eng ?config ~src:b ~dst:a ();
  }
