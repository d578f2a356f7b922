open Ftsim_sim
open Ftsim_hw

(* {1 Batching configuration} *)

type batch_config = {
  batch_records : int;
  batch_bytes : int;
  batch_window : Time.t;
  ack_every : int;
  ack_delay : Time.t;
}

let unbatched =
  {
    batch_records = 1;
    batch_bytes = Wire.max_frame_bytes;
    batch_window = Time.ns 0;
    ack_every = 32;
    ack_delay = Time.ns 0;
  }

let default_batch =
  {
    batch_records = 16;
    batch_bytes = 4 * Ftsim_netstack.Packet.mtu;
    batch_window = Time.us 20;
    ack_every = 32;
    ack_delay = Time.us 10;
  }

type primary = {
  p_eng : Engine.t;
  p_out : Wire.message Mailbox.chan;
  p_in : Wire.message Mailbox.chan;
  batch : batch_config;
  mutable next_lsn : int;
  mutable p_acked : int;
  (* Cumulative per-channel replay cursors reported by the secondary's
     acks: channel id -> sections consumed.  Observability only (the
     output-commit rule needs just [p_acked]). *)
  p_chan_acks : (int, int) Hashtbl.t;
  stable_waiters : Waitq.t;  (* the group's *)
  mutable disabled : bool;
  mutable p_last_peer : Time.t;
  (* Staged records not yet on the wire, oldest last ([buf] is reversed).
     [buf_bytes] is the frame size a flush would produce right now. *)
  mutable buf : Wire.record list;
  mutable buf_base : int;
  mutable buf_count : int;
  mutable buf_bytes : int;
  mutable buf_opened : Time.t;
  flush_wq : Waitq.t;
  flush_mu : Sync.Mutex.t;
  (* Append-to-ack round-trip probe: one outstanding probe at a time, armed
     on a frame's highest LSN when it leaves, resolved by the first ack
     covering it.  Pure field updates + a histogram record — never
     scheduler-visible, so telemetry cannot perturb replay order. *)
  mutable rtt_lsn : int; (* -1 = no probe outstanding *)
  mutable rtt_sent : Time.t;
  mutable p_last_rtt : Time.t option;
  r_rtt : Metrics.Hist.t;
  p_recs : Metrics.Counter.t;
  r_recs : Metrics.Counter.t;  (* registry twin of [p_recs] *)
  r_frames : Metrics.Counter.t;
  r_commit_flush : Metrics.Counter.t;
}

type secondary = {
  s_eng : Engine.t;
  s_in : Wire.message Mailbox.chan;
  s_out : Wire.message Mailbox.chan;
  s_batch : batch_config;
  replay_cost : Time.t;
  delta_cost : Time.t;
  handler : Wire.record -> unit;
  chan_progress : unit -> (int * int) list;
  chan_restore : (int * int) list -> unit;
  mutable s_first : int;  (* first LSN ever received; -1 = none yet *)
  mutable s_tail : int;  (* last LSN received; an ack request covers it *)
  mutable s_received : int;
      (* Gapless replay watermark: every LSN <= s_received has been
         replayed.  Executors complete out of order, so it advances
         through [complete] as completions become contiguous, and
         [Ack.upto] stays exact. *)
  mutable s_last_acked : int;
  mutable s_last_peer : Time.t;
  mutable processing : bool;  (* mid-frame *)
  mutable ack_timer : Engine.handle option;
  (* One queue per executor process, none with one worker.  A record goes
     to executor [ft_pid mod] the pool size, so each thread's deliveries
     stay FIFO; the per-channel admission gate in Det provides all
     remaining serialization. *)
  exec_qs : (int * Wire.record) Bqueue.t array;
  mutable inflight : int;  (* handed to executors, not yet completed *)
  done_lsns : (int, unit) Hashtbl.t;  (* completed above the watermark *)
  mutable ack_req_upto : int;  (* pending ack_now request; -1 = none *)
  mutable completed_since_ack : int;
  mutable queue_peak : int;
  r_replayed : Metrics.Counter.t;
  r_exec_records : Metrics.Counter.t array;
  g_queue_peak : Metrics.Gauge.t option;
}

let log = Trace.make "ft.msglayer"

(* {1 Primary} *)

let record_kind = function
  | Wire.Sync_tuple _ -> "tuple"
  | Wire.Syscall_result _ -> "syscall"
  | Wire.Tcp_delta _ -> "tcp_delta"

let send_frame p msg =
  Metrics.Counter.incr p.r_frames;
  (if p.rtt_lsn < 0 then
     match msg with
     | Wire.Record { lsn; _ } ->
         p.rtt_lsn <- lsn;
         p.rtt_sent <- Engine.now p.p_eng
     | Wire.Batch { base_lsn; records = _ :: _ as records; _ } ->
         p.rtt_lsn <- base_lsn + List.length records - 1;
         p.rtt_sent <- Engine.now p.p_eng
     | Wire.Batch _ | Wire.Ack _ | Wire.Heartbeat _ -> ());
  Mailbox.send p.p_out ~bytes:(Wire.message_bytes msg) msg

(* Detach the staged batch; the caller sends it.  Never suspends, so a
   take-then-send under [flush_mu] is atomic with respect to staging. *)
let take_batch p =
  if p.buf_count = 0 then None
  else begin
    let base = p.buf_base and n = p.buf_count in
    let records = List.rev p.buf in
    p.buf <- [];
    p.buf_count <- 0;
    p.buf_bytes <- 0;
    Some (base, n, records)
  end

(* Flush the staged batch as one frame.  [flush_mu] serializes emitters so
   frames reach the mailbox in LSN order even when the blocking send parks
   several of them; each takes whatever is staged once it holds the lock. *)
let flush ?(ack_now = false) p =
  if p.buf_count > 0 && not p.disabled then
    Sync.Mutex.with_lock p.flush_mu (fun () ->
        match take_batch p with
        | None -> ()
        | Some (base, n, records) ->
            let ev = Engine.evlog p.p_eng in
            Evlog.begin_instant ev ~comp:"ft.msglayer" "frame.flush";
            Evlog.arg_int ev "base_lsn" base;
            Evlog.arg_int ev "count" n;
            Evlog.close ev;
            let msg =
              match records with
              | [ record ] -> Wire.Record { lsn = base; ack_now; record }
              | records -> Wire.Batch { base_lsn = base; ack_now; records }
            in
            send_frame p msg)

let append p record =
  if p.disabled then p.next_lsn
  else begin
    let lsn = p.next_lsn in
    p.next_lsn <- lsn + 1;
    Metrics.Counter.incr p.p_recs;
    Metrics.Counter.incr p.r_recs;
    let ev = Engine.evlog p.p_eng and kind = record_kind record in
    Evlog.begin_instant ev ~comp:"ft.msglayer" "record.append";
    Evlog.arg_int ev "lsn" lsn;
    Evlog.arg_str ev "kind" kind;
    (match record with
    | Wire.Sync_tuple { chans = (c, _) :: _; _ } -> Evlog.arg_int ev "channel" c
    | _ -> ());
    Evlog.close ev;
    if p.batch.batch_records <= 1 then
      (* Unbatched: one frame per record, blocking on a full ring (the
         backpressure throttle). *)
      send_frame p (Wire.Record { lsn; ack_now = false; record })
    else begin
      let sub = Wire.batched_record_bytes record in
      (* Never let the staged frame outgrow the wire format. *)
      if p.buf_count > 0 && p.buf_bytes + sub > Wire.max_frame_bytes then
        flush p;
      if Wire.empty_batch_bytes + sub > Wire.max_frame_bytes then
        (* A record too large to batch at all travels standalone. *)
        send_frame p (Wire.Record { lsn; ack_now = false; record })
      else begin
        if p.buf_count = 0 then begin
          p.buf_base <- lsn;
          p.buf_bytes <- Wire.empty_batch_bytes;
          p.buf_opened <- Engine.now p.p_eng;
          (* First staged record opens the window: wake the flusher. *)
          ignore (Waitq.wake_all p.flush_wq)
        end;
        p.buf <- record :: p.buf;
        p.buf_count <- p.buf_count + 1;
        p.buf_bytes <- p.buf_bytes + sub;
        if
          p.buf_count >= p.batch.batch_records
          || p.buf_bytes >= p.batch.batch_bytes
        then flush p
      end
    end;
    lsn
  end

let last_lsn p = p.next_lsn - 1
let acked p = p.p_acked
let last_rtt p = p.p_last_rtt

let chan_acked p ~chan =
  Option.value ~default:0 (Hashtbl.find_opt p.p_chan_acks chan)

(* Flush-on-output-commit: before parking for stability of [lsn], make sure
   every staged record covering it is actually on the wire — otherwise the
   commit would wait for an ack the secondary can never send.  The flush
   carries [ack_now] (the PSH/quickack analogue) so the secondary replies
   immediately instead of sitting out its delayed-ack timer; if the
   covering records already left in an ack-later frame, an empty [ack_now]
   batch goes out as a pure ack request. *)
let flush_for ~lsn p =
  if not p.disabled then begin
    if p.buf_count > 0 && p.buf_base <= lsn then begin
      Metrics.Counter.incr p.r_commit_flush;
      flush ~ack_now:true p
    end
    else if p.batch.ack_delay > 0 && p.p_acked < lsn && lsn < p.next_lsn then begin
      let poke =
        Wire.Batch { base_lsn = p.next_lsn; ack_now = true; records = [] }
      in
      (* try_send: if the ring is full the secondary is busy replaying and
         will ack through the ack_every path anyway. *)
      ignore (Mailbox.try_send p.p_out ~bytes:(Wire.message_bytes poke) poke)
    end
  end

let disable p =
  if not p.disabled then begin
    p.disabled <- true;
    (* Staged records die with the primary; they never reached the wire and
       nothing was committed against them. *)
    p.buf <- [];
    p.buf_count <- 0;
    p.buf_bytes <- 0;
    Trace.warnf log ~eng:p.p_eng "replication disabled (secondary presumed dead)";
    ignore (Waitq.wake_all p.stable_waiters);
    ignore (Waitq.wake_all p.flush_wq)
  end

let is_disabled p = p.disabled

let send_heartbeat_p p ~seq =
  let msg = Wire.Heartbeat { from_primary = true; seq } in
  ignore (Mailbox.try_send p.p_out ~bytes:(Wire.message_bytes msg) msg)

let last_peer_activity_p p = p.p_last_peer

let spawn_primary_rx p spawn =
  ignore
    (spawn "ft-ml-prx" (fun () ->
         let rec loop () =
           let msg = Mailbox.recv p.p_in in
           p.p_last_peer <- Engine.now p.p_eng;
           (match msg with
           | Wire.Ack { upto; chans } ->
               if p.rtt_lsn >= 0 && upto >= p.rtt_lsn then begin
                 let rtt = Engine.now p.p_eng - p.rtt_sent in
                 p.p_last_rtt <- Some rtt;
                 Metrics.Hist.record p.r_rtt (float_of_int rtt);
                 p.rtt_lsn <- -1
               end;
               List.iter
                 (fun (ch, consumed) ->
                   if consumed > chan_acked p ~chan:ch then
                     Hashtbl.replace p.p_chan_acks ch consumed)
                 chans;
               if upto > p.p_acked then begin
                 p.p_acked <- upto;
                 let ev = Engine.evlog p.p_eng and nchans = List.length chans in
                 Evlog.begin_instant ev ~comp:"ft.msglayer" "record.acked";
                 Evlog.arg_int ev "upto" upto;
                 Evlog.arg_int ev "chans" nchans;
                 Evlog.close ev;
                 ignore (Waitq.wake_all p.stable_waiters)
               end
           | Wire.Heartbeat _ -> ()
           | Wire.Record _ | Wire.Batch _ ->
               Trace.errorf log ~eng:p.p_eng "unexpected record on ack channel");
           loop ()
         in
         loop ()));
  (* The window flusher: parks while nothing is staged, otherwise flushes
     once the oldest staged record has waited [batch_window].  Spawned with
     the partition-bound spawner so it dies with the primary — taking any
     staged-but-unsent records with it, which is exactly the crash
     semantics the output-commit rule assumes. *)
  if p.batch.batch_records > 1 then
    ignore
      (spawn "ft-ml-flush" (fun () ->
           let rec loop () =
             if p.disabled then ()
             else if p.buf_count = 0 then begin
               ignore (Sync.wait_on p.flush_wq);
               loop ()
             end
             else begin
               let deadline = p.buf_opened + p.batch.batch_window in
               if Engine.now p.p_eng >= deadline then begin
                 flush p;
                 loop ()
               end
               else begin
                 Engine.sleep_until deadline;
                 loop ()
               end
             end
           in
           loop ()))

(* {1 Secondary} *)

let create_secondary ?(batch = unbatched) ?(chan_progress = fun () -> [])
    ?(chan_restore = fun _ -> ()) ?(base_lsn = 0) ?(workers = 1) eng
    ~inb ~out ~replay_cost ~delta_cost ~handler =
  if workers < 1 then invalid_arg "Msglayer.create_secondary: workers < 1";
  if base_lsn < 0 then invalid_arg "Msglayer.create_secondary: base_lsn < 0";
  let reg = Engine.metrics eng in
  (* With one worker there is no executor process and no executor metric:
     one-worker registry dumps (and the committed bench baselines) carry no
     [replay.exec*] or [replay.queue_depth_peak] key. *)
  let n = if workers > 1 then workers else 0 in
  {
    s_eng = eng;
    s_in = inb;
    s_out = out;
    s_batch = batch;
    replay_cost;
    delta_cost;
    handler;
    chan_progress;
    chan_restore;
    s_first = -1;
    s_tail = base_lsn - 1;
    s_received = base_lsn - 1;
    s_last_acked = base_lsn - 1;
    s_last_peer = Engine.now eng;
    processing = false;
    ack_timer = None;
    exec_qs = Array.init n (fun _ -> Bqueue.create ());
    inflight = 0;
    done_lsns = Hashtbl.create 64;
    ack_req_upto = -1;
    completed_since_ack = 0;
    queue_peak = 0;
    r_replayed = Metrics.Registry.counter reg "msglayer.records_replayed";
    r_exec_records =
      Array.init n (fun i ->
          Metrics.Registry.counter reg (Printf.sprintf "replay.exec%d.records" i));
    g_queue_peak =
      (if n > 0 then Some (Metrics.Registry.gauge reg "replay.queue_depth_peak")
       else None);
  }

let cancel_ack_timer s =
  match s.ack_timer with
  | None -> ()
  | Some h ->
      s.ack_timer <- None;
      Engine.cancel h

let rec send_ack s =
  if s.s_received > s.s_last_acked then begin
    (* Per-channel replay cursors ride the ack; the dirty marks are drained
       here. *)
    let chans = s.chan_progress () in
    let msg = Wire.Ack { upto = s.s_received; chans } in
    (* Cumulative: a skipped ack (full ring, dead primary) is subsumed by
       the next one. *)
    if
      (not (Mailbox.src_halted s.s_out))
      && Mailbox.try_send s.s_out ~bytes:(Wire.message_bytes msg) msg
    then begin
      s.s_last_acked <- s.s_received;
      cancel_ack_timer s;
      let ev = Engine.evlog s.s_eng in
      Evlog.begin_instant ev ~comp:"ft.msglayer" "record.ack";
      Evlog.arg_int ev "upto" s.s_received;
      Evlog.close ev;
      Evlog.counter ev ~comp:"ft.msglayer" "acked_lsn"
        (float_of_int s.s_received)
    end
    else begin
      (* The ack never reached the wire.  Put the drained cursors back
         (they would otherwise stall until an unrelated consume re-dirtied
         their channels) and re-arm the delayed-ack timer so the
         cumulative ack itself retries even if the replay queue stays
         idle from here on. *)
      s.chan_restore chans;
      arm_delayed_ack s
    end
  end

(* Delayed-ack coalescing, the shape of the TCP stack's: instead of acking
   the moment the queue runs dry, arm a short timer; acks for everything
   replayed meanwhile ride one cumulative frame.  [send_ack] is try_send
   based, so firing in raw timer context is safe. *)
and arm_delayed_ack s =
  if s.s_received > s.s_last_acked then
    match s.ack_timer with
    | Some h when Engine.timer_armed h -> ()
    | _ ->
        let at = Engine.now s.s_eng + s.s_batch.ack_delay in
        s.ack_timer <- Some (Engine.timer s.s_eng ~at (fun () -> send_ack s))

(* {2 The one ack rule}

   Completed records are counted.  A frame's end settles whatever
   completed during its dispatch: it answers an [ack_now] request (the
   primary's PSH analogue, covering every record received so far) once the
   watermark covers it, and otherwise acks once the count reaches
   [ack_every].  An executor completion outside a frame settles the same
   way, and idle-acks when the pool drains.  When the mailbox runs dry with
   nothing in flight, the receive loop idle-acks and restarts the count;
   an executor's idle ack leaves the count running.  With one worker every
   completion falls inside a frame, and this is the serial drain's rule. *)

let settle s =
  if s.ack_req_upto >= 0 && s.s_received >= s.ack_req_upto then begin
    s.ack_req_upto <- -1;
    s.completed_since_ack <- 0;
    send_ack s
  end
  else if s.completed_since_ack >= s.s_batch.ack_every then begin
    s.completed_since_ack <- 0;
    send_ack s
  end

let idle_ack s =
  if s.s_batch.ack_delay <= 0 then send_ack s else arm_delayed_ack s

(* Record [lsn] replayed: advance the gapless watermark.  In LSN order
   that is one store; a completion above a gap pools in [done_lsns] until
   the gap closes. *)
let complete s lsn =
  if lsn = s.s_received + 1 then begin
    s.s_received <- lsn;
    while
      Hashtbl.length s.done_lsns > 0
      && Hashtbl.mem s.done_lsns (s.s_received + 1)
    do
      Hashtbl.remove s.done_lsns (s.s_received + 1);
      s.s_received <- s.s_received + 1
    done
  end
  else if lsn > s.s_received then Hashtbl.replace s.done_lsns lsn ()

(* Replay one record, inline or on executor [exec] (-1 = inline): records
   that wake a replaying thread pay the wake_up_process() latency — the
   serial bottleneck the paper identifies (§4.1); TCP deltas are absorbed
   at memcpy-ish cost.  An executor's span names it and the record's
   channels. *)
let replay s ~exec ~lsn record =
  let ev = Engine.evlog s.s_eng in
  let sp = Evlog.begin_span ev ~comp:"ft.msglayer" "replay" in
  Evlog.arg_int ev "lsn" lsn;
  (if exec >= 0 then begin
     Evlog.arg_int ev "executor" exec;
     match record with
     | Wire.Sync_tuple { chans; _ } ->
         Evlog.arg_str ev "channels"
           (String.concat "," (List.map (fun (c, _) -> string_of_int c) chans))
     | _ -> ()
   end);
  Evlog.close ev;
  Engine.sleep
    (if Wire.wakes_thread record then s.replay_cost else s.delta_cost);
  s.handler record;
  Evlog.span_end ev sp;
  Metrics.Counter.incr s.r_replayed;
  complete s lsn;
  s.completed_since_ack <- s.completed_since_ack + 1

let spawn_executor s spawn i =
  ignore
    (spawn
       (Printf.sprintf "ft-ml-srx-%d" i)
       (fun () ->
         let rec loop () =
           let lsn, record = Bqueue.get s.exec_qs.(i) in
           replay s ~exec:i ~lsn record;
           Metrics.Counter.incr s.r_exec_records.(i);
           s.inflight <- s.inflight - 1;
           if not s.processing then begin
             settle s;
             if s.inflight = 0 then idle_ack s
           end;
           loop ()
         in
         loop ()))

(* Take a record off the wire, in LSN order: stamp the first-LSN probe,
   then replay it inline or hand it to its thread's executor.  Inline is
   the only choice with one worker, and always a TCP delta's: it wakes no
   thread, and a record behind it may depend on the stream state it
   installs. *)
let take s ~lsn record =
  if s.s_first < 0 then s.s_first <- lsn;
  s.s_tail <- lsn;
  let n = Array.length s.exec_qs in
  match record with
  | (Wire.Sync_tuple { ft_pid; _ } | Wire.Syscall_result { ft_pid; _ }) when n > 0
    ->
      Bqueue.put s.exec_qs.(ft_pid mod n) (lsn, record);
      s.inflight <- s.inflight + 1;
      if s.inflight > s.queue_peak then begin
        s.queue_peak <- s.inflight;
        Option.iter
          (fun g -> Metrics.Gauge.set g (float_of_int s.queue_peak))
          s.g_queue_peak
      end
  | _ -> replay s ~exec:(-1) ~lsn record

let end_frame s ~ack_now =
  s.processing <- false;
  if ack_now then s.ack_req_upto <- s.s_tail;
  settle s

(* A batch is one mailbox message: it survives a primary crash whole or not
   at all, and [processing] covers its whole dispatch, inline replays
   included, so a failover cannot observe a half-applied frame. *)
let on_frame s msg =
  s.s_last_peer <- Engine.now s.s_eng;
  match msg with
  | Wire.Record { lsn; record; ack_now } ->
      s.processing <- true;
      take s ~lsn record;
      end_frame s ~ack_now
  | Wire.Batch { base_lsn; records; ack_now } ->
      s.processing <- true;
      let ev = Engine.evlog s.s_eng in
      let sp = Evlog.begin_span ev ~comp:"ft.msglayer" "replay.batch" in
      Evlog.arg_int ev "base_lsn" base_lsn;
      Evlog.arg_int ev "count" (List.length records);
      Evlog.close ev;
      List.iteri (fun i record -> take s ~lsn:(base_lsn + i) record) records;
      Evlog.span_end ev sp;
      end_frame s ~ack_now
  | Wire.Heartbeat _ -> ()
  | Wire.Ack _ -> Trace.errorf log ~eng:s.s_eng "unexpected ack on record channel"

(* The one receive loop: drain the mailbox in LSN order; when it runs dry
   with nothing in flight, idle-ack, then park for the next frame.  A
   record leaves the ring only when the loop takes it, so with one worker
   the ring stays full while a record replays — the backpressure that sets
   Fig 4's sustained rate. *)
let spawn_secondary_rx s spawn =
  for i = 0 to Array.length s.exec_qs - 1 do
    spawn_executor s spawn i
  done;
  ignore
    (spawn "ft-ml-srx" (fun () ->
         let rec loop () =
           match Mailbox.poll s.s_in with
           | Some msg ->
               on_frame s msg;
               loop ()
           | None ->
               if s.inflight = 0 then begin
                 s.completed_since_ack <- 0;
                 idle_ack s
               end;
               on_frame s (Mailbox.recv s.s_in);
               loop ()
         in
         loop ()))

let received_lsn s = s.s_received

let first_lsn s = if s.s_first < 0 then None else Some s.s_first

(* Replay backlog visible to the backup: mailbox frames not yet drained plus
   records dispatched to executors but not completed.  A pure read — safe
   from raw timer context (Lagmon samples it). *)
let queue_depth s = Mailbox.in_flight s.s_in + s.inflight

let send_heartbeat_s s ~seq =
  if not (Mailbox.src_halted s.s_out) then begin
    let msg = Wire.Heartbeat { from_primary = false; seq } in
    ignore (Mailbox.try_send s.s_out ~bytes:(Wire.message_bytes msg) msg)
  end

let last_peer_activity_s s = s.s_last_peer

let drained s =
  Mailbox.src_halted s.s_in
  && Mailbox.in_flight s.s_in = 0
  && (not s.processing)
  && s.inflight = 0

(* {1 Metrics} *)

let p_records p = Metrics.Counter.value p.p_recs

let traffic_msgs p s = Mailbox.msgs_sent p.p_out + Mailbox.msgs_sent s.s_out

let traffic_bytes p s = Mailbox.bytes_sent p.p_out + Mailbox.bytes_sent s.s_out

(* {1 The recording group} *)

type group = {
  mutable members : primary list;  (* in creation order *)
  g_journal : (Wire.record -> unit) option;
  mutable g_next : int;  (* the next LSN the group assigns *)
  g_stable : Waitq.t;  (* every member's stability queue *)
}

let create_group ?journal ?(base_lsn = 0) () =
  if base_lsn < 0 then invalid_arg "Msglayer.create_group: base_lsn < 0";
  {
    members = [];
    g_journal = journal;
    g_next = base_lsn;
    g_stable = Waitq.create ();
  }

(* A member is born at the group's next LSN, on the group's one stability
   queue: an ack from any member (or a member's death) wakes every waiter
   to re-check. *)
let create_member ?(batch = unbatched) eng g ~out ~inb =
  let p =
    {
      p_eng = eng;
      p_out = out;
      p_in = inb;
      batch;
      next_lsn = g.g_next;
      p_acked = g.g_next - 1;
      p_chan_acks = Hashtbl.create 8;
      stable_waiters = g.g_stable;
      disabled = false;
      p_last_peer = Engine.now eng;
      buf = [];
      buf_base = 0;
      buf_count = 0;
      buf_bytes = 0;
      buf_opened = Engine.now eng;
      flush_wq = Waitq.create ();
      flush_mu = Sync.Mutex.create ();
      rtt_lsn = -1;
      rtt_sent = Engine.now eng;
      p_last_rtt = None;
      r_rtt = Metrics.Registry.hist (Engine.metrics eng) "lag.rtt_ns";
      p_recs = Metrics.Counter.create ();
      r_recs =
        Metrics.Registry.counter (Engine.metrics eng) "msglayer.records_appended";
      r_frames =
        Metrics.Registry.counter (Engine.metrics eng) "msglayer.frames_sent";
      r_commit_flush =
        Metrics.Registry.counter (Engine.metrics eng) "msglayer.commit_flushes";
    }
  in
  g.members <- List.filter (fun m -> not m.disabled) g.members @ [ p ];
  p

let group_last_lsn g = g.g_next - 1

(* Recursive walks, not closures: the group paths run once per appended
   record and per output commit, and allocate nothing. *)

let rec append_live record = function
  | [] -> ()
  | p :: rest ->
      (* A live member's next LSN is the group's: it was born there, and
         only the group appends to a member. *)
      if not p.disabled then ignore (append p record);
      append_live record rest

let group_append g record =
  let lsn = g.g_next in
  g.g_next <- lsn + 1;
  (* Journal at LSN assignment, before a send can park on a full ring: the
     journal's index is the LSN. *)
  (match g.g_journal with Some j -> j record | None -> ());
  append_live record g.members;
  lsn

let rec flush_members ~lsn = function
  | [] -> ()
  | p :: rest ->
      flush_for ~lsn p;
      flush_members ~lsn rest

(* Stable once a live member acked [lsn]; vacuously so with none live
   ([live]: a live member was already passed). *)
let rec stable ~lsn ~live = function
  | [] -> not live
  | p :: rest ->
      if p.disabled then stable ~lsn ~live rest
      else p.p_acked >= lsn || stable ~lsn ~live:true rest

let group_wait_stable g ~lsn =
  (* Flush every member first (flush-on-output-commit), then park on the
     shared queue. *)
  flush_members ~lsn g.members;
  while not (stable ~lsn ~live:false g.members) do
    ignore (Sync.wait_on g.g_stable)
  done
