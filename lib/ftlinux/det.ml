open Ftsim_sim

type role = Primary_role | Secondary_role

type queued_syscall = Q_result of Wire.syscall_result | Q_live

(* Reserved channel ids; [chan_alloc] hands out ids from 2. *)
let chan_misc = 0
let chan_fs = 1

(* Per-channel stream state.  On the primary [ch_mu] serializes sections
   claiming the channel and [ch_emitted] is the next chan_seq; on the
   secondary [ch_consumed] is the replay cursor (chan_seqs < ch_consumed
   have been replayed) and [ch_mu] is only used by live-mode sections after
   a failover.  The secondary's locally allocated channel ids need not
   match the primary's: replay gates on the ids carried in tuples, live
   mode locks the local ids — each use is self-consistent. *)
type chan_state = {
  ch_id : int;
  ch_mu : Sync.Mutex.t;
  mutable ch_emitted : int;
  mutable ch_consumed : int;
  mutable ch_dirty : bool;  (* secondary: cursor advanced since last ack *)
}

type pending_tuple = {
  pt_thread_seq : int;
  pt_chans : (int * int) list;
  pt_payload : Wire.det_payload;
}

type thread_ctx = {
  ft_pid : int;
  mutable dseq : int;  (* deterministic-section sequence *)
  mutable sseq : int;  (* syscall sequence (primary) *)
  sys_q : queued_syscall Bqueue.t;  (* secondary: routed results *)
  mutable live_seen : bool;
  tq : pending_tuple Queue.t;  (* secondary: this thread's tuples, FIFO *)
  mutable in_chans : chan_state list;  (* channels locked by open section *)
  mutable cur_payload : Wire.det_payload;  (* primary, inside section *)
  mutable cur_span : Evlog.span option;  (* open "section" span *)
}

type t = {
  mutable rl : role;  (* flips Secondary->Primary at promotion *)
  eng : Engine.t;
  shard : bool;  (* false: every section rides channel 0 (old total order) *)
  chans : (int, chan_state) Hashtbl.t;
  mutable next_chan : int;
  by_proc : (int, thread_ctx) Hashtbl.t;  (* engine pid -> ctx *)
  by_ftpid : (int, thread_ctx) Hashtbl.t;
  mutable ml : Msglayer.group option;
  mutable next_ftpid : int;
  turn_changed : Engine.Gate.t;  (* secondary: any delivery or cursor advance *)
  mutable live : bool;
  mutable consumed_total : int;  (* secondary: sections replayed *)
  mutable pending_count : int;  (* secondary: delivered, not yet replayed *)
  ops : Metrics.Counter.t;
  m_sections : Metrics.Counter.t;
  m_lock_wait : Metrics.Hist.t;
  m_cont_misc : Metrics.Counter.t;
  m_cont_fs : Metrics.Counter.t;
  m_cont_obj : Metrics.Counter.t;
  m_gate_stalls : Metrics.Counter.t;
      (* secondary: sections whose admission gate made the thread wait *)
  mutable dig : Digest.t option;  (* divergence-checker recorder *)
  mutable skip_fold : int option;  (* testing: Nth replayed section whose
                                      digest fold the secondary skips *)
}

let log = Trace.make "ft.det"

let make rl ?(shard = true) eng ml =
  let reg = Engine.metrics eng in
  {
    rl;
    eng;
    shard;
    chans = Hashtbl.create 64;
    next_chan = 2;
    by_proc = Hashtbl.create 64;
    by_ftpid = Hashtbl.create 64;
    ml;
    next_ftpid = 0;
    turn_changed = Engine.Gate.create ();
    live = false;
    consumed_total = 0;
    pending_count = 0;
    ops = Metrics.Counter.create ();
    m_sections = Metrics.Registry.counter reg "det.sections";
    m_lock_wait = Metrics.Registry.hist reg "det.lock_wait_ns";
    m_cont_misc = Metrics.Registry.counter reg "det.contended.misc";
    m_cont_fs = Metrics.Registry.counter reg "det.contended.fs";
    m_cont_obj = Metrics.Registry.counter reg "det.contended.obj";
    m_gate_stalls = Metrics.Registry.counter reg "replay.gate_stalls";
    dig = None;
    skip_fold = None;
  }

let create_primary ?shard eng ml = make Primary_role ?shard eng (Some ml)
let create_secondary ?shard eng = make Secondary_role ?shard eng None
let role t = t.rl

(* {1 Channels} *)

let chan_get t id =
  match Hashtbl.find t.chans id with
  | st -> st
  | exception Not_found ->
      let st =
        {
          ch_id = id;
          ch_mu = Sync.Mutex.create ();
          ch_emitted = 0;
          ch_consumed = 0;
          ch_dirty = false;
        }
      in
      Hashtbl.replace t.chans id st;
      (* Never re-issue an id first seen in a replayed tuple. *)
      if id >= t.next_chan then t.next_chan <- id + 1;
      st

let chan_alloc t =
  if not t.shard then chan_misc
  else begin
    let id = t.next_chan in
    t.next_chan <- id + 1;
    ignore (chan_get t id);
    id
  end

(* Claim set of a section: ascending, deduped; channel 0 when unsharded. *)
let norm_chans t chans =
  if not t.shard then [ chan_misc ] else List.sort_uniq compare chans

let contended_counter t id =
  if id = chan_misc then t.m_cont_misc
  else if id = chan_fs then t.m_cont_fs
  else t.m_cont_obj

(* {1 Divergence digests} *)

let attach_digest t d = t.dig <- Some d
let digest t = t.dig
let mutate_skip_digest t ~global_seq = t.skip_fold <- Some global_seq

(* The calling thread's context, or [Not_found]: a lookup runs on every
   section and syscall, and [Hashtbl.find] allocates no option. *)
let find_ctx t = Hashtbl.find t.by_proc (Engine.pid (Engine.self ()))

let ctx_exn t =
  match find_ctx t with
  | c -> c
  | exception Not_found ->
      failwith "Det: calling thread is not registered in the namespace"

(* Channel of the calling thread's open section: the first claimed channel
   on the primary (and in live mode), the head tuple's first channel during
   replay — the same id on both replicas. *)
let cur_chan t =
  match find_ctx t with
  | exception Not_found -> chan_misc
  | ctx -> (
      match ctx.in_chans with
      | st :: _ -> st.ch_id
      | [] -> (
          if Queue.is_empty ctx.tq then chan_misc
          else
            match (Queue.peek ctx.tq).pt_chans with
            | (c, _) :: _ -> c
            | [] -> chan_misc))

let fold_section t v =
  match t.dig with
  | None -> ()
  | Some d -> Digest.fold_chan d ~chan:(cur_chan t) v

let fold_syscall t v =
  match t.dig with
  | None -> ()
  | Some d -> (
      match find_ctx t with
      | ctx -> Digest.fold_thread d ~ft_pid:ctx.ft_pid v
      | exception Not_found -> ())

(* {1 Thread identity} *)

let alloc_ftpid t =
  let id = t.next_ftpid in
  t.next_ftpid <- id + 1;
  id

let fresh_ctx ~ft_pid ~live_seen =
  {
    ft_pid;
    dseq = 0;
    sseq = 0;
    sys_q = Bqueue.create ();
    live_seen;
    tq = Queue.create ();
    in_chans = [];
    cur_payload = Wire.P_plain;
    cur_span = None;
  }

let register_thread t ~ft_pid =
  (* Records may have been delivered for this ft_pid before the replayed
     spawn ran; reuse the eagerly created context in that case. *)
  let ctx =
    match Hashtbl.find_opt t.by_ftpid ft_pid with
    | Some ctx -> ctx
    | None -> fresh_ctx ~ft_pid ~live_seen:t.live
  in
  Hashtbl.replace t.by_proc (Engine.pid (Engine.self ())) ctx;
  Hashtbl.replace t.by_ftpid ft_pid ctx

let unregister_thread t = Hashtbl.remove t.by_proc (Engine.pid (Engine.self ()))

(* {1 Deterministic sections} *)

(* Keys of a tuple's i-th (channel, chan_seq) pair: "channel",
   "chan_seq", then "channel2", "chan_seq2", ...  The first eight are
   built once, because Evlog's key memo matches a key by physical
   identity. *)
let make_chan_key i =
  let suf = if i = 0 then "" else string_of_int (i + 1) in
  ("channel" ^ suf, "chan_seq" ^ suf)

let chan_keys = Array.init 8 make_chan_key

let chan_key i =
  if i < Array.length chan_keys then chan_keys.(i) else make_chan_key i

let rec put_chans ev i = function
  | [] -> ()
  | (c, s) :: rest ->
      let kc, ks = chan_key i in
      Evlog.arg_int ev kc c;
      Evlog.arg_int ev ks s;
      put_chans ev (i + 1) rest

(* A sync tuple's [tuple.*] event: its id, then each claimed channel with
   the tuple's sequence number on it. *)
let emit_tuple t name ~ft_pid ~thread_seq ~chans =
  let ev = Engine.evlog t.eng in
  Evlog.begin_instant ev ~comp:"ft.det" name;
  Evlog.arg_int ev "ft_pid" ft_pid;
  Evlog.arg_int ev "thread_seq" thread_seq;
  put_chans ev 0 chans;
  Evlog.close ev

let section_begin t ctx chan =
  let ev = Engine.evlog t.eng in
  if Evlog.detail ev then begin
    let sp = Evlog.begin_span ev ~comp:"ft.det" "section" in
    Evlog.arg_int ev "ft_pid" ctx.ft_pid;
    Evlog.arg_int ev "channel" chan;
    Evlog.close ev;
    ctx.cur_span <- Some sp
  end

let section_end t ctx =
  match ctx.cur_span with
  | Some sp ->
      ctx.cur_span <- None;
      Evlog.span_end (Engine.evlog t.eng) sp
  | None -> ()

(* Lock a section's claim set.  The ascending order is globally consistent,
   so multi-channel sections (condvar waits) cannot deadlock against each
   other. *)
let lock_chans t ctx sts =
  let t0 = Engine.now t.eng in
  List.iter
    (fun st ->
      if Sync.Mutex.is_locked st.ch_mu then
        Metrics.Counter.incr (contended_counter t st.ch_id);
      Sync.Mutex.lock st.ch_mu)
    sts;
  Metrics.Hist.record t.m_lock_wait (float_of_int (Engine.now t.eng - t0));
  ctx.in_chans <- sts

let unlock_chans ctx =
  let sts = ctx.in_chans in
  ctx.in_chans <- [];
  List.iter (fun st -> Sync.Mutex.unlock st.ch_mu) sts

let det_start_primary t ~chans =
  let ctx = ctx_exn t in
  lock_chans t ctx (List.map (chan_get t) (norm_chans t chans));
  ctx.cur_payload <- Wire.P_plain;
  section_begin t ctx (cur_chan t)

let det_end_primary t =
  let ctx = ctx_exn t in
  (* The commit point: chan_seqs are assigned while every claimed channel
     is still locked, so each channel's sequence order is exactly its
     append (LSN) order — the property failover's per-channel gapless
     prefix relies on. *)
  let pairs =
    List.map
      (fun st ->
        let s = st.ch_emitted in
        st.ch_emitted <- s + 1;
        (st.ch_id, s))
      ctx.in_chans
  in
  let record =
    Wire.Sync_tuple
      {
        ft_pid = ctx.ft_pid;
        thread_seq = ctx.dseq;
        chans = pairs;
        payload = ctx.cur_payload;
      }
  in
  emit_tuple t "tuple.emit" ~ft_pid:ctx.ft_pid ~thread_seq:ctx.dseq ~chans:pairs;
  (match t.dig with
  | Some d ->
      Digest.section_end d ~ft_pid:ctx.ft_pid ~thread_seq:ctx.dseq
        ~chans:pairs ~payload:ctx.cur_payload
  | None -> ());
  ctx.dseq <- ctx.dseq + 1;
  Metrics.Counter.incr t.ops;
  Metrics.Counter.incr t.m_sections;
  (* With batching the append usually just stages the tuple; when a flush
     threshold trips here it may block on mailbox backpressure while the
     claimed channel locks are held — throttling only sections that share a
     channel, while independent channels keep running.  Per-channel
     emission order still equals chan_seq order because LSNs are assigned
     at stage time under these locks. *)
  (match t.ml with
  | Some g -> ignore (Msglayer.group_append g record)
  | None -> ());
  section_end t ctx;
  unlock_chans ctx

(* A thread's next tuple is runnable once every channel it claims has
   consumed exactly the tuple's chan_seq predecessors.  chan_seqs were
   assigned atomically at the primary's commit points, so the per-channel
   orders embed into one global order and this gating cannot cycle. *)
let rec chans_admit t = function
  | [] -> true
  | (c, s) :: rest -> (chan_get t c).ch_consumed = s && chans_admit t rest

let head_runnable t ctx =
  (not (Queue.is_empty ctx.tq)) && chans_admit t (Queue.peek ctx.tq).pt_chans

(* The replay gate's guard.  Every broadcast evaluates it once per parked
   executor, so it allocates nothing. *)
let turn_ready t ctx () = t.live || head_runnable t ctx

let gate_guard t ~ft_pid = turn_ready t (Hashtbl.find t.by_ftpid ft_pid)

let det_start_live t ctx ~chans =
  ctx.live_seen <- true;
  (* A promoted engine records this section via [det_end_primary], which
     reads [cur_payload]; a replay-era context may carry a stale one. *)
  ctx.cur_payload <- Wire.P_plain;
  lock_chans t ctx (List.map (chan_get t) (norm_chans t chans));
  section_begin t ctx (cur_chan t)

let det_start_secondary t ~chans =
  let ctx = ctx_exn t in
  if t.live || ctx.live_seen then det_start_live t ctx ~chans
  else begin
    if not (turn_ready t ctx ()) then begin
      (* Count each gated section once, however many broadcasts it
         absorbs: with parallel replay executors this is the contention
         signal — how often a delivered tuple had to wait for another
         executor's channel predecessors. *)
      Metrics.Counter.incr t.m_gate_stalls;
      Engine.Gate.wait t.turn_changed ~ready:(turn_ready t ctx)
    end;
    if t.live then ctx.live_seen <- true;
    if ctx.live_seen then det_start_live t ctx ~chans
    else begin
      (* Replay mode: the gate above is the only serialization a replayed
         section needs — its body has no suspension points, so no other
         section can interleave before [det_end] advances the cursors. *)
      section_begin t ctx (cur_chan t);
      let pt = Queue.peek ctx.tq in
      if pt.pt_thread_seq <> ctx.dseq then
        Trace.errorf log ~eng:t.eng
          "replay divergence: ft_pid %d expected thread_seq %d, log has %d"
          ctx.ft_pid ctx.dseq pt.pt_thread_seq
    end
  end

let det_end_secondary t =
  let ctx = ctx_exn t in
  if ctx.live_seen then begin
    ctx.dseq <- ctx.dseq + 1;
    Metrics.Counter.incr t.ops;
    Metrics.Counter.incr t.m_sections;
    section_end t ctx;
    unlock_chans ctx
  end
  else begin
    let pt = Queue.pop ctx.tq in
    t.pending_count <- t.pending_count - 1;
    (match t.dig with
    | Some d when t.skip_fold <> Some t.consumed_total ->
        Digest.section_end d ~ft_pid:ctx.ft_pid ~thread_seq:ctx.dseq
          ~chans:pt.pt_chans ~payload:pt.pt_payload
    | _ -> ());
    emit_tuple t "tuple.consume" ~ft_pid:ctx.ft_pid ~thread_seq:ctx.dseq
      ~chans:pt.pt_chans;
    List.iter
      (fun (c, s) ->
        let st = chan_get t c in
        st.ch_consumed <- s + 1;
        st.ch_dirty <- true)
      pt.pt_chans;
    t.consumed_total <- t.consumed_total + 1;
    ctx.dseq <- ctx.dseq + 1;
    Metrics.Counter.incr t.ops;
    Metrics.Counter.incr t.m_sections;
    section_end t ctx;
    Engine.Gate.broadcast t.turn_changed
  end

let det_start t ~chans =
  match t.rl with
  | Primary_role -> det_start_primary t ~chans
  | Secondary_role -> det_start_secondary t ~chans

let det_end t =
  match t.rl with
  | Primary_role -> det_end_primary t
  | Secondary_role -> det_end_secondary t

let set_payload t p = (ctx_exn t).cur_payload <- p

let payload_at_turn t =
  match Queue.peek_opt (ctx_exn t).tq with
  | Some pt -> pt.pt_payload
  | None -> Wire.P_plain

let pthread_hooks t =
  {
    Ftsim_kernel.Pthread.is_replica = (t.rl = Secondary_role && not t.live);
    chan_alloc = (fun () -> chan_alloc t);
    det_start = (fun ~chans -> det_start t ~chans);
    det_end = (fun () -> det_end t);
    defer_wakes = (t.rl = Primary_role && t.shard);
    record_timed_outcome =
      (fun ~timed_out -> set_payload t (Wire.P_timed_outcome timed_out));
    replay_timed_outcome =
      (fun () ->
        match payload_at_turn t with
        | Wire.P_timed_outcome b -> Some b
        | _ ->
            if t.live then None
            else begin
              Trace.errorf log ~eng:t.eng "expected timed outcome in log";
              Some false
            end);
  }

(* {1 Secondary delivery} *)

let ctx_for_delivery t ft_pid =
  match Hashtbl.find_opt t.by_ftpid ft_pid with
  | Some ctx -> ctx
  | None ->
      (* The thread will register when its spawn replays; until then its
         queues must exist.  Create the context eagerly. *)
      let ctx = fresh_ctx ~ft_pid ~live_seen:false in
      Hashtbl.replace t.by_ftpid ft_pid ctx;
      ctx

let deliver_tuple t ~ft_pid ~thread_seq ~chans ~payload =
  emit_tuple t "tuple.deliver" ~ft_pid ~thread_seq ~chans;
  let ctx = ctx_for_delivery t ft_pid in
  Queue.add
    { pt_thread_seq = thread_seq; pt_chans = chans; pt_payload = payload }
    ctx.tq;
  t.pending_count <- t.pending_count + 1;
  Engine.Gate.broadcast t.turn_changed

let deliver_syscall t ~ft_pid ~result =
  Bqueue.put (ctx_for_delivery t ft_pid).sys_q (Q_result result)

(* Cumulative per-channel replay cursors for channels that advanced since
   the last call; piggybacked on acks so the primary can observe each
   channel's replay depth. *)
let chan_progress t =
  Hashtbl.fold
    (fun _ st acc ->
      if st.ch_dirty then begin
        st.ch_dirty <- false;
        (st.ch_id, st.ch_consumed) :: acc
      end
      else acc)
    t.chans []
  |> List.sort compare

(* Undo a [chan_progress] drain whose ack never reached the wire: re-mark
   the drained channels dirty so their cursors ride the next ack instead of
   stalling until an unrelated consume dirties them again.  Cursors are
   cumulative, so re-marking is idempotent — the next drain simply reports
   the current (>=) consumed count. *)
let chan_progress_restore t chans =
  List.iter (fun (c, _) -> (chan_get t c).ch_dirty <- true) chans

(* Every channel's cursors, sorted by channel id: on the primary
   [ch_emitted] counts sections recorded, on the secondary [ch_consumed]
   counts sections replayed.  A pure read (no dirty-mark draining) — Lagmon
   samples it to measure per-channel replication lag. *)
let chan_cursors t =
  Hashtbl.fold (fun _ st acc -> (st.ch_id, st.ch_emitted, st.ch_consumed) :: acc)
    t.chans []
  |> List.sort compare

(* {1 Syscall streams} *)

let log_syscall t result =
  let ctx = ctx_exn t in
  (match t.ml with
  | Some g ->
      ignore
        (Msglayer.group_append g
           (Wire.Syscall_result { ft_pid = ctx.ft_pid; sseq = ctx.sseq; result }))
  | None -> ());
  ctx.sseq <- ctx.sseq + 1

type replayed = Replayed of Wire.syscall_result | Went_live

let next_syscall t =
  let ctx = ctx_exn t in
  if ctx.live_seen then Went_live
  else
    match Bqueue.get ctx.sys_q with
    | Q_result r ->
        ctx.sseq <- ctx.sseq + 1;
        Replayed r
    | Q_live ->
        ctx.live_seen <- true;
        Went_live

(* {1 Failover} *)

let go_live t =
  if not t.live then begin
    t.live <- true;
    (* Everything digested from here on is live execution, not replay of
       the primary's order: close the comparable region. *)
    (match t.dig with Some d -> Digest.seal d | None -> ());
    Trace.warnf log ~eng:t.eng "det engine live: replay gates open";
    Engine.Gate.broadcast t.turn_changed;
    Hashtbl.iter (fun _ ctx -> Bqueue.put ctx.sys_q Q_live) t.by_ftpid
  end

let is_live t = t.live

(* Promotion: the surviving secondary becomes the next epoch's recording
   primary.  Unlike [go_live] the digest is NOT sealed — post-promotion
   sections are recorded (and later replayed by a regenerated backup), so
   they remain part of the comparable stream; the cluster bounds the
   comparison against the dead primary with a [Digest.capture] instead.
   Each channel's emission cursor continues exactly where replay stopped,
   so the journal the new backup replays is one gapless per-channel
   stream.  Callers must re-install [pthread_hooks] afterwards: the hook
   record snapshots [is_replica]/[defer_wakes] at creation time. *)
let promote t group =
  if t.rl = Primary_role then invalid_arg "Det.promote: already primary";
  t.rl <- Primary_role;
  t.ml <- Some group;
  Hashtbl.iter
    (fun _ st ->
      if st.ch_emitted < st.ch_consumed then st.ch_emitted <- st.ch_consumed)
    t.chans;
  Hashtbl.iter
    (fun pid _ -> if pid >= t.next_ftpid then t.next_ftpid <- pid + 1)
    t.by_ftpid;
  if not t.live then begin
    t.live <- true;
    Trace.warnf log ~eng:t.eng "det engine promoted: recording primary";
    Engine.Gate.broadcast t.turn_changed;
    Hashtbl.iter (fun _ ctx -> Bqueue.put ctx.sys_q Q_live) t.by_ftpid
  end

let replay_idle t =
  t.pending_count = 0
  && Hashtbl.fold (fun _ ctx acc -> acc && Bqueue.is_empty ctx.sys_q) t.by_ftpid true

(* {1 Introspection} *)

let det_ops t = Metrics.Counter.value t.ops
