open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack

type lifecycle = Replica_set.lifecycle =
  | Protected
  | Degraded
  | Regenerating
  | Outage

type config = {
  topology : Topology.spec;
  split : [ `Symmetric | `Asymmetric of int ];
  replicas : int;  (* the primary plus [replicas - 1] backups *)
  wake_latency : Time.t;
  mailbox_config : Mailbox.config;
  hb_period : Time.t;
  hb_timeout : Time.t;
  output_commit : bool;
  det_shard : bool;
  replay_workers : int;
      (* replay executors; 1 = none, the receive loop replays each record *)
  driver_load_time : Time.t;
  batch : Msglayer.batch_config;
  lagmon : Lagmon.config option;
      (* replication-health monitor; None (the default) runs without one *)
  app_env : (string * string) list;
  reprotect : bool;
      (* live re-protection: journal the record stream and regenerate a
         fresh backup online after a replica death *)
  regen_delay : Time.t;  (* Degraded dwell before regeneration starts *)
  regen_layout : Memlayout.t option;
      (* memory classification driving the snapshot-copy budget; None
         models a freshly booted layout (kernel reservations only) *)
}

let default_config =
  {
    topology = Topology.opteron_testbed;
    split = `Symmetric;
    replicas = 2;
    wake_latency = Time.us 55;
    mailbox_config = Mailbox.default_config;
    hb_period = Time.ms 10;
    hb_timeout = Time.ms 60;
    output_commit = true;
    det_shard = true;
    replay_workers = 1;
    driver_load_time = Time.ms 4950;
    batch = Msglayer.default_batch;
    lagmon = None;
    app_env = [];
    reprotect = false;
    regen_delay = Time.ms 100;
    regen_layout = None;
  }

let server_ip = "10.0.0.1"

(* The secondary-side cost of absorbing one TCP delta (the wake_up_process
   latency applies only to thread-waking records). *)
let delta_replay_cost = Time.us 10

(* Modelled snapshot-copy bandwidth, bytes/s: the epoch switch cannot
   complete before the classified User bytes have been copied at this
   rate. *)
let regen_bw = 2_000_000_000

(* The journal: the one copy of the replication stream a regeneration
   replays from LSN 0, so its index is the LSN.  The recording group
   journals at LSN assignment, and a promoted survivor's group continues
   it at the survivor's replay point, so the invariant holds across
   epochs.  Storage is allocated on the first append: a run without
   re-protection journals nothing. *)
type journal = {
  mutable j_buf : Wire.record option array;
  mutable j_len : int;
}

let journal_append j r =
  if j.j_len = Array.length j.j_buf then begin
    let nb = Array.make (max 256 (2 * j.j_len)) None in
    Array.blit j.j_buf 0 nb 0 j.j_len;
    j.j_buf <- nb
  end;
  j.j_buf.(j.j_len) <- Some r;
  j.j_len <- j.j_len + 1

let journal_get j i =
  match j.j_buf.(i) with Some r -> r | None -> invalid_arg "journal_get"

type transition = {
  tr_at : Time.t;
  tr_from : lifecycle;
  tr_to : lifecycle;
  tr_epoch : int;  (* epoch in force once the transition lands *)
}

(* A replica: the partition it runs on, its kernel and FT-Namespace, and
   the epoch it joined at. *)
type replica = {
  part : Partition.t;
  kernel : Kernel.t;
  ns : Namespace.t;
  joined : int;
}

(* One backup slot: the replica in it, plus both ends of its log. *)
type backup = {
  mutable r : replica;
  mutable ml_p : Msglayer.primary;
  mutable ml_s : Msglayer.secondary;
  mutable hb_p : Heartbeat.t option;  (* the primary watching this backup *)
  mutable hb_s : Heartbeat.t option;  (* this backup watching the primary *)
}

type t = {
  eng : Engine.t;
  cfg : config;
  machine : Machine.t;
  app : Api.app;
  nic : Nic.t option;
  failover_done : unit Ivar.t;
  mutable primary : replica;
  backups : backup array;
  mutable group : Msglayer.group;
      (* what the primary records into: every backup's log, stable at one
         ack *)
  journal : journal;
      (* what the group journals (re-protection only): the regeneration
         source *)
  arb : int Mailbox.chan option array array;
      (* [arb.(i).(j)] carries backup i's received LSN to backup j when
         they arbitrate a takeover; [None] on the diagonal *)
  mutable winner : int option;  (* backup slot of the latest takeover *)
  mutable lifecycle : lifecycle;
  mutable epoch : int;
  mutable failovers : int;
  mutable transitions : transition list;  (* newest first *)
  mutable subs : (transition -> unit) list;
  mutable regen_gen : int;
      (* bumped to invalidate an in-flight regeneration (abort/outage) *)
  mutable switch_cutoff : int option;
      (* journal length at the last epoch switch = the spliced backup's
         base LSN *)
  mutable degraded_at : Time.t option;
  mutable digest_pairs : (Digest.t * Digest.t * Digest.cap option) list;
      (* closed (primary, secondary, secondary-side cap) digest pairs of
         past epochs, oldest last *)
  mutable cur_pairs : (Digest.t * Digest.t) list;
      (* the live (primary, backup) digest pairs, one per backup *)
  mutable all_ns : Namespace.t list;
  mutable lagmons : (string * Lagmon.t) list;  (* newest first *)
  mutable cur_mon : Lagmon.t option;
  mutable acc_msgs : int;
  mutable acc_bytes : int;
  mutable acc_records : int;
  mutable failover_started : Time.t option;
  mutable failover_completed : Time.t option;
  mutable primary_halted : Time.t option;
  (* The open failover.* span: "failover.detect" from the primary's halt to
     the first detection, then each takeover phase in turn. *)
  mutable phase : Evlog.span option;
}

let log = Trace.make "ft.cluster"

let machine t = t.machine
let primary_partition t = t.primary.part
let primary_kernel t = t.primary.kernel
let primary_namespace t = t.primary.ns
let backup_partition t i = t.backups.(i).r.part
let backup_namespace t i = t.backups.(i).r.ns
let backup_received_lsn t i = Msglayer.received_lsn t.backups.(i).ml_s
let winner t = t.winner
let failover_done t = t.failover_done
let lagmon t = t.cur_mon
let lagmons t = List.rev t.lagmons
let failover_started_at t = t.failover_started
let failover_completed_at t = t.failover_completed
let primary_halted_at t = t.primary_halted
let state t = t.lifecycle
let epoch t = t.epoch
let failover_count t = t.failovers
let transitions t = List.rev t.transitions
let on_transition t f = t.subs <- t.subs @ [ f ]
let switch_cutoff t = t.switch_cutoff
let backup_first_lsn t = Msglayer.first_lsn t.backups.(0).ml_s

let member m_role r =
  { Replica_set.m_role; m_epoch = r.joined; m_partition = r.part }

let members t =
  member Replica_set.Primary t.primary
  :: Array.to_list (Array.map (fun b -> member Replica_set.Backup b.r) t.backups)

let all_halted t =
  Partition.is_halted t.primary.part
  && Array.for_all (fun b -> Partition.is_halted b.r.part) t.backups

let sum_backups f t = Array.fold_left (fun acc b -> acc + f b) 0 t.backups

let traffic_msgs t =
  t.acc_msgs + sum_backups (fun b -> Msglayer.traffic_msgs b.ml_p b.ml_s) t

let traffic_bytes t =
  t.acc_bytes + sum_backups (fun b -> Msglayer.traffic_bytes b.ml_p b.ml_s) t

(* The serving replica's sections: the primary's, or once its partition
   is down, those of the backup that took over. *)
let det_ops t =
  match t.winner with
  | Some i when Partition.is_halted t.primary.part ->
      Namespace.det_ops t.backups.(i).r.ns
  | _ -> Namespace.det_ops t.primary.ns

(* Every live log carries every record, so the busiest one counts them. *)
let records_sent t =
  t.acc_records
  + Array.fold_left (fun acc b -> max acc (Msglayer.p_records b.ml_p)) 0 t.backups

let compare_digests t =
  List.find_map
    (fun (dp, ds, cap) ->
      Digest.compare_replicas_capped ~secondary_cap:cap ~primary:dp
        ~secondary:ds)
    (List.rev_append t.digest_pairs
       (List.map (fun (dp, ds) -> (dp, ds, None)) t.cur_pairs))

(* Close the live digest pairs, bounding each backup-side comparison at
   [cap] (see [take_over]). *)
let close_pairs t cap =
  List.iter (fun (dp, ds) -> t.digest_pairs <- (dp, ds, cap) :: t.digest_pairs)
    t.cur_pairs;
  t.cur_pairs <- []

let replay_divergence t =
  List.fold_left
    (fun acc ns ->
      match acc with Some _ -> acc | None -> Namespace.divergence ns)
    None t.all_ns

let stop_hb = Option.iter Heartbeat.stop
let spawner kernel name f = Kernel.spawn_thread kernel ~name f

let stop_heartbeats t =
  Array.iter
    (fun b ->
      stop_hb b.hb_p;
      stop_hb b.hb_s;
      b.hb_p <- None;
      b.hb_s <- None)
    t.backups

let shutdown t =
  stop_heartbeats t;
  List.iter (fun (_, m) -> Lagmon.stop m) t.lagmons

(* Detector, monitor and thread names carry the backup index once there is
   more than one backup. *)
let member_suffix t i =
  if Array.length t.backups = 1 then "" else Printf.sprintf ".b%d" i

let set_lifecycle t to_ =
  if t.lifecycle <> to_ then begin
    let tr =
      {
        tr_at = Engine.now t.eng;
        tr_from = t.lifecycle;
        tr_to = to_;
        tr_epoch = t.epoch;
      }
    in
    t.lifecycle <- to_;
    t.transitions <- tr :: t.transitions;
    Evlog.emit (Engine.evlog t.eng) ~comp:"ft.cluster" "lifecycle"
      ~args:
        [
          ("from", Evlog.Str (Replica_set.lifecycle_label tr.tr_from));
          ("to", Evlog.Str (Replica_set.lifecycle_label to_));
          ("epoch", Evlog.Int tr.tr_epoch);
        ];
    List.iter (fun f -> f tr) t.subs
  end

(* The failover-phase spans are pinned (exempt from ring eviction) and
   contiguous: each phase ends exactly where the next begins, so the
   per-phase durations in [ftsim timeline] sum exactly to the halt-to-live
   recovery time. *)
let end_phase t =
  Option.iter (Evlog.span_end (Engine.evlog t.eng)) t.phase;
  t.phase <- None

let next_phase t name =
  end_phase t;
  t.phase <-
    Some (Evlog.span_begin (Engine.evlog t.eng) ~pin:true ~comp:"ft.cluster" name)

(* Backup [b]'s log pair as a replication-health source, read against the
   current primary (see the determinism contract in {!Lagmon}: every read
   is pure). *)
let pair_source t b =
  let ml_p = b.ml_p and ml_s = b.ml_s and p = t.primary and part_b = b.r.part in
  {
    Lagmon.appended = (fun () -> Msglayer.last_lsn ml_p);
    acked = (fun () -> Msglayer.acked ml_p);
    replayed = (fun () -> Msglayer.received_lsn ml_s);
    queue_depth = (fun () -> Msglayer.queue_depth ml_s);
    rtt = (fun () -> Msglayer.last_rtt ml_p);
    channels =
      (fun () ->
        List.map
          (fun (c, emitted, _) -> (c, emitted, Msglayer.chan_acked ml_p ~chan:c))
          (Namespace.chan_cursors p.ns));
    alive =
      (fun () ->
        t.failover_started = None
        && (not (Msglayer.is_disabled ml_p))
        && (not (Partition.is_halted p.part))
        && not (Partition.is_halted part_b));
  }

(* Per-backup replication-health monitors at epoch 0. *)
let start_lagmons t lm_config =
  Array.iteri
    (fun i b ->
      let name = "lag" ^ member_suffix t i in
      let mon = Lagmon.start ~config:lm_config t.eng ~name (pair_source t b) in
      t.lagmons <- (name, mon) :: t.lagmons;
      if i = 0 then t.cur_mon <- Some mon)
    t.backups

(* Drain backup [b]'s log: everything the primary managed to put in shared
   memory survives its crash and must be consumed.  [Msglayer.drained] also
   covers the replay-executor pool, so with parallel replay this waits for
   every executor's queue — not just the dispatch loop — to run dry.  Then
   let replay finish consuming the drained log; require two consecutive
   idle observations to let in-progress operations settle. *)
let drain b =
  let rec wait_drained () =
    if not (Msglayer.drained b.ml_s) then begin
      Engine.sleep (Time.ms 1);
      wait_drained ()
    end
  in
  wait_drained ();
  let rec wait_idle consecutive =
    if consecutive < 2 then begin
      Engine.sleep (Time.ms 1);
      if Namespace.replay_idle b.r.ns then wait_idle (consecutive + 1)
      else wait_idle 0
    end
  in
  wait_idle 0

(* Boot a backup on [part]: a fresh kernel and a replaying FT-Namespace
   that carries a digest recorder, returned with it. *)
let boot_backup cfg ~joined part =
  let kernel = Kernel.boot part () in
  let ns =
    Namespace.secondary kernel ~env:cfg.app_env ~det_shard:cfg.det_shard ()
  in
  let d = Digest.create () in
  Namespace.attach_digest ns d;
  ({ part; kernel; ns; joined }, d)

(* The log between [primary] and backup [r]: a mailbox duplex, whose rings
   lose what was in flight when either end suffers a coherency-disrupting
   fault (§3.5's rare worst case), the primary's end born a member of
   [group] at its next LSN, and the backup's end replaying into [r]'s
   namespace from that LSN. *)
let log_pair machine cfg group ~primary r =
  let eng = Machine.engine machine in
  let d =
    Mailbox.duplex eng ~config:cfg.mailbox_config ~a:primary.part ~b:r.part ()
  in
  Machine.on_coherency_loss machine ~partition_id:(Partition.id primary.part)
    (fun () -> Mailbox.drop_in_flight d.Mailbox.a_to_b);
  Machine.on_coherency_loss machine ~partition_id:(Partition.id r.part)
    (fun () -> Mailbox.drop_in_flight d.Mailbox.b_to_a);
  let ml_p =
    Msglayer.create_member ~batch:cfg.batch eng group ~out:d.Mailbox.a_to_b
      ~inb:d.Mailbox.b_to_a
  in
  let ns = r.ns in
  let ml_s =
    Msglayer.create_secondary ~batch:cfg.batch
      ~chan_progress:(fun () -> Namespace.chan_progress ns)
      ~chan_restore:(fun chans -> Namespace.chan_restore ns chans)
      ~base_lsn:(Msglayer.last_lsn ml_p + 1)
      ~workers:cfg.replay_workers eng ~inb:d.Mailbox.a_to_b
      ~out:d.Mailbox.b_to_a ~replay_cost:cfg.wake_latency
      ~delta_cost:delta_replay_cost
      ~handler:(fun record -> Namespace.record_handler ns record)
  in
  (ml_p, ml_s)

let declare_outage t why =
  Trace.warnf log ~eng:t.eng "%s: service outage" why;
  set_lifecycle t Outage

(* An unexpected halt of the *current* primary opens the
   "failover.detect" phase when a backup is up to take over; otherwise it
   is a service outage.  The failover's own IPI-halt arrives with the
   failover in flight and is neither. *)
let rec watch_primary t part =
  Partition.on_halt part (fun () ->
      if part == t.primary.part then begin
        if t.failover_started = None && t.lifecycle = Protected then begin
          if Array.exists (fun b -> not (Partition.is_halted b.r.part)) t.backups
          then begin
            t.primary_halted <- Some (Engine.now t.eng);
            next_phase t "failover.detect"
          end
          else declare_outage t "primary died with every backup down"
        end
        else if
          (t.lifecycle = Degraded || t.lifecycle = Regenerating)
          && not (t.failover_started <> None && t.failover_completed = None)
        then begin
          (* No fully-replicated survivor: a half-replayed regeneration
             target must never go live (its journal prefix would replay
             outputs already released unprotected), so halt it and declare
             the outage. *)
          t.regen_gen <- t.regen_gen + 1;
          let b = t.backups.(0) in
          if t.lifecycle = Regenerating && not (Partition.is_halted b.r.part)
          then Ipi.send_halt t.eng b.r.part;
          declare_outage t
            (Printf.sprintf "primary died while %s"
               (Replica_set.lifecycle_label t.lifecycle))
        end
      end)

(* A backup slot's partition halted: once every member is down, no one can
   serve — a failover that lost its last candidate, or a survivor that
   died after going live. *)
and watch_backup t part =
  Partition.on_halt part (fun () ->
      if
        t.lifecycle <> Outage
        && Array.exists (fun b -> b.r.part == part) t.backups
        && all_halted t
      then declare_outage t "last live member died")

and start_heartbeats t ~epoch =
  let suffix = if epoch = 0 then "" else Printf.sprintf ".e%d" epoch in
  (* Guard against a stale detector of a replaced epoch firing late.  A
     backup may also join a failover another backup's detector opened. *)
  let guard f () = if t.epoch = epoch && t.lifecycle = Protected then f () in
  let candidate f () =
    if
      t.epoch = epoch
      && (t.lifecycle = Protected
         || (t.failover_started <> None && t.failover_completed = None))
    then f ()
  in
  Array.iteri
    (fun i b ->
      let name role = role ^ suffix ^ member_suffix t i in
      let ml_p = b.ml_p and ml_s = b.ml_s in
      b.hb_p <-
        Some
          (Heartbeat.start ~name:(name "primary")
             ~spawn:(spawner t.primary.kernel)
             ~eng:t.eng ~period:t.cfg.hb_period ~timeout:t.cfg.hb_timeout
             ~send:(fun ~seq -> Msglayer.send_heartbeat_p ml_p ~seq)
             ~last_peer:(fun () -> Msglayer.last_peer_activity_p ml_p)
             ~on_failure:(guard (fun () -> on_backup_death t i))
             ());
      b.hb_s <-
        Some
          (Heartbeat.start ~name:(name "secondary")
             ~spawn:(spawner b.r.kernel)
             ~eng:t.eng ~period:t.cfg.hb_period ~timeout:t.cfg.hb_timeout
             ~send:(fun ~seq -> Msglayer.send_heartbeat_s ml_s ~seq)
             ~last_peer:(fun () -> Msglayer.last_peer_activity_s ml_s)
             ~on_failure:(candidate (fun () -> on_primary_death t i))
             ()))
    t.backups

(* Backup [i]'s detector declared the primary failed (§3.7).  The first
   detection opens the failover: it halts the primary and stops the
   primary's detectors.  Every backup whose detector fires drains its log
   and arbitrates; the others' detectors keep running, so each backup
   announces its own log length. *)
and on_primary_death t i =
  let b = t.backups.(i) in
  let first = t.failover_started = None in
  if first then begin
    t.failover_started <- Some (Engine.now t.eng);
    t.failovers <- t.failovers + 1;
    Metrics.Counter.incr
      (Metrics.Registry.counter (Engine.metrics t.eng) "cluster.failovers");
    Trace.warnf log ~eng:t.eng "failover: primary declared failed";
    (* No observed halt (e.g. a false-positive detection): record a
       zero-length detect phase so the timeline still has all four. *)
    if t.phase = None then next_phase t "failover.detect";
    end_phase t;
    (* The IPI lands with the failover in flight, which [watch_primary]
       reads as neither a new failure nor an outage. *)
    Ipi.send_halt t.eng t.primary.part;
    set_lifecycle t Degraded;
    t.degraded_at <- Some (Engine.now t.eng);
    Array.iter
      (fun b ->
        stop_hb b.hb_p;
        b.hb_p <- None)
      t.backups
  end;
  stop_hb b.hb_s;
  b.hb_s <- None;
  if first then next_phase t "failover.drain_replay";
  ignore
    (Kernel.spawn_thread b.r.kernel ~name:("ft-failover" ^ member_suffix t i)
       (fun () ->
         drain b;
         arbitrate t i))

(* Log-length arbitration: announce this backup's received LSN to every
   peer, then wait for theirs; a halted peer, or one silent for
   4 × [hb_timeout], counts as dead.  The longest log wins, ties to the
   lower index — the quorum rule guarantees the winner's log covers every
   output a client may have seen.  With one backup there is no one to ask.

   A backup that lost stays a candidate until the winner is live (the
   winner's go-live halts it).  If every peer that beat it halts first, it
   takes over — provided it holds the round's longest log; a shorter log
   may lack records whose outputs a client already saw, so it halts
   instead and the set is out of service. *)
and arbitrate t i =
  let b = t.backups.(i) in
  let lsn = Msglayer.received_lsn b.ml_s in
  Array.iter
    (function
      | Some c when not (Mailbox.src_halted c) ->
          ignore (Mailbox.try_send c ~bytes:16 lsn)
      | _ -> ())
    t.arb.(i);
  let deadline = Engine.now t.eng + (4 * t.cfg.hb_timeout) in
  let peers =
    List.filter_map
      (fun j ->
        Option.map
          (fun c ->
            ( j,
              if Partition.is_halted t.backups.(j).r.part then None
              else Mailbox.recv_timeout c ~deadline ))
          t.arb.(j).(i))
      (List.init (Array.length t.backups) Fun.id)
  in
  let beats (j, peer) =
    match peer with None -> true | Some l -> lsn > l || (lsn = l && i < j)
  in
  let wins = List.for_all beats peers in
  if peers <> [] then
    Trace.warnf log ~eng:t.eng "backup %d: arbitration lsn=%d peers=[%s] -> %s"
      i lsn
      (String.concat "; "
         (List.map
            (fun (j, l) ->
              Printf.sprintf "%d:%s" j
                (match l with Some l -> string_of_int l | None -> "dead"))
            peers))
      (if wins then "takes over" else "stands by");
  if wins then take_over t i
  else begin
    let top =
      List.fold_left (fun m (_, l) -> Option.fold ~none:m ~some:(max m) l) lsn peers
    in
    let rivals = List.filter (fun p -> not (beats p)) peers in
    let rec stand_by () =
      if
        not
          (List.for_all
             (fun (j, _) -> Partition.is_halted t.backups.(j).r.part)
             rivals)
      then begin
        Engine.sleep (Time.ms 1);
        stand_by ()
      end
      else if lsn = top then take_over t i
      else begin
        Trace.warnf log ~eng:t.eng
          "backup %d: every longer log died with its holder; halting" i;
        Ipi.send_halt t.eng b.r.part
      end
    in
    stand_by ()
  end

(* The takeover, run by the arbitration winner.  Wall-clock is dominated by
   the NIC driver reload (99 % of the ~5 s reported in §4.4).  With
   re-protection on, the survivor is additionally *promoted*: it records
   into a fresh group that continues the journal and journals alone until a
   regenerated backup is spliced in. *)
and take_over t i =
  let b = t.backups.(i) in
  let reg = Engine.metrics t.eng in
  t.winner <- Some i;
  next_phase t "failover.driver_reload";
  Trace.infof log ~eng:t.eng "failover: log drained, replay complete";
  (* With re-protection: bound later comparisons against the dead primary's
     digest at the survivor's replay point — everything beyond it died
     unreplicated with the primary — and close the epoch's digest pair.
     The survivor's digest keeps growing as the next epoch's recording
     primary. *)
  if t.cfg.reprotect then
    close_pairs t (Option.map Digest.capture (Namespace.digest b.r.ns));
  let promotion () =
    if t.cfg.reprotect then begin
      (* The promoted primary's group continues the journal from the
         survivor's replay point.  The mailbox is FIFO, LSNs have no gaps
         and the drain is done, so the prefix up to it is, record for
         record, what the survivor received; records past it died with
         the primary.  Later appends overwrite their slots. *)
      t.journal.j_len <- Msglayer.received_lsn b.ml_s + 1;
      t.group <-
        Msglayer.create_group ~journal:(journal_append t.journal)
          ~base_lsn:t.journal.j_len ();
      Some
        { Namespace.pr_group = t.group; pr_output_commit = t.cfg.output_commit }
    end
    else None
  in
  (* Take over the network: reload the driver onto a fresh stack, then the
     namespace rebuilds its TCP state on it. *)
  (match t.nic with
  | Some nic ->
      let stack =
        Tcp.create (Netenv.of_kernel b.r.kernel) ~ip:server_ip ()
      in
      Nic.transfer nic ~owner:b.r.part ~rx:(Tcp.rx_callback stack);
      next_phase t "failover.golive";
      Tcp.bind_nic stack nic;
      Namespace.go_live b.r.ns ~stack ?promote:(promotion ()) ()
  | None ->
      next_phase t "failover.golive";
      Namespace.go_live b.r.ns ?promote:(promotion ()) ());
  end_phase t;
  (* The other backups hold none of the log the winner writes from here. *)
  Array.iteri
    (fun j o ->
      if j <> i then begin
        stop_hb o.hb_s;
        o.hb_s <- None;
        if not (Partition.is_halted o.r.part) then Ipi.send_halt t.eng o.r.part
      end)
    t.backups;
  if t.cfg.reprotect then begin
    (* Role swap: the survivor is the primary of the next epoch; the dead
       unit stays listed as the backup slot until regeneration replaces it.
       The dead message-layer pair stays in the slot (frozen metrics) until
       the splice. *)
    let dead = t.primary in
    t.primary <- b.r;
    b.r <- dead;
    watch_primary t t.primary.part;
    schedule_reprotect t
  end;
  t.failover_completed <- Some (Engine.now t.eng);
  (match t.failover_started with
  | Some s ->
      Metrics.Hist.record
        (Metrics.Registry.hist reg "cluster.failover_ns")
        (float_of_int (Engine.now t.eng - s))
  | None -> ());
  Trace.warnf log ~eng:t.eng "failover: secondary is live";
  if t.failovers = 1 then Ivar.fill t.failover_done ()

(* Backup [i] died.  Without re-protection the primary keeps replicating to
   the other backups and, once the last is gone, runs solo, unreplicated,
   to the end of the run (the original behaviour).  With re-protection
   (one backup), the primary keeps *recording* — the group journals alone
   — so a fresh backup can replay the full timeline and re-attach. *)
and on_backup_death t i =
  let b = t.backups.(i) in
  if not t.cfg.reprotect then begin
    let solo =
      Array.for_all (fun o -> o == b || Msglayer.is_disabled o.ml_p) t.backups
    in
    if solo then
      Trace.warnf log ~eng:t.eng "secondary declared failed; primary runs solo"
    else Trace.warnf log ~eng:t.eng "backup %d declared failed" i;
    Ipi.send_halt t.eng b.r.part;
    Msglayer.disable b.ml_p;
    if solo then begin
      Namespace.go_solo t.primary.ns;
      set_lifecycle t Degraded
    end
  end
  else begin
    Trace.warnf log ~eng:t.eng
      "backup declared failed; primary degrades (journal keeps recording)";
    Ipi.send_halt t.eng b.r.part;
    stop_heartbeats t;
    (* The dead backup's digest froze at its replay point — a valid prefix
       of the primary's, so the pair closes uncapped. *)
    close_pairs t None;
    (* The group journals alone from here, and disabling the log releases
       its stability waiters (they gate outputs now released unprotected —
       Degraded's defining property).  TCP hooks stay installed: the
       primary records, it does not go solo. *)
    Msglayer.disable b.ml_p;
    set_lifecycle t Degraded;
    t.degraded_at <- Some (Engine.now t.eng);
    schedule_reprotect t
  end

and schedule_reprotect t =
  ignore
    (Engine.timer t.eng
       ~at:(Engine.now t.eng + t.cfg.regen_delay)
       (fun () -> reprotect t))

and reprotect t =
  if t.cfg.reprotect && t.lifecycle = Degraded then
    ignore
      (Kernel.spawn_thread t.primary.kernel ~name:"ft-reprotect" (fun () ->
           do_reprotect t))

(* Online backup regeneration: boot a fresh kernel on the recommissioned
   spare, stream the journal to it (accelerated replay models the
   Memlayout-guided state transfer) while the primary keeps serving and
   appending, then splice the new replica into the live stream in one
   non-yielding turn once catch-up and the copy budget both hold.  The
   primary's group orders the record stream, so its next LSN is the switch
   point: the spliced backup's first wire LSN is exactly the journal
   length at the splice — no gap, no overlap.  Re-protection runs with one
   backup, so the slot is always backup 0. *)
and do_reprotect t =
  if t.cfg.reprotect && t.lifecycle = Degraded then begin
    let b = t.backups.(0) in
    let gen = t.regen_gen + 1 in
    t.regen_gen <- gen;
    let regenerating () = t.regen_gen = gen && t.lifecycle = Regenerating in
    let ev = Engine.evlog t.eng in
    let reg = Engine.metrics t.eng in
    let new_epoch = t.epoch + 1 in
    Metrics.Counter.incr (Metrics.Registry.counter reg "cluster.reprotects");
    (* Power-cycle the failed unit's hardware and boot the replacement. *)
    let part_b =
      Machine.recommission t.machine b.r.part
        ~name:(Printf.sprintf "backup.e%d" new_epoch)
    in
    let r, d_fresh = boot_backup t.cfg ~joined:new_epoch part_b in
    b.r <- r;
    watch_backup t part_b;
    set_lifecycle t Regenerating;
    let span =
      Evlog.span_begin ev ~pin:true ~comp:"ft.cluster" "reprotect.regen"
    in
    let regen_start = Engine.now t.eng in
    Trace.warnf log ~eng:t.eng
      "re-protection: regenerating backup for epoch %d (journal=%d records)"
      new_epoch t.journal.j_len;
    t.all_ns <- r.ns :: t.all_ns;
    ignore (Namespace.start_app r.ns t.app);
    (* Memlayout-guided snapshot budget: User pages must be copied before
       the switch (they gate the deadline), Delayed pages transfer lazily
       after it, Ignored kernel state is reconstructed by the fresh boot
       plus journal replay. *)
    let layout =
      match t.cfg.regen_layout with
      | Some l -> l
      | None -> Memlayout.create ~ram_bytes:(Partition.ram_bytes part_b)
    in
    let { Memlayout.ignored; delayed; user } = Memlayout.classify layout in
    let copy_ns =
      int_of_float (float_of_int user *. 1e9 /. float_of_int regen_bw)
    in
    let copy_deadline = regen_start + copy_ns in
    Evlog.emit ev ~comp:"ft.cluster" "reprotect.snapshot"
      ~args:
        [
          ("copied_user_bytes", Evlog.Int user);
          ("lazy_delayed_bytes", Evlog.Int delayed);
          ("reconstructed_ignored_bytes", Evlog.Int ignored);
        ];
    (* A fault on the regeneration target aborts the regeneration cleanly:
       the primary is unperturbed, the half-built replica is discarded,
       and a retry is scheduled. *)
    Partition.on_halt part_b (fun () ->
        if regenerating () then begin
          t.regen_gen <- t.regen_gen + 1;
          Evlog.span_end ev span;
          Trace.warnf log ~eng:t.eng
            "re-protection aborted: regeneration target died; will retry";
          Metrics.Counter.incr
            (Metrics.Registry.counter reg "cluster.regen_aborts");
          set_lifecycle t Degraded;
          schedule_reprotect t
        end);
    let fed = ref 0 in
    (* Next epoch's health monitor: it reads the journal-feed cursors until
       the splice, then the spliced pair. *)
    let mon =
      Option.map
        (fun lm_config ->
          let name = Printf.sprintf "lag.e%d" new_epoch in
          let m =
            Lagmon.start ~config:lm_config ~regenerating t.eng ~name
              {
                Lagmon.appended = (fun () -> t.journal.j_len - 1);
                acked = (fun () -> !fed - 1);
                replayed = (fun () -> !fed - 1);
                queue_depth = (fun () -> t.journal.j_len - !fed);
                rtt = (fun () -> None);
                channels = (fun () -> []);
                alive = regenerating;
              }
          in
          t.lagmons <- (name, m) :: t.lagmons;
          m)
        t.cfg.lagmon
    in
    (* The splice: one non-yielding turn from the final catch-up check to
       the new replica being live on the wire.  The simulation is
       cooperative, so no append can interleave — the cutoff read here is
       the cutoff the backup acks from. *)
    let splice () =
      let cutoff = Msglayer.group_last_lsn t.group + 1 in
      t.switch_cutoff <- Some cutoff;
      let ml_p, ml_s = log_pair t.machine t.cfg t.group ~primary:t.primary r in
      (* Bank the dead pair's traffic before dropping the handles. *)
      t.acc_msgs <- t.acc_msgs + Msglayer.traffic_msgs b.ml_p b.ml_s;
      t.acc_bytes <- t.acc_bytes + Msglayer.traffic_bytes b.ml_p b.ml_s;
      t.acc_records <- t.acc_records + Msglayer.p_records b.ml_p;
      b.ml_p <- ml_p;
      b.ml_s <- ml_s;
      (* Both digests cover the stream from LSN 0: the fresh backup
         replayed the whole journal. *)
      t.cur_pairs <- [ (Option.get (Namespace.digest t.primary.ns), d_fresh) ];
      t.epoch <- new_epoch;
      t.failover_started <- None;
      t.failover_completed <- None;
      t.primary_halted <- None;
      t.phase <- None;
      set_lifecycle t Protected;
      Evlog.span_end ev span;
      Metrics.Hist.record
        (Metrics.Registry.hist reg "cluster.reprotect_ns")
        (float_of_int (Engine.now t.eng - regen_start));
      (match t.degraded_at with
      | Some d ->
          Metrics.Hist.record
            (Metrics.Registry.hist reg "cluster.time_to_protected_ns")
            (float_of_int (Engine.now t.eng - d));
          t.degraded_at <- None
      | None -> ());
      Msglayer.spawn_primary_rx ml_p (spawner t.primary.kernel);
      Msglayer.spawn_secondary_rx ml_s (spawner r.kernel);
      start_heartbeats t ~epoch:new_epoch;
      Option.iter (fun m -> Lagmon.set_source m (pair_source t b)) mon;
      (* The replaced epoch's monitor was retired by a *planned* switch —
         report that, not a frozen last verdict. *)
      Option.iter Lagmon.retire t.cur_mon;
      t.cur_mon <- mon;
      Trace.warnf log ~eng:t.eng
        "re-protection complete: epoch %d protected (cutoff LSN %d)"
        new_epoch cutoff
    in
    (* Feed: replay the journal from LSN 0 on the fresh kernel, then keep
       chasing the live tail the primary appends meanwhile.  Runs on the
       target kernel so a target fault kills it with the partition. *)
    ignore
      (Kernel.spawn_thread r.kernel ~name:"ft-regen-feed" (fun () ->
           let rec loop () =
             if regenerating () then
               if !fed < t.journal.j_len then begin
                 let burst = min 64 (t.journal.j_len - !fed) in
                 for _ = 1 to burst do
                   Namespace.record_handler r.ns (journal_get t.journal !fed);
                   incr fed
                 done;
                 Engine.sleep (Time.us 5);
                 loop ()
               end
               else if
                 (not (Namespace.replay_idle r.ns))
                 || Engine.now t.eng < copy_deadline
               then begin
                 Engine.sleep (Time.us 50);
                 loop ()
               end
               else splice ()
           in
           loop ()))
  end

(* The primary gets half the machine; the backups share the other half
   evenly.  A pair uses the paper's symmetric or asymmetric split. *)
let carve machine cfg =
  let backups = cfg.replicas - 1 in
  match cfg.split with
  | `Asymmetric primary_cores ->
      let p, s = Machine.split_asymmetric machine ~primary_cores in
      (p, [| s |])
  | `Symmetric when backups = 1 ->
      let p, s = Machine.split_symmetric machine in
      (p, [| s |])
  | `Symmetric ->
      let spec = Machine.spec machine in
      let nodes = spec.Topology.numa_nodes / 2 in
      let cores = Topology.total_cores spec and ram = spec.Topology.ram_bytes in
      let p =
        Machine.add_partition machine ~name:"primary" ~cores:(cores / 2)
          ~ram_bytes:(ram / 2) ~numa_nodes:(List.init nodes Fun.id)
      in
      let per = nodes / backups in
      ( p,
        Array.init backups (fun i ->
            Machine.add_partition machine
              ~name:(Printf.sprintf "backup-%d" i)
              ~cores:(cores / (2 * backups))
              ~ram_bytes:(ram / (2 * backups))
              ~numa_nodes:(List.init per (fun n -> nodes + (i * per) + n))) )

let check_config cfg =
  let backups = cfg.replicas - 1 in
  if backups < 1 then Error "replicas < 2"
  else if backups = 1 then Ok ()
  else if cfg.reprotect then Error "re-protection needs replicas = 2"
  else if cfg.split <> `Symmetric then
    Error "an asymmetric split needs replicas = 2"
  else if cfg.topology.Topology.numa_nodes / 2 mod backups <> 0 then
    Error "the backups' half of the NUMA nodes must divide evenly among them"
  else Ok ()

let create eng ?(config = default_config) ?link ~app () =
  (match check_config config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.create: " ^ e));
  let machine = Machine.create eng config.topology in
  let part_p, parts_b = carve machine config in
  let kernel_p = Kernel.boot part_p () in
  (* The one journal (re-protection only): the group spools records at LSN
     assignment. *)
  let journal = { j_buf = [||]; j_len = 0 } in
  let group =
    Msglayer.create_group
      ?journal:(if config.reprotect then Some (journal_append journal) else None)
      ()
  in
  (* Primary-side network stack (the paper's primary owns all devices). *)
  let nic, stack_p =
    match link with
    | None -> (None, None)
    | Some ep ->
        let nic = Nic.create eng ~driver_load_time:config.driver_load_time ep in
        let stack =
          Tcp.create (Netenv.of_kernel kernel_p) ~ip:server_ip ()
        in
        Tcp.bind_nic stack nic;
        Nic.attach nic ~owner:part_p ~rx:(Tcp.rx_callback stack) ();
        (Some nic, Some stack)
  in
  let ns_p =
    Namespace.primary kernel_p ~group ?stack:stack_p ~env:config.app_env
      ~det_shard:config.det_shard ~output_commit:config.output_commit ()
  in
  let primary = { part = part_p; kernel = kernel_p; ns = ns_p; joined = 0 } in
  (* The launch procedure replicates the environment to the backups so
     every replica starts the application identically (§3). *)
  let booted = Array.map (boot_backup config ~joined:0) parts_b in
  let backups =
    Array.map
      (fun (r, _) ->
        let ml_p, ml_s = log_pair machine config group ~primary r in
        { r; ml_p; ml_s; hb_p = None; hb_s = None })
      booted
  in
  Array.iter
    (fun b -> Msglayer.spawn_primary_rx b.ml_p (spawner kernel_p))
    backups;
  Array.iter
    (fun b -> Msglayer.spawn_secondary_rx b.ml_s (spawner b.r.kernel))
    backups;
  (* Backup-to-backup channels for takeover arbitration. *)
  let nb = Array.length parts_b in
  let arb = Array.make_matrix nb nb None in
  for i = 0 to nb - 1 do
    for j = i + 1 to nb - 1 do
      let d = Mailbox.duplex eng ~a:parts_b.(i) ~b:parts_b.(j) () in
      arb.(i).(j) <- Some d.Mailbox.a_to_b;
      arb.(j).(i) <- Some d.Mailbox.b_to_a
    done
  done;
  let d_p = Digest.create () in
  let t =
    {
      eng;
      cfg = config;
      machine;
      app;
      nic;
      failover_done = Ivar.create ();
      primary;
      backups;
      group;
      journal;
      arb;
      winner = None;
      lifecycle = Protected;
      epoch = 0;
      failovers = 0;
      transitions = [];
      subs = [];
      regen_gen = 0;
      switch_cutoff = None;
      degraded_at = None;
      digest_pairs = [];
      cur_pairs = Array.to_list (Array.map (fun (_, d) -> (d_p, d)) booted);
      all_ns = Array.to_list (Array.map (fun b -> b.r.ns) backups) @ [ ns_p ];
      lagmons = [];
      cur_mon = None;
      acc_msgs = 0;
      acc_bytes = 0;
      acc_records = 0;
      failover_started = None;
      failover_completed = None;
      primary_halted = None;
      phase = None;
    }
  in
  start_heartbeats t ~epoch:0;
  (* Replication-health monitoring: closures over the message layers and
     the primary's Det channel cursors, all pure reads — see the
     determinism contract in {!Lagmon}. *)
  Option.iter (start_lagmons t) config.lagmon;
  watch_primary t part_p;
  Array.iter (watch_backup t) parts_b;
  (* Divergence checking: every replica folds incremental state digests,
     compared snapshot-by-snapshot after the run (chaos campaigns); each
     backup's recorder was attached at boot. *)
  Namespace.attach_digest ns_p d_p;
  ignore (Namespace.start_app ns_p app);
  Array.iter (fun b -> ignore (Namespace.start_app b.r.ns app)) backups;
  t

let kill t ~role ~at =
  ignore
    (Engine.timer t.eng ~at (fun () ->
         let part =
           match role with
           | Replica_set.Primary -> t.primary.part
           | Replica_set.Backup -> (
               match
                 Array.find_opt
                   (fun b -> not (Partition.is_halted b.r.part))
                   t.backups
               with
               | Some b -> b.r.part
               | None -> t.backups.(0).r.part)
         in
         Machine.apply t.machine
           (Fault.at (Engine.now t.eng)
              ~partition_id:(Partition.id part)
              Fault.Core_failstop)))

(* {1 Baseline} *)

type standalone = {
  sa_kernel : Kernel.t;
  sa_ns : Namespace.t;
}

let create_standalone eng ?(topology = Topology.opteron_testbed) ?link ~app
    () =
  let machine = Machine.create eng topology in
  let cores = Topology.total_cores topology / 2 in
  let nodes = List.init (topology.Topology.numa_nodes / 2) Fun.id in
  let part =
    Machine.add_partition machine ~name:"ubuntu" ~cores
      ~ram_bytes:(topology.Topology.ram_bytes / 2)
      ~numa_nodes:nodes
  in
  let kernel = Kernel.boot part () in
  let stack =
    match link with
    | None -> None
    | Some ep ->
        let nic = Nic.create eng ~driver_load_time:0 ep in
        let stack = Tcp.create (Netenv.of_kernel kernel) ~ip:server_ip () in
        Tcp.bind_nic stack nic;
        Nic.attach nic ~owner:part ~rx:(Tcp.rx_callback stack) ();
        Some stack
  in
  let ns = Namespace.standalone kernel ?stack () in
  ignore (Namespace.start_app ns app);
  { sa_kernel = kernel; sa_ns = ns }

let standalone_kernel s = s.sa_kernel
let standalone_namespace s = s.sa_ns
