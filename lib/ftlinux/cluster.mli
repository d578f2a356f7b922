(** Assembly of a complete FT-Linux machine — a primary plus
    [config.replicas - 1] backups — behind an explicit replica-lifecycle
    state machine.

    [create] partitions a machine, boots one kernel per partition, attaches
    one shared-memory message layer per backup to the primary's recording
    {!Msglayer.group} (a record is stable once any live backup acknowledged
    it), launches the application replicated in an FT-Namespace on every
    kernel, and starts heart-beat failure detection.  Every backup, original
    or regenerated, is built the same way: a fresh kernel and replaying
    namespace, then its log pair.  When the primary partition
    fails (inject via {!Ftsim_hw.Machine.inject} or {!kill}), the backups
    run the failover sequence: IPI-halt, log drain, replay completion,
    log-length arbitration (with more than one backup), NIC driver reload,
    TCP stack reconstruction, switch to live execution.

    Arbitration: every backup whose detector fires announces its received
    LSN to its peers; the longest log wins, ties to the lower index, and a
    peer silent for 4 × [hb_timeout] counts as dead.  A backup that lost
    stays a candidate until the winner is live; if the winner halts first,
    the survivors holding the round's longest log re-arbitrate and one takes
    over.  Once the winner is live the losers hold none of its new log, so
    its go-live halts them.

    The set moves through the {!Replica_set.lifecycle} states:

    {v Protected --replica death--> Degraded --regen start--> Regenerating
         ^                             ^   |                      |
         |                             |   +--- primary death --> Outage
         +------- epoch switch --------+--- target death (abort) -+ v}

    A replica death means the death of the last backup, or the primary's
    (a backup takes over).  Without re-protection the set stays
    [Degraded] from there and reads [Outage] exactly when no member can
    serve — every member is halted.

    With [config.reprotect] on (two replicas only), the group journals every
    record and a replica death leaves the survivor as a {e recording}
    primary whose group journals alone (after a primary death, a fresh
    group continuing the one journal from the survivor's replay point: the
    prefix it received).  After [regen_delay]
    the failed unit's hardware is recommissioned, a fresh kernel boots on
    it, replays the journal from LSN 0 (accelerated replay models the
    {!Ftsim_kernel.Memlayout}-guided snapshot transfer) while the primary
    keeps serving, and an epoch switch in one non-yielding turn attaches
    the new backup's log to the group at the primary's next LSN — its
    first wire LSN is exactly the journal cutoff, and {!compare_digests}
    plus §3.5 output commit hold exactly as for an original backup.

    [standalone] builds the baseline: the same application on an unmodified
    kernel given the same resources as a single FT-Linux partition. *)

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
      (** [`Asymmetric n]: n-core primary, 1-core secondary (§4.3; two
          replicas only).  [`Symmetric] gives the primary half the machine
          and splits the other half evenly among the backups (their NUMA
          nodes must divide evenly). *)
  replicas : int;
      (** the primary plus [replicas - 1] backups (default 2, the paper's
          pair) *)
  wake_latency : Time.t;
      (** the backup's cost of [wake_up_process()] per thread-waking
          replay record (default 55 µs): the replay bottleneck the paper
          identifies (§4.1) *)
  mailbox_config : Mailbox.config;
  hb_period : Time.t;
  hb_timeout : Time.t;
  output_commit : bool;
      (** §3.5: outbound data segments, and the ACKs of client input, wait
          until what precedes them is stable on a backup *)
  det_shard : bool;
      (** per-object channels for deterministic sections (default true);
          [false] restores the namespace-global total order *)
  replay_workers : int;
      (** replay-executor pool size (default 1: no executor process, the
          serial drain).  Above 1, thread-waking records fan out to
          executors and only the per-channel × per-thread partial order
          serializes replay; most effective with [det_shard = true] *)
  driver_load_time : Time.t;
  batch : Msglayer.batch_config;
      (** sync-tuple streaming batch/ack-coalescing knobs; defaults to
          {!Msglayer.default_batch} (batching on).  Use
          {!Msglayer.unbatched} for the one-frame-per-record baseline. *)
  lagmon : Lagmon.config option;
      (** replication-health monitor sampling the append-vs-ack gap,
          per-channel cursors, replay queue depth and ack RTT (default
          [None]: no monitor).  Sampling is read-only and cannot perturb
          the deterministic replay order; see {!Lagmon}.  With
          re-protection, each epoch gets its own monitor ("lag" at epoch 0,
          "lag.e<n>" after); a monitor replaced by a planned epoch switch
          reports {!Lagmon.verdict} [Retired]. *)
  app_env : (string * string) list;
      (** environment variables replicated into the FT-Namespace at launch *)
  reprotect : bool;
      (** live re-protection (default false; two replicas only): journal
          the record stream and regenerate a fresh backup online after a
          replica death, instead of running unprotected to the end of the
          run *)
  regen_delay : Time.t;
      (** dwell in [Degraded] before regeneration starts (and between
          retries after an aborted regeneration); default 100 ms *)
  regen_layout : Memlayout.t option;
      (** memory classification driving the snapshot budget: User bytes
          are copied at a modelled 2 GB/s (gating the switch deadline),
          Delayed bytes transfer lazily, Ignored kernel state is
          reconstructed by the fresh boot plus journal replay.  [None]
          (default) models a freshly booted layout. *)
}

val default_config : config
(** Paper testbed: 64-core/8-node machine split symmetrically, 0.55 µs
    mailbox, 10 ms heart-beats with 60 ms timeout, output commit on,
    4.95 s driver load, re-protection off. *)

val check_config : config -> (unit, string) result
(** The replica shapes {!create} supports: [Error] for fewer than two
    replicas, for [reprotect] or an [`Asymmetric] split with more than two,
    and for backups whose half of the NUMA nodes does not divide evenly
    among them. *)

type t

val create :
  Engine.t -> ?config:config -> ?link:Link.endpoint -> app:Api.app -> unit -> t
(** Build the machine and start the replicated application.  [link] attaches
    the (single, shared) NIC to the given link endpoint, the server at
    10.0.0.1 with the default TCP configuration; omit it for compute-only
    workloads.  Raises [Invalid_argument] for a shape
    {!check_config} rejects. *)

(** {1 Lifecycle}

    The replica set's state machine, epochs, and typed transition events. *)

val state : t -> lifecycle

val epoch : t -> int
(** 0 until the first completed re-protection; incremented at each epoch
    switch. *)

val failover_count : t -> int
(** Completed (or in-flight) primary takeovers: one per primary death the
    backups detected, however many of them drained and arbitrated. *)

type transition = {
  tr_at : Time.t;
  tr_from : lifecycle;
  tr_to : lifecycle;
  tr_epoch : int;  (** epoch in force once the transition lands *)
}

val transitions : t -> transition list
(** Lifecycle transitions in time order (also emitted on {!Evlog} as
    ["ft.cluster"/"lifecycle"] instants). *)

val on_transition : t -> (transition -> unit) -> unit
(** Subscribe to lifecycle transitions (called synchronously, in
    subscription order, from the transition point — keep it non-blocking). *)

val kill : t -> role:Replica_set.role -> at:Time.t -> unit
(** Schedule a fail-stop core fault on the partition holding [role] {e at
    fire time} (roles move across failovers and epoch switches with
    re-protection).  [Backup] targets the lowest-indexed backup still up. *)

val members : t -> Replica_set.member list
(** The primary, then every backup slot in index order (dead ones included
    until replaced). *)

val all_halted : t -> bool
(** Every member's partition is halted — the outage test chaos judges
    use. *)

val winner : t -> int option
(** The backup slot that won the latest takeover's arbitration. *)

val switch_cutoff : t -> int option
(** Journal length at the last epoch switch — the spliced backup's base
    LSN.  [None] before the first switch. *)

val backup_first_lsn : t -> int option
(** First LSN the current backup consumed off the wire.  After an epoch
    switch the invariant [backup_first_lsn = switch_cutoff] is the
    gapless-handoff check. *)

(** {1 Topology accessors}

    With re-protection, [primary_*] always name the partition currently
    holding the primary role (roles swap at failover); without it they are
    the fixed original assignment.  Backups are indexed [0 ..
    replicas - 2]. *)

val machine : t -> Machine.t
val primary_partition : t -> Partition.t
val primary_kernel : t -> Kernel.t
val primary_namespace : t -> Namespace.t
val backup_partition : t -> int -> Partition.t
val backup_namespace : t -> int -> Namespace.t

val backup_received_lsn : t -> int -> int
(** The backup's contiguous replay watermark ({!Msglayer.received_lsn}). *)

val failover_done : t -> unit Ivar.t
(** Filled when a backup has completed the {e first} takeover. *)

val lagmon : t -> Lagmon.t option
(** The current epoch's replication-health monitor (backup 0's, with more
    than one backup), when [config.lagmon] enabled one. *)

val lagmons : t -> (string * Lagmon.t) list
(** Every monitor in creation order: ["lag"], ["lag.e1"], … for a pair
    (monitors of replaced epochs report {!Lagmon.verdict} [Retired]), one
    per backup (["lag.b0"], ["lag.b1"], …) with more backups. *)

val failover_started_at : t -> Time.t option
val failover_completed_at : t -> Time.t option

val primary_halted_at : t -> Time.t option
(** When the primary partition halted unexpectedly (i.e. not by the
    failover sequence's own IPI); the "failover.detect" trace span and the
    measured recovery time both start here.  Reset at each epoch switch. *)

val shutdown : t -> unit
(** Stop heart-beat timers and health monitors so an idle simulation can
    drain. *)

(** {1 Traffic and replication metrics}

    Summed over every backup's log and cumulative across epochs (each epoch
    switch banks the replaced message layer pair's counters). *)

val traffic_msgs : t -> int
val traffic_bytes : t -> int

val det_ops : t -> int
(** Deterministic sections the serving replica ran: the primary, or once
    its partition has halted, the backup that took over. *)

val records_sent : t -> int

(** {1 Divergence checking}

    Every replica carries a {!Digest} recorder from launch, compared
    against the primary's one backup at a time; pairs replaced by a replica
    death are kept (bounded, on a failover, at the survivor's replay point
    — everything beyond it died unreplicated with the primary) and compared
    alongside the live pairs. *)

val compare_digests : t -> Digest.divergence option
(** [None] means every epoch's digest pair agrees over its comparable
    prefix. *)

val replay_divergence : t -> string option
(** First structural replay divergence any replica (current or replaced)
    observed, if any. *)

(** {1 Baseline} *)

type standalone

val create_standalone :
  Engine.t ->
  ?topology:Topology.spec ->
  ?link:Link.endpoint ->
  app:Api.app ->
  unit ->
  standalone
(** One partition with half the machine's cores, matching one FT-Linux
    partition, running the application directly and, given [link], as
    10.0.0.1 like {!create}. *)

val standalone_kernel : standalone -> Kernel.t
val standalone_namespace : standalone -> Namespace.t
