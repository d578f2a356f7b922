(** The replication log: an LSN-stamped FIFO of {!Wire.record}s from primary
    to secondary over the shared-memory mailbox, with cumulative
    acknowledgements flowing back, and the recording group that fans one
    record stream out to every backup's log.

    Three behaviours of the evaluation live here:

    - {b backpressure}: {!group_append} blocks when a member's mailbox ring
      is full, so a primary that outruns the secondary's replay slows to
      its pace — the paper's sustained-throughput ceiling;
    - {b replay delivery cost}: the secondary charges a
      [wake_up_process]-style latency per record delivered, serializing
      replay — the paper's identified bottleneck (§4.1);
    - {b stability}: {!group_wait_stable} blocks until a secondary
      acknowledged a given LSN — the primitive underneath output commit
      (§3.5).

    A recording primary writes to a {!group}, never to a log directly: the
    group assigns every LSN, journals each record at assignment, and is
    stable once any live member acknowledged.  A log's primary end is born
    a member of its group ({!create_member}). *)

open Ftsim_sim
open Ftsim_hw

type primary
type secondary

(** {1 Batching}

    The hot path streams one record per deterministic-section boundary;
    batching coalesces records staged within a window — bounded by count,
    bytes, and simulated time — into one {!Wire.Batch} frame, and the
    secondary's cumulative acks get TCP-style delayed-ack coalescing.
    [unbatched] reproduces the original one-frame-per-record behaviour. *)

type batch_config = {
  batch_records : int;
      (** flush after this many staged records; [<= 1] disables batching *)
  batch_bytes : int;  (** flush when the staged frame would reach this size *)
  batch_window : Time.t;
      (** flush at latest this long after the oldest staged record *)
  ack_every : int;  (** secondary: ack after this many replayed records *)
  ack_delay : Time.t;
      (** secondary: on queue idle, delay the ack this long so acks for
          back-to-back frames coalesce; [0] acks immediately *)
}

val unbatched : batch_config
val default_batch : batch_config
(** 16 records / 4×MTU bytes / 20 µs window; acks every 32 records or
    after a 10 µs delayed-ack timer. *)

val spawn_primary_rx : primary -> (string -> (unit -> unit) -> Engine.proc) -> unit
(** Start the ack/heartbeat receive loop — and, when batching is on, the
    window flusher — with a partition-bound spawner, so both die with
    their partition (staged-but-unsent records die with the primary). *)

val last_lsn : primary -> int
(** Highest assigned LSN, staged records included. *)

val acked : primary -> int

val chan_acked : primary -> chan:int -> int
(** Cumulative replay cursor the secondary last reported for a channel
    (sections consumed); 0 if it never reported.  Observability only — the
    output-commit rule uses {!acked}. *)

val last_rtt : primary -> Time.t option
(** Append-to-ack round-trip of the most recently resolved probe: one
    probe is armed on the highest LSN of an outgoing frame and resolved by
    the first ack covering it (also recorded in the ["lag.rtt_ns"] registry
    histogram).  [None] until the first ack.  Observability only. *)

val disable : primary -> unit
(** Secondary declared dead: appends become no-ops, every waiter on the
    group's stability queue is released to re-check, and the group skips
    this member from here on. *)

val is_disabled : primary -> bool

val send_heartbeat_p : primary -> seq:int -> unit

val last_peer_activity_p : primary -> Time.t

(** {1 The recording group}

    What the deterministic-section engine and the namespace's TCP hooks
    record into: one record stream, fanned out to every member log.  The
    group assigns every LSN itself and hands each record to an optional
    journal at assignment, so the journal's index is the LSN.  A record is
    stable once any live member acknowledged it.  Membership changes in
    place: a backup death {!disable}s its log, and with no live member the
    group journals alone and every record is stable at once — a degraded
    primary's outputs release unprotected. *)

type group

val create_group : ?journal:(Wire.record -> unit) -> ?base_lsn:int -> unit -> group
(** An empty group whose first LSN is [base_lsn] (default 0).  [journal]
    (default: none) is invoked per record at LSN assignment, before any
    member's send can block — live re-protection spools the authoritative
    timeline there. *)

val create_member :
  ?batch:batch_config ->
  Engine.t ->
  group ->
  out:Wire.message Mailbox.chan ->
  inb:Wire.message Mailbox.chan ->
  primary
(** A log's primary end, born a member of the group: its first LSN is the
    group's next ({!group_last_lsn} + 1) and it waits on the group's
    stability queue; the group drops its disabled members.  [batch]
    defaults to {!unbatched}; {!Cluster.default_config} turns
    {!default_batch} on. *)

val group_append : group -> Wire.record -> int
(** Assign the next LSN, journal the record and append it to every live
    member; returns the LSN.  Unbatched, a member sends the record at once,
    blocking while its mailbox ring is full (the backpressure throttle);
    batched, it stages the record and the frame goes out when the
    count/byte threshold trips, the window expires, or a stability wait
    forces it. *)

val group_last_lsn : group -> int
(** Highest LSN the group assigned. *)

val group_wait_stable : group -> lsn:int -> unit
(** Flush every member's staged records covering [lsn] first —
    flush-on-output-commit: a commit never waits on an ack for a record
    that has not been sent — then block until a live member acknowledged
    [lsn]; returns at once when no member is live. *)

(** {1 Secondary side} *)

val create_secondary :
  ?batch:batch_config ->
  ?chan_progress:(unit -> (int * int) list) ->
  ?chan_restore:((int * int) list -> unit) ->
  ?base_lsn:int ->
  ?workers:int ->
  Engine.t ->
  inb:Wire.message Mailbox.chan ->
  out:Wire.message Mailbox.chan ->
  replay_cost:Time.t ->
  delta_cost:Time.t ->
  handler:(Wire.record -> unit) ->
  secondary
(** [replay_cost] is charged per thread-waking record (sync tuples, syscall
    results); [delta_cost] per TCP delta.  [batch] (default {!unbatched})
    supplies the ack-coalescing knobs.  [chan_progress] (default: none) is
    drained at each ack to piggyback cumulative per-channel replay cursors
    (see {!Det.chan_progress}); [chan_restore] (default: none) puts drained
    cursors back when the ack could not be sent on a full ring (see
    {!Det.chan_progress_restore}).

    [workers] (default 1) sizes the replay-executor pool.  The receive
    loop takes records off the mailbox in LSN order and replays each one
    inline or hands it to executor [ft_pid mod workers].  A TCP delta
    always replays inline, and [workers = 1] is the pool with no executor
    process, so there every record does: the paper's serial drain, whose
    ring stays full while a record replays.  Above 1, each replicated
    thread's deliveries stay FIFO on its executor and the per-channel
    admission gate in {!Det} supplies all remaining serialization.

    [base_lsn] (default 0) offsets the replay watermark: a backup spliced
    in at an epoch switch starts acking from the switch cutoff instead of
    LSN 0. *)

val spawn_secondary_rx : secondary -> (string -> (unit -> unit) -> Engine.proc) -> unit
(** Start the receive loop and any executor processes.  Each record is
    charged [replay_cost] ([delta_cost] for a TCP delta) and handed to the
    handler.  One ack rule serves every pool size: completed records are
    counted, and a frame's end answers its [ack_now] request (covering
    every record received so far) once {!received_lsn} reaches it, or
    otherwise acks once [ack_every] records completed.  An executor
    completion outside a frame does the same, and idle-acks when the pool
    drains.  When the mailbox runs dry with nothing in flight, the loop
    idle-acks — at once, or after [ack_delay] so acks coalesce — and
    restarts the count. *)

val received_lsn : secondary -> int
(** Gapless replay watermark: every LSN [<= received_lsn] is replayed
    (executor completions above a gap count once it closes). *)

val first_lsn : secondary -> int option
(** The first LSN this secondary ever received off the wire, or [None]
    when nothing arrived yet.  The epoch-switch invariant check: a
    regenerated backup's first consumed LSN must equal the switch cutoff —
    no gap, no overlap. *)

val queue_depth : secondary -> int
(** Replay backlog right now: frames waiting in the mailbox plus records
    dispatched to executors but not yet completed.  A pure read (safe from
    raw timer context) — {!Lagmon} samples it. *)

val send_heartbeat_s : secondary -> seq:int -> unit

val last_peer_activity_s : secondary -> Time.t

val drained : secondary -> bool
(** True when the (halted) primary can send nothing more and everything
    already sent has been handled — including records still queued on (or
    running in) replay executors. *)

(** {1 Traffic metrics (both mailbox directions)} *)

val p_records : primary -> int

val traffic_msgs : primary -> secondary -> int
val traffic_bytes : primary -> secondary -> int
