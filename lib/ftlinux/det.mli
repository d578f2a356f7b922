(** Deterministic sections and per-thread syscall-result streams.

    This is the paper's [__det_start]/[__det_end] machinery (§3.3, Fig. 3),
    sharded: instead of one namespace-global mutex and total order, every
    replicated sync object lives on a {e channel} and sections claiming
    disjoint channels run concurrently on the primary.  At [det_end] a
    <Seq_thread, ft_pid, (channel, Seq_channel)…> tuple (optionally
    carrying a logged value) is streamed to the secondary; chan_seqs are
    assigned while every claimed channel is still locked, so each channel's
    sequence order equals its append order.  On the secondary, [det_start]
    blocks until the calling thread's next logged tuple is at the head of
    its per-thread queue {e and} every channel the tuple claims has reached
    the tuple's chan_seq — reproducing the primary's per-channel and
    per-thread orders (a partial order that preserves parallelism), while
    system-call results replay in per-thread FIFO order.  With sharding off
    ([shard = false], or the [chan_alloc] hook unsharded) every section
    rides channel 0 and the scheme collapses to the old total order.

    Reserved channels: {!chan_misc} (0) carries thread spawns and other
    namespace-global sections; {!chan_fs} (1) carries file-system sections;
    the pthread hooks' [chan_alloc] issues ids from 2 for pthread objects.

    After a failover the engine is switched {e live}: replay gates open,
    remaining in-flight operations execute directly, and the channel
    mutexes degrade to plain mutual exclusion. *)

open Ftsim_sim

type role = Primary_role | Secondary_role

type t

val create_primary : ?shard:bool -> Engine.t -> Msglayer.group -> t
(** [shard] defaults to [true]; [false] restores the namespace-global total
    order (every section claims channel 0). *)

val create_secondary : ?shard:bool -> Engine.t -> t

val role : t -> role

(** {1 Channels} *)

val chan_misc : int
val chan_fs : int

(** {1 Thread identity} *)

val alloc_ftpid : t -> int
(** Primary only: next replicated-thread id. *)

val register_thread : t -> ft_pid:int -> unit
(** Bind the calling simulation process to a replicated-thread context.
    Must be the first thing a replicated thread does. *)

val unregister_thread : t -> unit

(** {1 Deterministic sections} *)

val det_start : t -> chans:int list -> unit
(** Begin a section claiming [chans] (deduped and sorted internally; locks
    are taken in ascending order, so multi-channel sections cannot
    deadlock). *)

val det_end : t -> unit

val gate_guard : t -> ft_pid:int -> unit -> bool
(** Secondary: the replay gate's guard for thread [ft_pid], which must have
    had a tuple delivered or be registered — the condition {!det_start}
    parks on, true once the engine is live or the thread's next tuple is
    admissible.  Every broadcast evaluates it once per parked thread, so
    it allocates nothing. *)

val set_payload : t -> Wire.det_payload -> unit
(** Primary, inside a section: attach a logged value to this section's
    tuple. *)

val payload_at_turn : t -> Wire.det_payload
(** Secondary, inside a section (at this thread's turn): the logged value. *)

val pthread_hooks : t -> Ftsim_kernel.Pthread.hooks

(** {1 Divergence digests}

    Opt-in taps for the chaos divergence checker (see {!Digest}).  When no
    recorder is attached every fold is a no-op. *)

val attach_digest : t -> Digest.t -> unit
(** Attach a recorder.  Must happen before the application starts issuing
    operations, or the two replicas' digests fold different prefixes. *)

val digest : t -> Digest.t option

val fold_section : t -> int -> unit
(** Mix a value into the current section's first claimed channel's digest;
    call only between [det_start] and [det_end] (the value is then totally
    ordered across replicas within that channel's stream). *)

val fold_syscall : t -> int -> unit
(** Mix a value into the calling thread's per-thread digest (per-thread
    FIFO syscall points).  No-op if the thread is unregistered. *)

val mutate_skip_digest : t -> global_seq:int -> unit
(** Testing only: make the secondary skip the digest fold for its
    [global_seq]-th replayed section while still replaying it — a seeded
    divergence the checker must flag at the next boundary. *)

(** {1 Secondary record delivery} *)

val deliver_tuple :
  t ->
  ft_pid:int ->
  thread_seq:int ->
  chans:(int * int) list ->
  payload:Wire.det_payload ->
  unit

val deliver_syscall : t -> ft_pid:int -> result:Wire.syscall_result -> unit

val chan_progress : t -> (int * int) list
(** Secondary: cumulative [(channel, consumed)] replay cursors for channels
    that advanced since the last call, ascending; the dirty marks are
    cleared, so each call reports only fresh progress (piggybacked on
    acks). *)

val chan_progress_restore : t -> (int * int) list -> unit
(** Re-mark channels drained by a {!chan_progress} call whose ack could not
    be sent (full ring), so their cursors ride the next ack rather than
    stalling until an unrelated consume.  Idempotent: cursors are
    cumulative. *)

val chan_cursors : t -> (int * int * int) list
(** Every channel's [(channel, emitted, consumed)] cursors, ascending by
    channel id.  A pure read (dirty marks untouched, safe from raw timer
    context): {!Lagmon} samples the primary's [emitted] against the
    per-channel cursors acks report to measure per-channel lag. *)

(** {1 Per-thread syscall streams} *)

val log_syscall : t -> Wire.syscall_result -> unit
(** Primary: append the calling thread's next syscall result. *)

type replayed = Replayed of Wire.syscall_result | Went_live

val next_syscall : t -> replayed
(** Secondary: the calling thread's next logged syscall result; blocks until
    it arrives or the namespace goes live. *)

(** {1 Failover} *)

val go_live : t -> unit
(** Open every replay gate: threads waiting for tuples or syscall results
    resume in live mode. *)

val is_live : t -> bool

val promote : t -> Msglayer.group -> unit
(** Promote a surviving secondary into the next epoch's recording primary:
    open the replay gates (like {!go_live}), flip the role, and continue
    every per-channel emission cursor and the thread-id allocator exactly
    where replay stopped — the record stream a regenerated backup replays
    is one gapless per-channel continuation of the old epoch.  Unlike
    {!go_live} the digest is {e not} sealed: post-promotion sections are
    recorded and stay comparable against the new backup; bound comparisons
    against the {e dead} primary with {!Digest.capture} instead.  Callers
    must re-install {!pthread_hooks} afterwards (the hooks record
    snapshots its role flags at creation). *)

val replay_idle : t -> bool
(** Secondary: no undelivered tuples pending and every syscall stream is
    empty — i.e. replay has consumed everything delivered so far. *)

(** {1 Introspection} *)

val det_ops : t -> int
(** Total deterministic sections completed. *)
