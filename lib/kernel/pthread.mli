(** POSIX-threads synchronization over FIFO futexes, with deterministic
    interposition points.

    This mirrors the paper's LD_PRELOAD-able pthread re-implementation
    (§3.3): every synchronization operation brackets its {e ordering
    decision} with [det_start]/[det_end] hooks.  With no hooks installed the
    operations behave like plain glibc primitives; the replication runtime
    installs hooks that serialize operations per sync-object {e channel}
    (or, unsharded, under one namespace-global channel) and stream (or
    replay) the observed order.  Each object draws a channel id from
    [chan_alloc] at creation; an operation's section claims the channels of
    every object it touches, so operations on distinct objects can commute
    while operations on the same object stay totally ordered.

    Two properties make replay deterministic:

    - each operation's queue position (for blocking calls) is taken
      {e inside} its deterministic section, using {!Futex.prepare_wait};
    - futex queues are FIFO, so a deterministic arrival and release order
      yields a deterministic ownership order ("hand-off" transfers). *)

open Ftsim_sim

(** Hooks installed by a replication runtime. *)
type hooks = {
  is_replica : bool;
      (** true on the secondary, which replays logged outcomes instead of
          racing its own timers *)
  chan_alloc : unit -> int;
      (** channel id for a newly created sync object; an unsharded runtime
          returns 0 for every object, collapsing to the old global order *)
  det_start : chans:int list -> unit;
      (** begin a deterministic section claiming [chans] (ascending, deduped;
          at most two — condvar waits): on the primary, lock those channels;
          on the secondary, additionally wait until this thread's logged
          tuple is next on every channel it claims *)
  det_end : unit -> unit;
      (** end the section: on the primary, stream the sync tuple and release;
          on the secondary, advance the replay cursors and release *)
  defer_wakes : bool;
      (** when true (primary, sharded) wake-up {e resumes} issued inside a
          section are parked via {!Futex.defer_begin} and run only after
          [det_end] has appended the section's tuple, keeping every log
          prefix causally closed *)
  record_timed_outcome : timed_out:bool -> unit;
      (** primary only: log the outcome of a timed wait as a
          non-deterministic event (called inside its own det section) *)
  replay_timed_outcome : unit -> bool option;
      (** secondary only: the logged outcome of this thread's timed wait
          (called inside the matching det section); [None] means the
          namespace went live mid-wait and the local timer decides *)
}

type t
(** A pthread library instance bound to one kernel. *)

val create : Kernel.t -> t

val set_hooks : t -> hooks option -> unit

(** {1 Mutexes} *)

type mutex

val mutex_create : t -> mutex
val mutex_lock : t -> mutex -> unit
val mutex_trylock : t -> mutex -> bool
val mutex_unlock : t -> mutex -> unit
val mutex_locked : t -> mutex -> bool

(** {1 Condition variables} *)

type cond

val cond_create : t -> cond

val cond_wait : t -> cond -> mutex -> unit
(** Atomically enqueue on the condition and release the mutex; re-acquire
    the mutex after wake-up. *)

val cond_timedwait :
  t -> cond -> mutex -> deadline:Time.t -> [ `Signaled | `Timeout ]
(** Timed variant.  The outcome is itself a logged non-deterministic event,
    so both replicas resolve a signal-versus-timeout race identically. *)

val cond_signal : t -> cond -> unit
val cond_broadcast : t -> cond -> unit

(** {1 Read-write locks}

    Writer-preferring: a blocked writer takes priority over newly arriving
    readers, avoiding writer starvation.  All admission decisions happen
    inside deterministic sections. *)

type rwlock

val rwlock_create : t -> rwlock
val rwlock_rdlock : t -> rwlock -> unit
val rwlock_tryrdlock : t -> rwlock -> bool
val rwlock_wrlock : t -> rwlock -> unit
val rwlock_trywrlock : t -> rwlock -> bool
val rwlock_unlock : t -> rwlock -> unit

(** {1 Barriers}

    [barrier_wait] returns [`Serial] for exactly one of the [count] threads
    per generation (the POSIX [PTHREAD_BARRIER_SERIAL_THREAD] convention);
    under replication the serial thread is the same on both replicas. *)

type barrier

val barrier_create : t -> count:int -> barrier
val barrier_wait : t -> barrier -> [ `Serial | `Normal ]

(** {1 Counting semaphores (POSIX sem_t)} *)

type sem

val sem_create : t -> int -> sem
val sem_wait : t -> sem -> unit
val sem_trywait : t -> sem -> bool
val sem_post : t -> sem -> unit
val sem_value : t -> sem -> int

(** {1 Introspection} *)

