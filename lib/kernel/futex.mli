(** FIFO futexes.

    The kernel's low-level sleep/wake primitive over integer words.  FT-Linux
    modified the Linux futex queues to be strictly FIFO "so that the order of
    possessing a futex will lead to a deterministic order of releasing it"
    (§3.3); this implementation is FIFO by construction. *)

open Ftsim_sim

type table
(** One futex namespace; each kernel instance owns one. *)

type addr = int

val create_table : ?eng:Engine.t -> unit -> table
(** [?eng] attaches the engine whose {!Evlog} receives ["kernel.futex"]
    wake events (detail-gated); omit it only in engine-less unit tests. *)

val alloc : table -> addr
(** Fresh futex word, initialized to 0. *)

val get : table -> addr -> int
val set : table -> addr -> int -> unit

val wait : table -> addr -> expected:int -> [ `Woken | `Value_mismatch ]
(** If the word still holds [expected], sleep until woken (FIFO); otherwise
    return [`Value_mismatch] immediately. *)

val wake : table -> addr -> count:int -> int
(** Wake up to [count] waiters in FIFO order; returns the number woken. *)

val waiters : table -> addr -> int

(** {1 Two-phase waiting}

    Deterministic replication needs the FIFO *enqueue* position of a waiter
    fixed inside a deterministic section, while the sleep itself happens
    outside it.  [prepare_wait] takes the queue slot; [commit_wait] sleeps
    until a wake reaches that slot. *)

type waiter

val prepare_wait : table -> addr -> waiter
(** Enqueue at the tail of the futex queue, without sleeping. *)

val commit_wait : waiter -> unit
(** Sleep until the slot is woken (returns immediately if it already was). *)

val commit_wait_deadline : waiter -> deadline:Time.t -> [ `Woken | `Timeout ]
(** Like {!commit_wait} with a deadline.  On timeout the slot is cancelled
    atomically at the deadline instant, so a later wake skips it. *)

val cancel_wait : waiter -> unit
(** Withdraw a pending slot.  No-op if already woken or cancelled. *)

val waiter_woken : waiter -> bool

(** {1 Deferred wake-up delivery}

    While the calling process holds a defer window open, the {e resumes} of
    waiters it wakes are buffered and run at [defer_flush]; the wakes
    themselves (FIFO dequeue, woken state, {!wake}'s count) stay
    synchronous.  The sharded deterministic-section core opens a window for
    the body of each primary-side section so that no thread woken inside it
    can run — and append its own sync tuples — before the waking section's
    tuple is on the replication log: every log prefix stays causally
    closed.  Windows are per-process; wakes from other processes (and from
    timer context) are never deferred.

    Secondary replicas never open windows — deferral is a primary-side,
    log-append concern — so under parallel replay a wake performed by one
    replay executor for a waiter whose waking record ran on a different
    executor always passes straight through.  Replay-side wake ordering is
    enforced by {!Det}'s per-channel admission gate alone. *)

val defer_begin : table -> unit
(** Open (or reset) the calling process's defer window. *)

val defer_flush : table -> unit
(** Close the calling process's window and run the buffered resumes, in
    wake order.  No-op without an open window. *)
