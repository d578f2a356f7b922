(** FIFO queues of parked processes.

    The building block for every blocking structure in the simulator.  An
    entry can be cancelled (e.g. by a timed wait that expired), in which case
    wake operations skip it without consuming the wake.  Entries are linked
    intrusively: an entry is its own list cell, so queueing one allocates
    nothing, and an entry woken out of its queue can be queued again. *)

type t
type entry

val create : unit -> t

val add : t -> (unit -> unit) -> entry
(** [add q waker] appends a waiter.  [waker] will be invoked at most once,
    by [wake_one]/[wake_all]. *)

val entry : (unit -> unit) -> entry
(** An entry with its waker, in no queue. *)

val push : t -> entry -> unit
(** [push q e] appends [e], which must be in no queue: new from {!entry},
    or already woken out of its last one.  [add q waker] is
    [push q (entry waker)].
    @raise Invalid_argument if [e] is still queued: waiting, or cancelled
    and not yet dropped by a wake. *)

val cancel : entry -> unit
(** Remove the entry from consideration.  Idempotent; a no-op if the entry
    was already woken. *)

val wake_one : t -> bool
(** Wake the oldest live waiter.  Returns [false] if none. *)

val wake_all : t -> int
(** Wake every live waiter, in FIFO order; returns how many. *)

val length : t -> int
(** Number of live (non-cancelled, non-woken) waiters. *)

val is_empty : t -> bool
