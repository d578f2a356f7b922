(** FIFO queues of parked processes.

    The building block for every blocking structure in the simulator.  An
    entry can be cancelled (e.g. by a timed wait that expired), in which case
    wake operations skip it without consuming the wake. *)

type t
type entry

val create : unit -> t

val add : t -> (unit -> unit) -> entry
(** [add q waker] appends a waiter.  [waker] will be invoked at most once,
    by [wake_one]/[wake_all]. *)

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
