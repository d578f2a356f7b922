(** Unbounded blocking FIFO queues.

    The inter-replica mailbox's inbox, the stack's receive and accept
    queues, the det engine's syscall queue and the replay executors' queues
    are built on these.  Nothing bounds a queue: a producer that must wait
    for its consumer throttles elsewhere (the mailbox on its ring-slot
    semaphore).  Items sit in a {!Ring}, so a {!put} and a {!get} that do
    not block allocate nothing beyond the ring's growth. *)

type 'a t

val create : unit -> 'a t

val put : 'a t -> 'a -> unit
(** Enqueue; never blocks. *)

val get : 'a t -> 'a
(** Dequeue; blocks while the queue is empty. *)

val try_get : 'a t -> 'a option

val get_timeout : 'a t -> deadline:Time.t -> 'a option
(** Dequeue, giving up (returning [None]) at [deadline]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
