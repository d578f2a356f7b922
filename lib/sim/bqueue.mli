(** Blocking FIFO queues with optional capacity bound.

    The inter-replica mailbox and every producer/consumer structure in the
    workloads are built on these.  A bounded queue makes producers block when
    the consumer falls behind — the mechanism behind the paper's
    burst-versus-sustained throughput distinction.  Items sit in a
    {!Ring}, so a {!put} and a {!get} that do not block allocate nothing
    beyond the ring's growth. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Unbounded unless [capacity] is given (must be positive). *)

val put : 'a t -> 'a -> unit
(** Enqueue; blocks while the queue is full. *)

val get : 'a t -> 'a
(** Dequeue; blocks while the queue is empty. *)

val try_get : 'a t -> 'a option

val get_timeout : 'a t -> deadline:Time.t -> 'a option
(** Dequeue, giving up (returning [None]) at [deadline]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
