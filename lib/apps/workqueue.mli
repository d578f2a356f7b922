(** Bounded FIFO work queue built on the replicated pthread primitives.

    This is the shared queue structure of the paper's workloads (PBZIP2's
    block queues, Mongoose's connection queue): a mutex, two condition
    variables, and a fixed capacity.  Because it uses only
    {!Ftsim_kernel.Pthread} operations, its behaviour is deterministic
    under replication with no further effort — the point of the paper's
    transparency claim. *)

open Ftsim_kernel

type 'a t

val create : Pthread.t -> capacity:int -> 'a t

val push : Pthread.t -> 'a t -> 'a -> unit
(** Blocks while full.  Raises [Invalid_argument] if the queue is closed. *)

val pop : Pthread.t -> 'a t -> 'a option
(** Blocks while empty; [None] once the queue is closed and drained. *)

val close : Pthread.t -> 'a t -> unit
(** No further pushes; poppers drain the remainder then see [None]. *)

