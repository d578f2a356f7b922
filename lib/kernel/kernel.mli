(** A kernel instance booted on one hardware partition.

    FT-Linux boots one Linux kernel per partition (inherited from Popcorn
    Linux).  A [Kernel.t] bundles the partition's CPU pool (1 ms scheduler
    quantum), a futex namespace, a clock, and the cost of an uncontended
    pthread operation. *)

open Ftsim_sim
open Ftsim_hw

type t

val boot : Partition.t -> unit -> t
(** Boot a kernel on the partition, taking all its cores. *)

val partition : t -> Partition.t
val engine : t -> Engine.t
val cpu : t -> Cpu.t
val futexes : t -> Futex.table
val name : t -> string

val spawn_thread : t -> ?name:string -> (unit -> unit) -> Engine.proc
(** A kernel-scheduled thread; dies with the partition. *)

val compute : t -> Time.t -> unit
(** Execute [d] of CPU-bound work on the calling thread, contending for the
    kernel's cores. *)

val pthread_op : t -> unit
(** Account for an uncontended pthread operation, 200 ns.  Modelled as
    elapsed time without core contention: in reality the calling thread
    already holds its core; see DESIGN.md. *)

val gettimeofday : t -> Time.t
(** Wall-clock time: the engine clock plus a boot epoch of 10{^6} s.  A
    replaying secondary replays the primary's logged value instead. *)
