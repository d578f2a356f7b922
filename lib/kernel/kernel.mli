(** A kernel instance booted on one hardware partition.

    FT-Linux boots one Linux kernel per partition (inherited from Popcorn
    Linux).  A [Kernel.t] bundles the partition's CPU pool, a futex
    namespace, a clock, and the cost model for kernel-path operations. *)

open Ftsim_sim
open Ftsim_hw

type config = {
  quantum : Time.t;  (** scheduler time slice for CPU sharing *)
  wake_latency : Time.t;
      (** cost of [wake_up_process()] when the target may sit on an idle
          core.  The paper identifies this as the secondary's replay
          bottleneck (§4.1). *)
  pthread_op_cost : Time.t;  (** uncontended pthread operation *)
  syscall_cost : Time.t;  (** base syscall entry/exit *)
  boot_epoch : Time.t;  (** offset added to the simulated clock by
                            [gettimeofday], so wall-clock values are
                            non-zero at boot *)
}

val default_config : config

type t

val boot : Partition.t -> ?config:config -> unit -> t
(** Boot a kernel on the partition, taking all its cores. *)

val partition : t -> Partition.t
val engine : t -> Engine.t
val cpu : t -> Cpu.t
val futexes : t -> Futex.table
val config : t -> config
val name : t -> string

val spawn_thread : t -> ?name:string -> (unit -> unit) -> Engine.proc
(** A kernel-scheduled thread; dies with the partition. *)

val compute : t -> Time.t -> unit
(** Execute [d] of CPU-bound work on the calling thread, contending for the
    kernel's cores. *)

val small_op : t -> Time.t -> unit
(** Account for a short kernel-path operation (pthread op, syscall entry).
    Modelled as elapsed time without core contention: in reality the calling
    thread already holds its core; see DESIGN.md. *)

val gettimeofday : t -> Time.t
(** Wall-clock time: the engine clock plus the configured boot epoch.  A
    replaying secondary replays the primary's logged value instead. *)
