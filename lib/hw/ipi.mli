(** Inter-processor interrupts.

    FT-Linux uses an IPI to forcibly halt a replica that has been declared
    failed, preventing a merely-slow replica from acting as a rogue primary
    (§3.6).  The model delivers the halt after a fixed 1 µs latency. *)

open Ftsim_sim

val send_halt : Engine.t -> Partition.t -> unit
(** Deliver a halting IPI to every core of the target partition, 1 µs from
    now.  A no-op if the target has already halted by delivery time. *)
