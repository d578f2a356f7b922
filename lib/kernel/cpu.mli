(** CPU time as a k-server resource.

    A partition's cores form a pool; a thread doing [consume d] occupies one
    core for [d] of simulated time.  Demand beyond the core count queues
    FIFO, and long computations are sliced into scheduler quanta so
    contending threads share cores fairly — enough fidelity for the paper's
    throughput experiments without instruction-level simulation. *)

open Ftsim_sim

type t

val create : Engine.t -> cores:int -> ?quantum:Time.t -> unit -> t
(** Default quantum: 1 ms. *)

val consume : t -> Time.t -> unit
(** Occupy a core for a total of the given CPU time (sliced by quantum).
    Must be called from a simulation process. *)

val utilization : t -> elapsed:Time.t -> float
(** [busy_ns / (cores * elapsed)]. *)

