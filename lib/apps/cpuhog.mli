(** A non-replicated CPU-intensive application (paper §4.3): occupies the
    given number of threads with continuous computation, contending with a
    replicated application sharing the kernel's cores. *)

open Ftsim_kernel

type t

val start : Kernel.t -> threads:int -> t
(** Spawn [threads] kernel threads that compute in 1 ms slices forever
    (until {!stop} or partition halt). *)

val stop : t -> unit
