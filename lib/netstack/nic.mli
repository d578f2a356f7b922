(** Network interface card with driver-ownership semantics.

    The NIC is shared hardware: exactly one partition owns it at a time (the
    paper's single-point-of-failure caveat, §6).  When the owner halts, the
    device stops delivering packets until another partition loads the driver
    — which dominates the paper's ≈5 s failover time (99 % per their
    breakdown, §4.4). *)

open Ftsim_sim
open Ftsim_hw

type t

val create : Engine.t -> ?driver_load_time:Time.t -> Link.endpoint -> t

val attach : t -> ?owner:Partition.t -> rx:(Packet.t -> unit) -> unit -> unit
(** Instant binding at boot time (driver load folded into machine boot).
    If [owner] is given, the NIC detaches automatically when it halts. *)

val transfer : t -> owner:Partition.t -> rx:(Packet.t -> unit) -> unit
(** Take over the device from a (typically dead) previous owner: blocks the
    calling process for the driver load time, then binds.  Packets arriving
    meanwhile are dropped. *)

val detach : t -> unit

val transmit : t -> Packet.t -> unit
(** Hand a packet to the device for transmission.  Dropped if the driver is
    down. *)
