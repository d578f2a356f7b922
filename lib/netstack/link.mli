(** Point-to-point Ethernet link with bandwidth and propagation delay.

    Each direction serializes packets at the link rate (transmission time =
    wire size / bandwidth) and delivers them after the propagation delay.
    The link itself never drops or reorders packets; loss happens only at
    unattached endpoints (e.g. a NIC whose driver is not loaded). *)

open Ftsim_sim

type t
type endpoint

val create :
  Engine.t -> bandwidth_bps:int -> latency:Time.t -> ?loss:float -> ?seed_split:Prng.t -> unit -> t
(** E.g. [~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()] for the
    paper's 1 Gb/s client link.  [loss] is an i.i.d. drop probability per
    packet (default 0; draws come from [seed_split] or a fixed-seed
    generator, keeping runs deterministic). *)

val endpoint_a : t -> endpoint
val endpoint_b : t -> endpoint

val transmit : endpoint -> Packet.t -> unit
(** Queue a packet for transmission toward the opposite endpoint.
    Non-blocking: upper layers (TCP windows) bound what is in flight. *)

val set_receiver : endpoint -> (Packet.t -> unit) option -> unit
(** Install the delivery callback.  Packets arriving while no receiver is
    installed are dropped (and counted). *)

val perturb : endpoint -> ?loss:float -> ?delay:Time.t -> unit -> unit
(** Degrade this transmit direction at runtime: add [loss] to the drop
    probability (clamped to 1.0 with the base loss) and [delay] to the
    propagation latency of packets transmitted from now on.  Used by the
    chaos campaigns' perturbation windows; draws still come from the
    endpoint's own PRNG, so runs stay deterministic. *)

val clear_perturbation : endpoint -> unit

val dropped : endpoint -> int
(** Packets dropped at this endpoint for lack of a receiver. *)

val lost : endpoint -> int
(** Packets destined to this endpoint lost to link errors. *)
