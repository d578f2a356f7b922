(** TCP/IP packets on the wire. *)

open Ftsim_sim

type addr = { host : string; port : int }

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

val data_flags : flags
(** Plain data segment: ACK set, nothing else. *)

val flag : ?syn:bool -> ?ack:bool -> ?fin:bool -> ?rst:bool -> unit -> flags

type t = {
  src : addr;
  dst : addr;
  seq : int;  (** stream offset of first payload byte *)
  ack_seq : int;  (** cumulative acknowledgement *)
  window : int;  (** advertised receive window *)
  flags : flags;
  payload : Payload.chunk list;
}

val payload_len : t -> int

val mtu : int
(** IP MTU of the simulated links (1500).  Frame-sizing reference for the
    layers above: the replication runtime sizes its coalesced frames in MTU
    units so one flush stays comparable to one network-bound segment. *)

val wire_size : t -> int
(** Payload plus 66 bytes of Ethernet+IP+TCP headers. *)
