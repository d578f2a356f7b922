(** Shared-memory inter-partition messaging ("mail box" area).

    Replicas communicate through a bounded ring in shared memory.  The model
    captures the three properties the evaluation depends on:

    - {b propagation delay}: a message becomes visible to the receiver a
      fixed delay after the send (default 0.55 µs, the core-to-core figure
      from Guerraoui et al. cited by the paper);
    - {b bounded capacity}: when the receiver falls behind, the ring fills
      and senders block — this produces the paper's burst-versus-sustained
      throughput split;
    - {b post-crash delivery}: messages already sent remain deliverable
      after the sender's partition halts (cache coherency keeps working
      across a partition failure, §3.5), unless the fault was configured to
      disrupt coherency. *)

open Ftsim_sim

type config = {
  propagation_delay : Time.t;
  capacity : int;  (** ring slots *)
}

val default_config : config
(** 0.55 µs propagation, 4096 slots. *)

type 'a chan
(** Unidirectional channel carrying values of type ['a]. *)

val create :
  Engine.t -> ?config:config -> src:Partition.t -> dst:Partition.t -> unit -> 'a chan

val send : 'a chan -> bytes:int -> 'a -> unit
(** Blocking send; [bytes] is the modelled wire size (for traffic metrics).
    Raises [Partition.Halted] if the source partition is down. *)

val try_send : 'a chan -> bytes:int -> 'a -> bool
(** Non-blocking send; [false] when the ring is full. *)

val recv : 'a chan -> 'a
(** Blocking receive. *)

val recv_timeout : 'a chan -> deadline:Time.t -> 'a option

val poll : 'a chan -> 'a option
(** Non-blocking receive. *)

val in_flight : 'a chan -> int
(** Messages sent and not yet received (visible or still propagating). *)

val src_halted : 'a chan -> bool

val drop_in_flight : 'a chan -> int
(** Discard undelivered messages, modelling a fault that disrupts cache
    coherency; returns how many were lost.  Messages still inside the
    propagation window are dropped too: their delivery timers are
    cancelled, so nothing sent before the fault surfaces afterwards. *)

(** {1 Traffic metrics} *)

val msgs_sent : 'a chan -> int
val bytes_sent : 'a chan -> int

(** {1 Duplex convenience} *)

type 'a duplex = { a_to_b : 'a chan; b_to_a : 'a chan }

val duplex :
  Engine.t -> ?config:config -> a:Partition.t -> b:Partition.t -> unit -> 'a duplex
