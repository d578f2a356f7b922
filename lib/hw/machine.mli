(** A whole machine: topology + partitions + fault plumbing.

    [Machine.t] owns the partition table and routes injected faults: the
    victim partition is halted and, for MCA-detectable faults, surviving
    partitions' machine-check subscribers are notified. *)

open Ftsim_sim

type t

val create : Engine.t -> Topology.spec -> t

val engine : t -> Engine.t
val spec : t -> Topology.spec

val add_partition :
  t -> name:string -> cores:int -> ram_bytes:int -> numa_nodes:int list -> Partition.t
(** Carve a partition out of the remaining inventory.  Raises
    [Invalid_argument] if the requested cores/RAM/nodes are not available. *)

val split_symmetric : t -> (Partition.t * Partition.t)
(** The paper's default configuration: two symmetric partitions each holding
    half the cores, half the NUMA nodes and half the RAM. *)

val split_asymmetric : t -> primary_cores:int -> (Partition.t * Partition.t)
(** §4.3's configuration: a large primary partition and a secondary holding
    the remaining cores (e.g. 32 + 1 on a 33-core budget). *)

val recommission : t -> Partition.t -> name:string -> Partition.t
(** Power-cycle a halted partition's hardware: release its cores, RAM and
    NUMA nodes back to the inventory and carve a same-sized replacement
    under a fresh id (modelling firmware fencing the failed unit and
    bringing the spare back).  Raises [Invalid_argument] if the partition
    is still live or not part of this machine. *)

val free_cores : t -> int

val on_machine_check : t -> (Fault.event -> unit) -> unit
(** Subscribe to hardware error reports (MCA/AER).  Subscribers on the
    failed partition never observe the event — their stack is gone. *)

val inject : t -> Fault.t -> unit
(** Schedule a fault.  At [fault.at]: the victim partition halts; MCA-class
    faults notify subscribers; coherency-disrupting faults additionally
    invoke the drop hooks registered with {!on_coherency_loss}. *)

val apply : t -> Fault.t -> unit
(** Apply a fault right now, ignoring [fault.at].  For dynamically-resolved
    targets: a chaos schedule that aims at "the current primary" cannot
    know the partition id up front (re-protection recommissions partitions
    under fresh ids), so it schedules its own timer and resolves the
    victim at fire time.  Unknown or already-halted partitions are
    ignored. *)

val inject_all : t -> Fault.t list -> unit

val on_coherency_loss : t -> partition_id:int -> (unit -> int) -> unit
(** Register a hook invoked when a coherency-disrupting fault hits the given
    partition (mailbox owners use this to drop in-flight messages); it
    returns how many messages were actually lost.  Disrupting a partition
    whose rings are empty is a complete no-op — callers need not check. *)

val fault_log : t -> Fault.event list
(** Events so far, oldest first. *)
