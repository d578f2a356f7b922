(** Multi-instance Paxos over the shared-memory mailbox layer.

    The paper's path to more than two replicas (§6): "replica
    synchronization could be achieved ... by overlaying a consensus
    protocol over the inter-replica messaging layer", citing David et
    al.'s shared-memory Paxos.  This module implements classic
    single-decree Paxos (Prepare/Promise, Accept/Accepted, Learn), one
    independent instance per log slot, with every partition hosting a
    combined proposer–acceptor–learner node connected to its peers by
    {!Ftsim_hw.Mailbox} channels.

    Liveness uses ballot escalation with randomized (deterministically
    seeded) backoff; safety is the usual Paxos invariant — a value chosen
    by one node is chosen by all, even across proposer crashes, because
    any later majority overlaps the choosing majority. *)

open Ftsim_sim
open Ftsim_hw

type 'v t

val create :
  Engine.t ->
  partitions:Partition.t list ->
  ?mailbox_config:Mailbox.config ->
  ?value_bytes:('v -> int) ->
  unit ->
  'v t
(** One node per partition (≥ 3 for fault tolerance; majority = ⌊n/2⌋+1).
    Nodes die with their partitions. *)

val nodes : 'v t -> int

val propose : 'v t -> node:int -> instance:int -> 'v -> unit
(** Fire-and-forget: start (or restart) a proposal from [node].  The
    instance will converge on {e some} proposed value. *)

val chosen : 'v t -> node:int -> instance:int -> 'v option
(** What [node] has learned for [instance]. *)

val wait_chosen : 'v t -> node:int -> instance:int -> 'v
(** Block the calling process until [node] learns the instance's value. *)

val chosen_prefix : 'v t -> node:int -> 'v list
(** Values of instances [0..k-1] where [k] is the first unlearned slot. *)
