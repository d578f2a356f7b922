(** The secondary's synchronized copy of the primary TCP stack's logical
    state (§3.4).

    Per connection the shadow holds: the logged input stream (fed by
    [D_in_data] deltas, consumed by replayed reads), the pending output
    (fed by replayed writes, trimmed by [D_ack_progress] deltas — i.e. by
    the client's acknowledgements as observed on the primary), and FIN
    markers.  At failover, {!restore_all} turns every live shadow
    connection into a real connection on a fresh stack ({!Tcp.restore});
    the pending output is exactly the unacknowledged suffix the client
    still needs. *)

open Ftsim_sim
open Ftsim_netstack

type conn

type t

val create : unit -> t

val apply_delta : t -> Wire.tcp_delta -> unit

(** {1 Replayed socket operations} *)

val claim_accept : t -> cid:int -> conn
(** Bind the replayed [accept] that logged [cid] to its shadow connection,
    marking it application-owned. *)

val was_accepted : t -> cid:int -> bool
(** Whether an [R_accept] for [cid] was replayed.  [false] at failover
    means the connection was established — so it has a shadow and a logged
    input stream — but still sat in the primary's accept queue when it
    died; {!Namespace.go_live} requeues its restored counterpart onto a
    listener ({!Tcp.requeue_restored}) instead of orphaning it.  Unknown
    cids report [true] (nothing to requeue). *)

val read_bytes : conn -> int -> Payload.chunk list
(** Consume [n] logged input bytes (the replayed read's result). *)

val write_bytes : conn -> Payload.chunk -> unit
(** Record the replayed write in the pending-output buffer. *)

val mark_app_closed : conn -> unit

type listener_config = {
  lc_port : int;
  lc_shards : int;
  lc_backlog : int option;
  lc_overflow : Tcp.overflow;
}

val register_listener :
  t -> port:int -> shards:int -> backlog:int option -> overflow:Tcp.overflow -> unit
(** A replayed [listen]/[listen_group]: remember the port and its group
    shape, so go-live re-creates an identically configured listener
    group. *)

val close_listener : t -> port:int -> unit
(** A replayed [close_listener]: the port must not be re-opened at
    failover. *)

val listener_config : t -> port:int -> listener_config option

(** {1 Introspection} *)

val cid : conn -> int

val listener_configs : t -> listener_config list

(** {1 Failover} *)

val restore_all : t -> Tcp.stack -> (int * Tcp.conn) list
(** Recreate every live connection on the given stack; returns
    [(cid, conn)] pairs.  (Re-listening on {!listener_configs} is
    {!Namespace.go_live}'s job, which also keeps the handles.)  After this
    call {!restored} is set on each shadow connection. *)

val restored : conn -> Tcp.conn option
