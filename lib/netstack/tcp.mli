(** A TCP implementation sized for systems experiments.

    Byte-accurate sequence/acknowledgement arithmetic, sliding send window,
    go-back-N retransmission with a fixed RTO, FIN teardown — enough to
    reproduce throughput behaviour on a modelled link and, crucially, to
    survive a primary-replica failover: a stack can be {e reconstructed}
    from logical state ({!restore}) and the resulting retransmissions are
    deduplicated by the peer exactly as real TCP would.

    Simplifications (documented in DESIGN.md): no congestion control (the
    advertised window is the only flow control — ample on a LAN), no
    selective acknowledgement, no sequence-number randomization or
    wrap-around, constant RTO. *)

open Ftsim_sim

type stack
type conn
type listener

type overflow = [ `Drop | `Reset ]
(** What happens to a SYN routed to a shard whose backlog is full:
    [`Drop] models Linux's silent SYN drop (the client's SYN
    retransmission retries later); [`Reset] answers with an RST, failing
    the client's [connect] with {!Connection_closed}. *)

exception Connection_closed

(** Interposition hooks for a replication runtime (all called from stack or
    sender process context; the gates may block). *)
type hooks = {
  on_accept : conn -> unit;
  on_input : conn -> Payload.chunk list -> unit;
      (** new in-order input, before the ACK for it is released *)
  ack_gate : conn -> unit;
      (** block until ACKs for logged input may be released *)
  egress_gate : conn -> len:int -> unit;
      (** block until an output segment is stable (output commit) *)
  on_ack_progress : conn -> snd_una:int -> unit;
  on_peer_fin : conn -> unit;
}

val create : Netenv.t -> ip:string -> unit -> stack
(** A stack with a 1,460-byte MSS, a 64 KiB advertised window, a 256 KiB
    send buffer (writers block beyond it), a 200 ms RTO and 2 µs of CPU
    per segment; a fully closed connection leaves the demux table at once
    (no TIME_WAIT). *)

val attach_nic : stack -> Nic.t -> unit
(** Bind the stack to a NIC at boot ({!Nic.attach} with no owner tracking —
    use [Nic.attach] directly for owner-aware binding and pass the stack's
    {!rx_callback}). *)

val rx_callback : stack -> Packet.t -> unit
(** The function to install as the NIC's receive callback. *)

val bind_nic : stack -> Nic.t -> unit
(** Point the stack's transmit path at a NIC without touching the NIC's
    receive binding — used when the receive side was bound separately (e.g.
    by {!Nic.transfer} during failover). *)

val set_hooks : stack -> hooks option -> unit

(** {1 Sockets} *)

val listen : stack -> port:int -> listener
(** Single-shard, unbounded-backlog listener: exactly the pre-listener-group
    shape, implemented as [listen_group ~shards:1] and returning shard 0. *)

val listen_group :
  stack ->
  port:int ->
  ?shards:int ->
  ?backlog:int ->
  ?overflow:overflow ->
  unit ->
  listener array
(** SO_REUSEPORT-style listener group: [shards] independent accept queues on
    one port.  Incoming SYNs are routed to a shard by {!shard_of_tuple} (a
    pure hash of the connection 4-tuple), so a given client connection always
    lands on the same shard.  [backlog] bounds each shard's pending + unclaimed
    connections; an overflowing SYN is dropped or reset per [overflow]
    (default [`Drop]) and counted in {!accept_overflow_drop} /
    {!accept_overflow_rst}.  Default [shards = 1], unbounded backlog. *)

val accept : listener -> conn option
(** Block until a connection is established on this shard; [None] means the
    listener group was closed (remaining queued connections are drained
    first). *)

val close_listener : listener -> unit
(** Close the whole group the shard belongs to: the port stops matching new
    SYNs, and every acceptor blocked on any shard of the group unblocks with
    [None] once its queue drains.  Idempotent. *)

val shard_of_tuple : remote:Packet.addr -> port:int -> shards:int -> int
(** The pure SYN-routing hash: which shard of a [shards]-wide group on local
    port [port] the connection from [remote] lands on.  Deterministic across
    calls, stacks, and replicas. *)

val listener_port : listener -> int
val listener_shard : listener -> int

val connect : stack -> host:string -> port:int -> conn
(** Active open; blocks until established.  Raises {!Connection_closed} if
    the peer refuses the connection with an RST (backlog overflow in
    [`Reset] mode). *)

val send : conn -> Payload.chunk -> unit
(** Append to the send buffer; blocks while the buffer is full.  Raises
    {!Connection_closed} after [close]. *)

val recv : conn -> max:int -> Payload.chunk list
(** Block until data is available; [[]] means end-of-stream (peer FIN). *)

val close : conn -> unit
(** Half-close: queue a FIN after buffered data; reading remains possible. *)

val poll : ?deadline:Time.t -> conn list -> conn list
(** Block until at least one of the connections is readable (epoll-style);
    returns the ready subset, or [[]] at the deadline.  The list must be
    non-empty. *)

val abort : conn -> unit
(** Drop the connection immediately (no RST modelling; local teardown). *)

(** {1 Connection introspection} *)

val local_addr : conn -> Packet.addr
val remote_addr : conn -> Packet.addr
val conn_id : conn -> int
val is_established : conn -> bool
val snd_una : conn -> int
(** Lowest unacknowledged output byte. *)

val snd_nxt : conn -> int
val rcv_nxt : conn -> int
(** Next expected input byte (all input below is received in order). *)

(** {1 Failover reconstruction} *)

type logical_state = {
  l_local : Packet.addr;
  l_remote : Packet.addr;
  l_snd_una : int;  (** peer-acknowledged output prefix *)
  l_rcv_nxt : int;  (** logged input prefix *)
  l_unacked : Payload.chunk list;  (** output bytes from [l_snd_una] on *)
  l_unread : Payload.chunk list;
      (** logged input not yet consumed by the application (becomes the
          restored receive buffer, ending at [l_rcv_nxt]) *)
  l_peer_fin : bool;
}

val restore : stack -> logical_state -> conn
(** Recreate an established connection from logical state: transmission
    resumes at [l_snd_una] (the peer discards duplicates), and input
    continues from [l_rcv_nxt]. *)

val requeue_restored : stack -> conn -> unit
(** Hand a restored connection the application never accepted back to the
    accept queue of the listener shard its 4-tuple routes to (emits an
    [accept.requeue] event).  The backlog bound is not enforced: the
    connection was established and replicated before the failover, so
    shedding it now would break exactly-once.  No-op if the port has no
    listener. *)

(** {1 Metrics} *)

val segs_out : stack -> int

val accept_overflow_drop : stack -> int
(** SYNs silently dropped because the routed shard's backlog was full. *)

val accept_overflow_rst : stack -> int
(** SYNs refused with an RST because the routed shard's backlog was full. *)
