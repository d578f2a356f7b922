(** Inter-replica wire protocol.

    Everything the primary streams to the secondary travels as [record]s in
    one FIFO log (so cross-record ordering is free), each assigned a log
    sequence number (LSN) by {!Msglayer}.  The secondary acknowledges LSNs;
    output commit waits on those acknowledgements.

    Record kinds map one-to-one onto the paper's mechanisms:
    - [Sync_tuple] — the tuples of __det_start/__det_end (§3.3).  Where the
      paper streams <Seq_thread, Seq_global, ft_pid> in one total order,
      the sharded core streams <Seq_thread, ft_pid, (channel, Seq_channel)…>:
      each replicated sync object lives on a channel, a tuple names the
      channel sequence numbers its section committed, and the secondary
      replays each channel FIFO and each thread FIFO — a partial order.
      With sharding off every section rides channel 0 and its sequence
      degenerates to the old namespace-global Seq_global;
    - [Syscall_result] — per-thread system-call results (§3.2), replayed in
      per-thread FIFO order (the "partially ordered log");
    - [Tcp_delta] — incremental checkpoint of the TCP stack's logical state
      (§3.4). *)

type det_payload =
  | P_plain  (** ordering only (pthread ops, fs writes/opens) *)
  | P_timed_outcome of bool  (** cond_timedwait: [true] = timed out *)
  | P_thread_spawn of int  (** ft_pid assigned to the new thread *)
  | P_fs_read_len of int
      (** bytes returned by a file read — per SibylFS, the only
          non-deterministic value of a POSIX file system (§6) *)

type syscall_result =
  | R_gettimeofday of Ftsim_sim.Time.t
  | R_accept of int  (** cid of the accepted connection *)
  | R_read of { cid : int; len : int }  (** 0 = end of stream *)
  | R_write of { cid : int; len : int }
  | R_close of { cid : int }
  | R_poll of { ready : int list }
      (** indices (into the caller's interest list) that polled ready *)

type tcp_delta =
  | D_new_conn of { cid : int; local : Ftsim_netstack.Packet.addr; remote : Ftsim_netstack.Packet.addr }
  | D_in_data of { cid : int; data : Ftsim_sim.Payload.chunk list }
  | D_out_seg of { cid : int; len : int }
      (** size of an output segment, forwarded before it is sent ("the
          primary will inform the replicas of the size of the packet") *)
  | D_ack_progress of { cid : int; snd_una : int }
  | D_peer_fin of { cid : int }

type record =
  | Sync_tuple of {
      ft_pid : int;
      thread_seq : int;
      chans : (int * int) list;
          (** (channel, chan_seq) pairs claimed by the section, ascending
              channel order; at most two in practice (condvar waits) *)
      payload : det_payload;
    }
  | Syscall_result of { ft_pid : int; sseq : int; result : syscall_result }
  | Tcp_delta of tcp_delta

type message =
  | Record of { lsn : int; ack_now : bool; record : record }
  | Batch of { base_lsn : int; ack_now : bool; records : record list }
      (** a run of LSN-consecutive records [base_lsn, base_lsn+n) coalesced
          into one frame; each record pays a 4-byte sub-header instead of
          the full 16-byte frame header *)
  | Ack of { upto : int; chans : (int * int) list }
      (** secondary → primary: all LSNs ≤ upto received; [chans] carries
          cumulative per-channel replay cursors (channel, consumed count)
          for channels that advanced since the last successful ack *)
  | Heartbeat of { from_primary : bool; seq : int }

(** [ack_now] is the TCP PSH/quickack analogue: set on frames flushed
    because an output commit is blocked on their acknowledgement, it makes
    the secondary ack immediately instead of arming its delayed-ack timer.
    An empty [Batch] with [ack_now] acts as a pure ack request. *)

val header : int
(** Frame header size (16 bytes). *)

val batch_sub_header : int
(** Per-record sub-header inside a [Batch] frame (4 bytes). *)

val max_frame_bytes : int
(** Hard upper bound on one encoded frame; {!encode_message} raises
    [Invalid_argument] beyond it and the batching layer flushes before
    reaching it. *)

val record_bytes : record -> int
(** Modelled wire size of a record (header included), used for the
    inter-replica traffic figures.  Exact: this is the number of bytes the
    record occupies as a standalone frame body (see {!encode_message}). *)

val batched_record_bytes : record -> int
(** Wire size of a record when carried inside a [Batch] frame:
    [record_bytes r - header + batch_sub_header]. *)

val message_bytes : message -> int
(** Exact encoded size: [String.length (encode_message m) = message_bytes m]. *)

val wakes_thread : record -> bool
(** Whether replaying this record wakes an application thread (sync tuples
    and syscall results) — the records that pay the [wake_up_process]
    latency — as opposed to TCP deltas absorbed by the replication
    component itself. *)

val pp_record : Format.formatter -> record -> unit

(** {2 Binary codec}

    A real little-endian encoding whose framing matches the byte model
    above exactly, so the traffic figures measure what would actually
    cross the shared-memory channel.  The frame header is 16 bytes:
    2-byte magic ["FT"], message kind, a sub byte (record kind/subkind,
    or the heartbeat direction), u32 total length, i64 aux (the batch's
    base LSN).  [decode_message] is total: any input that is not the
    exact encoding of a message yields [Error]. *)

type decode_error =
  | Truncated  (** input shorter than the frame header or declared length *)
  | Malformed of string  (** bad magic, unknown tag, inconsistent lengths *)

val pp_decode_error : Format.formatter -> decode_error -> unit

val encode_message : message -> string
(** Raises [Invalid_argument] if the frame would exceed {!max_frame_bytes},
    a batched record's fields exceed 65535 bytes, or an address does not
    fit the encoding (port beyond u16, host longer than 255 bytes). *)

val decode_message : string -> (message, decode_error) result

val equal_message : message -> message -> bool
(** Structural equality, except payload chunk lists compare by content —
    the codec does not preserve chunk boundaries. *)
