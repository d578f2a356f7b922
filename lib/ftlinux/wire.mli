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
      (** size of an output segment, streamed before it is sent as the
          paper's primary does ("the primary will inform the replicas of
          the size of the packet"); it costs traffic and a replay step,
          but the backup does not use it: go-live's restored stack
          re-segments the unacknowledged output itself *)
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

(** {2 Size model}

    Frames travel as OCaml values through {!Ftsim_hw.Mailbox}; what the
    traffic figures count is the size each frame would have in this
    little-endian byte layout.  Integers are [i32]/[i64] (4/8 bytes),
    counts [u8]/[u16]/[u32] (1/2/4 bytes).

    Every frame starts with a 16-byte header: 2-byte magic, message kind
    [u8], a sub byte [u8] (a record's kind, a batch's [ack_now], a
    heartbeat's direction), total length [u32] and an [i64] aux word (a
    batch's base LSN, a record's [ack_now]).  Then, per message:
    - [Record]: lsn [i64], then the record's fields;
    - [Batch]: record count [u32], then per record a 4-byte sub-header
      (record kind [u8], subkind [u8], field length [u16]) and the
      record's fields;
    - [Ack]: upto [i64], cursor count [u32], then per (channel, consumed)
      pair two [i32] (8 bytes);
    - [Heartbeat]: seq [i64].

    Record fields:
    - [Sync_tuple]: ft_pid [i32], thread_seq [i32], channel count [u8],
      per (channel, chan_seq) pair two [i32] (8 bytes), then the payload:
      nothing for [P_plain], a [u8] for [P_timed_outcome], an [i32] for
      [P_thread_spawn] and [P_fs_read_len];
    - [Syscall_result]: ft_pid [i32], sseq [i32], then the result: an
      [i64] for [R_gettimeofday]; cid [i32] for [R_accept] and [R_close];
      cid and len [i32] for [R_read] and [R_write]; a ready count [u32]
      and one [i32] per index for [R_poll];
    - [Tcp_delta]: cid [i32], then: two addresses for [D_new_conn], each
      port [u16], host length [u8] and the host's bytes; the data's bytes
      for [D_in_data] (synthetic bytes count in full); len [i32] for
      [D_out_seg]; snd_una [i64] for [D_ack_progress]; nothing for
      [D_peer_fin]. *)

val max_frame_bytes : int
(** Upper bound on a [Batch] frame (64 KiB): the batching layer flushes
    the staged batch before a record would push it past this.  A record
    too large for any batch travels alone as a [Record] frame, which this
    does not bound. *)

val batched_record_bytes : record -> int
(** Size of a record carried inside a [Batch] frame: its 4-byte
    sub-header plus its fields. *)

val empty_batch_bytes : int
(** Size of a [Batch] frame with no records (20 bytes: the header and the
    record count); each record it carries adds its
    {!batched_record_bytes}. *)

val message_bytes : message -> int
(** Size of a frame, header included. *)

val wakes_thread : record -> bool
(** Whether replaying this record wakes an application thread (sync tuples
    and syscall results) — the records that pay the [wake_up_process]
    latency — as opposed to TCP deltas absorbed by the replication
    component itself. *)
