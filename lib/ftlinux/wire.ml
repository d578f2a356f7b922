type det_payload =
  | P_plain
  | P_timed_outcome of bool
  | P_thread_spawn of int
  | P_fs_read_len of int

type syscall_result =
  | R_gettimeofday of Ftsim_sim.Time.t
  | R_accept of int
  | R_read of { cid : int; len : int }
  | R_write of { cid : int; len : int }
  | R_close of { cid : int }
  | R_poll of { ready : int list }

type tcp_delta =
  | D_new_conn of {
      cid : int;
      local : Ftsim_netstack.Packet.addr;
      remote : Ftsim_netstack.Packet.addr;
    }
  | D_in_data of { cid : int; data : Ftsim_sim.Payload.chunk list }
  | D_out_seg of { cid : int; len : int }
  | D_ack_progress of { cid : int; snd_una : int }
  | D_peer_fin of { cid : int }

type record =
  | Sync_tuple of {
      ft_pid : int;
      thread_seq : int;
      chans : (int * int) list;
          (* (channel, chan_seq) pairs, ascending channel order.  A section
             claims one channel per sync object it touches (condvar waits
             claim two); the secondary replays each channel FIFO by
             chan_seq.  Unsharded mode emits everything on channel 0, whose
             sequence then equals the old namespace-global order. *)
      payload : det_payload;
    }
  | Syscall_result of { ft_pid : int; sseq : int; result : syscall_result }
  | Tcp_delta of tcp_delta

(* [ack_now] is the TCP PSH/quickack analogue: a frame flushed because an
   output commit is waiting on its acknowledgement asks the secondary to
   ack immediately instead of starting its delayed-ack timer.  Without it
   the commit path pays the full ack delay on every gated output segment —
   the classic delayed-ack/Nagle interaction. *)
type message =
  | Record of { lsn : int; ack_now : bool; record : record }
  | Batch of { base_lsn : int; ack_now : bool; records : record list }
  | Ack of { upto : int; chans : (int * int) list }
      (* [upto] is the cumulative LSN ack (the §3.5 stability signal);
         [chans] piggybacks per-channel cumulative replay cursors
         (channel, consumed count) for the channels that advanced since the
         last ack — observability for the sharded core, not correctness. *)
  | Heartbeat of { from_primary : bool; seq : int }

(* The byte layout these sizes count is documented in wire.mli.  Every
   frame starts with a 16-byte header; records carried inside a [Batch]
   replace that header with a 4-byte sub-header, which is where the
   per-record saving of batching comes from. *)
let header = 16
let batch_sub_header = 4
let max_frame_bytes = 65536

let det_payload_bytes = function
  | P_plain -> 0
  | P_timed_outcome _ -> 1
  | P_thread_spawn _ -> 4
  | P_fs_read_len _ -> 4

let syscall_result_bytes = function
  | R_gettimeofday _ -> 8
  | R_accept _ -> 4
  | R_read _ -> 8
  | R_write _ -> 8
  | R_close _ -> 4
  | R_poll { ready } -> 4 + (4 * List.length ready)

(* port:u16, length-prefixed host string *)
let addr_bytes (a : Ftsim_netstack.Packet.addr) = 3 + String.length a.host

let tcp_delta_bytes = function
  | D_new_conn { local; remote; _ } -> 4 + addr_bytes local + addr_bytes remote
  | D_in_data { data; _ } -> 4 + Ftsim_sim.Payload.total_len data
  | D_out_seg _ -> 4 + 4
  | D_ack_progress _ -> 4 + 8
  | D_peer_fin _ -> 4

let record_bytes = function
  | Sync_tuple { chans; payload; _ } ->
      (* ft_pid i32, thread_seq i32, channel count u8, 8 bytes per
         (channel, chan_seq) pair, then the payload. *)
      header + 9 + (8 * List.length chans) + det_payload_bytes payload
  | Syscall_result { result; _ } -> header + 8 + syscall_result_bytes result
  | Tcp_delta d -> header + tcp_delta_bytes d

let batched_record_bytes r = record_bytes r - header + batch_sub_header

(* The header and the record count. *)
let empty_batch_bytes = header + 4

let message_bytes = function
  | Record { record; _ } -> 8 + record_bytes record
  | Batch { records; _ } ->
      empty_batch_bytes
      + List.fold_left (fun acc r -> acc + batched_record_bytes r) 0 records
  | Ack { chans; _ } -> header + 12 + (8 * List.length chans)
  | Heartbeat _ -> header + 8

let wakes_thread = function
  | Sync_tuple _ | Syscall_result _ -> true
  | Tcp_delta _ -> false
