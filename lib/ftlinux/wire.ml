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

(* Sizes are exact: [String.length (encode_message m) = message_bytes m].
   Every frame starts with a 16-byte header; records carried inside a
   [Batch] replace that header with a 4-byte sub-header, which is where
   the per-record saving of batching comes from. *)
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

let message_bytes = function
  | Record { record; _ } -> 8 + record_bytes record
  | Batch { records; _ } ->
      header + 4 + List.fold_left (fun acc r -> acc + batched_record_bytes r) 0 records
  | Ack { chans; _ } -> header + 12 + (8 * List.length chans)
  | Heartbeat _ -> header + 8

let pp_record fmt = function
  | Sync_tuple { ft_pid; thread_seq; chans; payload } ->
      Format.fprintf fmt "sync<%d@%d|%s>%s" thread_seq ft_pid
        (String.concat ","
           (List.map (fun (c, s) -> Printf.sprintf "%d:%d" c s) chans))
        (match payload with
        | P_plain -> ""
        | P_timed_outcome b -> if b then "+timeout" else "+signaled"
        | P_thread_spawn p -> Printf.sprintf "+spawn(%d)" p
        | P_fs_read_len n -> Printf.sprintf "+fsread(%d)" n)
  | Syscall_result { ft_pid; sseq; result } ->
      Format.fprintf fmt "syscall<%d,%d>%s" ft_pid sseq
        (match result with
        | R_gettimeofday _ -> "=time"
        | R_accept cid -> Printf.sprintf "=accept(%d)" cid
        | R_read { cid; len } -> Printf.sprintf "=read(%d,%d)" cid len
        | R_write { cid; len } -> Printf.sprintf "=write(%d,%d)" cid len
        | R_close { cid } -> Printf.sprintf "=close(%d)" cid
        | R_poll { ready } -> Printf.sprintf "=poll(%d ready)" (List.length ready))
  | Tcp_delta d ->
      Format.fprintf fmt "%s"
        (match d with
        | D_new_conn { cid; _ } -> Printf.sprintf "tcp.new(%d)" cid
        | D_in_data { cid; data } ->
            Printf.sprintf "tcp.in(%d,%d)" cid
              (Ftsim_sim.Payload.total_len data)
        | D_out_seg { cid; len } -> Printf.sprintf "tcp.out(%d,%d)" cid len
        | D_ack_progress { cid; snd_una } ->
            Printf.sprintf "tcp.ack(%d,%d)" cid snd_una
        | D_peer_fin { cid } -> Printf.sprintf "tcp.fin(%d)" cid)

let wakes_thread = function
  | Sync_tuple _ | Syscall_result _ -> true
  | Tcp_delta _ -> false

(* ------------------------------------------------------------------ *)
(* Binary codec                                                        *)
(*                                                                     *)
(* Frame header (16 bytes):                                            *)
(*   0-1  magic "FT"                                                   *)
(*   2    message kind: 0 Record, 1 Ack, 2 Heartbeat, 3 Batch          *)
(*   3    sub byte: Record -> record_kind*16 + subkind;                *)
(*        Heartbeat -> 1 if from_primary; Batch -> 1 if ack_now;       *)
(*        otherwise 0                                                  *)
(*   4-7  total frame length, u32 LE                                   *)
(*   8-15 aux, i64 LE: base_lsn for Batch, ack_now flag (0/1) for      *)
(*        Record, 0 otherwise                                          *)
(* Record body: lsn i64 LE, then the record fields.                    *)
(* Batch body: count u32 LE, then per record a 4-byte sub-header       *)
(*   (record_kind u8, subkind u8, field length u16 LE) and the fields. *)
(* Ack / Heartbeat body: upto / seq as i64 LE.                         *)
(* ------------------------------------------------------------------ *)

type decode_error = Truncated | Malformed of string

let pp_decode_error fmt = function
  | Truncated -> Format.fprintf fmt "truncated frame"
  | Malformed why -> Format.fprintf fmt "malformed frame: %s" why

let magic0 = 'F'
let magic1 = 'T'

let record_kind = function
  | Sync_tuple _ -> 0
  | Syscall_result _ -> 1
  | Tcp_delta _ -> 2

let record_subkind = function
  | Sync_tuple { payload; _ } -> (
      match payload with
      | P_plain -> 0
      | P_timed_outcome _ -> 1
      | P_thread_spawn _ -> 2
      | P_fs_read_len _ -> 3)
  | Syscall_result { result; _ } -> (
      match result with
      | R_gettimeofday _ -> 0
      | R_accept _ -> 1
      | R_read _ -> 2
      | R_write _ -> 3
      | R_close _ -> 4
      | R_poll _ -> 5)
  | Tcp_delta d -> (
      match d with
      | D_new_conn _ -> 0
      | D_in_data _ -> 1
      | D_out_seg _ -> 2
      | D_ack_progress _ -> 3
      | D_peer_fin _ -> 4)

let add_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_addr b (a : Ftsim_netstack.Packet.addr) =
  if a.port < 0 || a.port > 0xffff then
    invalid_arg "Wire.encode_message: port out of range";
  if String.length a.host > 0xff then
    invalid_arg "Wire.encode_message: host name too long";
  Buffer.add_uint16_le b a.port;
  Buffer.add_uint8 b (String.length a.host);
  Buffer.add_string b a.host

(* Emits exactly [record_bytes r - header] bytes. *)
let add_record_fields b r =
  match r with
  | Sync_tuple { ft_pid; thread_seq; chans; payload } -> (
      add_i32 b ft_pid;
      add_i32 b thread_seq;
      if List.length chans > 0xff then
        invalid_arg "Wire.encode_message: too many channels in tuple";
      Buffer.add_uint8 b (List.length chans);
      List.iter
        (fun (ch, sq) ->
          add_i32 b ch;
          add_i32 b sq)
        chans;
      match payload with
      | P_plain -> ()
      | P_timed_outcome timed -> Buffer.add_uint8 b (if timed then 1 else 0)
      | P_thread_spawn pid -> add_i32 b pid
      | P_fs_read_len n -> add_i32 b n)
  | Syscall_result { ft_pid; sseq; result } -> (
      add_i32 b ft_pid;
      add_i32 b sseq;
      match result with
      | R_gettimeofday t -> add_i64 b t
      | R_accept cid -> add_i32 b cid
      | R_read { cid; len } ->
          add_i32 b cid;
          add_i32 b len
      | R_write { cid; len } ->
          add_i32 b cid;
          add_i32 b len
      | R_close { cid } -> add_i32 b cid
      | R_poll { ready } ->
          add_i32 b (List.length ready);
          List.iter (add_i32 b) ready)
  | Tcp_delta d -> (
      match d with
      | D_new_conn { cid; local; remote } ->
          add_i32 b cid;
          add_addr b local;
          add_addr b remote
      | D_in_data { cid; data } ->
          add_i32 b cid;
          Buffer.add_string b (Ftsim_sim.Payload.concat_to_string data)
      | D_out_seg { cid; len } ->
          add_i32 b cid;
          add_i32 b len
      | D_ack_progress { cid; snd_una } ->
          add_i32 b cid;
          add_i64 b snd_una
      | D_peer_fin { cid } -> add_i32 b cid)

let encode_message m =
  let total = message_bytes m in
  if total > max_frame_bytes then
    invalid_arg
      (Printf.sprintf "Wire.encode_message: frame of %d bytes exceeds max %d"
         total max_frame_bytes);
  let b = Buffer.create total in
  Buffer.add_char b magic0;
  Buffer.add_char b magic1;
  (match m with
  | Record { record; _ } ->
      Buffer.add_uint8 b 0;
      Buffer.add_uint8 b ((record_kind record * 16) + record_subkind record)
  | Ack _ ->
      Buffer.add_uint8 b 1;
      Buffer.add_uint8 b 0
  | Heartbeat { from_primary; _ } ->
      Buffer.add_uint8 b 2;
      Buffer.add_uint8 b (if from_primary then 1 else 0)
  | Batch { ack_now; _ } ->
      Buffer.add_uint8 b 3;
      Buffer.add_uint8 b (if ack_now then 1 else 0));
  add_i32 b total;
  add_i64 b
    (match m with
    | Batch { base_lsn; _ } -> base_lsn
    | Record { ack_now; _ } -> if ack_now then 1 else 0
    | _ -> 0);
  (match m with
  | Record { lsn; record; _ } ->
      add_i64 b lsn;
      add_record_fields b record
  | Ack { upto; chans } ->
      add_i64 b upto;
      add_i32 b (List.length chans);
      List.iter
        (fun (ch, n) ->
          add_i32 b ch;
          add_i32 b n)
        chans
  | Heartbeat { seq; _ } -> add_i64 b seq
  | Batch { records; _ } ->
      add_i32 b (List.length records);
      List.iter
        (fun r ->
          let flen = record_bytes r - header in
          if flen > 0xffff then
            invalid_arg "Wire.encode_message: batched record too large";
          Buffer.add_uint8 b (record_kind r);
          Buffer.add_uint8 b (record_subkind r);
          Buffer.add_uint16_le b flen;
          add_record_fields b r)
        records);
  let s = Buffer.contents b in
  assert (String.length s = total);
  s

(* Decoding: a cursor over [s] restricted to [limit]. *)
exception Trunc
exception Bad of string

type cursor = { s : string; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then raise Trunc

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = String.get_uint16_le c.s c.pos in
  c.pos <- c.pos + 2;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str c n =
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let get_addr c : Ftsim_netstack.Packet.addr =
  let port = get_u16 c in
  let n = get_u8 c in
  let host = get_str c n in
  { host; port }

(* Parses record fields given a sub-cursor covering exactly the fields. *)
let get_record_fields c ~kind ~subkind =
  let r =
    match kind with
    | 0 ->
        let ft_pid = get_i32 c in
        let thread_seq = get_i32 c in
        let nchans = get_u8 c in
        let chans =
          List.init nchans (fun _ ->
              let ch = get_i32 c in
              let sq = get_i32 c in
              (ch, sq))
        in
        let payload =
          match subkind with
          | 0 -> P_plain
          | 1 -> P_timed_outcome (get_u8 c <> 0)
          | 2 -> P_thread_spawn (get_i32 c)
          | 3 -> P_fs_read_len (get_i32 c)
          | k -> raise (Bad (Printf.sprintf "unknown det payload kind %d" k))
        in
        Sync_tuple { ft_pid; thread_seq; chans; payload }
    | 1 ->
        let ft_pid = get_i32 c in
        let sseq = get_i32 c in
        let result =
          match subkind with
          | 0 -> R_gettimeofday (get_i64 c)
          | 1 -> R_accept (get_i32 c)
          | 2 ->
              let cid = get_i32 c in
              R_read { cid; len = get_i32 c }
          | 3 ->
              let cid = get_i32 c in
              R_write { cid; len = get_i32 c }
          | 4 -> R_close { cid = get_i32 c }
          | 5 ->
              let n = get_i32 c in
              if n < 0 || n > (c.limit - c.pos) / 4 then
                raise (Bad "bad poll ready count");
              R_poll { ready = List.init n (fun _ -> get_i32 c) }
          | k -> raise (Bad (Printf.sprintf "unknown syscall result kind %d" k))
        in
        Syscall_result { ft_pid; sseq; result }
    | 2 ->
        let d =
          match subkind with
          | 0 ->
              let cid = get_i32 c in
              let local = get_addr c in
              let remote = get_addr c in
              D_new_conn { cid; local; remote }
          | 1 ->
              let cid = get_i32 c in
              let raw = get_str c (c.limit - c.pos) in
              let data =
                if raw = "" then []
                else [ Ftsim_sim.Payload.of_string raw ]
              in
              D_in_data { cid; data }
          | 2 ->
              let cid = get_i32 c in
              D_out_seg { cid; len = get_i32 c }
          | 3 ->
              let cid = get_i32 c in
              D_ack_progress { cid; snd_una = get_i64 c }
          | 4 -> D_peer_fin { cid = get_i32 c }
          | k -> raise (Bad (Printf.sprintf "unknown tcp delta kind %d" k))
        in
        Tcp_delta d
    | k -> raise (Bad (Printf.sprintf "unknown record kind %d" k))
  in
  if c.pos <> c.limit then raise (Bad "record fields have trailing bytes");
  r

let decode_message s =
  try
    let len = String.length s in
    if len < header then raise Trunc;
    if s.[0] <> magic0 || s.[1] <> magic1 then raise (Bad "bad magic");
    let kind = Char.code s.[2] in
    let sub = Char.code s.[3] in
    let total = Int32.to_int (String.get_int32_le s 4) in
    if total < header || total > max_frame_bytes then
      raise (Bad (Printf.sprintf "implausible frame length %d" total));
    if len < total then raise Trunc;
    if len > total then raise (Bad "trailing bytes after frame");
    let aux = Int64.to_int (String.get_int64_le s 8) in
    let c = { s; pos = header; limit = total } in
    let m =
      match kind with
      | 0 ->
          if aux <> 0 && aux <> 1 then raise (Bad "bad record aux flags");
          let lsn = get_i64 c in
          let fields = { s; pos = c.pos; limit = total } in
          let record =
            get_record_fields fields ~kind:(sub / 16) ~subkind:(sub mod 16)
          in
          c.pos <- total;
          Record { lsn; ack_now = aux = 1; record }
      | 1 ->
          let upto = get_i64 c in
          let n = get_i32 c in
          if n < 0 || n > (c.limit - c.pos) / 8 then
            raise (Bad "bad ack channel count");
          let chans =
            List.init n (fun _ ->
                let ch = get_i32 c in
                let cnt = get_i32 c in
                (ch, cnt))
          in
          Ack { upto; chans }
      | 2 -> Heartbeat { from_primary = sub <> 0; seq = get_i64 c }
      | 3 ->
          if sub <> 0 && sub <> 1 then raise (Bad "bad batch sub flags");
          let n = get_i32 c in
          if n < 0 || n > (c.limit - c.pos) / batch_sub_header then
            raise (Bad "bad batch record count");
          let records =
            List.init n (fun _ ->
                let rk = get_u8 c in
                let rsub = get_u8 c in
                let flen = get_u16 c in
                need c flen;
                let fields = { s; pos = c.pos; limit = c.pos + flen } in
                let r = get_record_fields fields ~kind:rk ~subkind:rsub in
                c.pos <- c.pos + flen;
                r)
          in
          Batch { base_lsn = aux; ack_now = sub = 1; records }
      | k -> raise (Bad (Printf.sprintf "unknown message kind %d" k))
    in
    if c.pos <> c.limit then raise (Bad "frame body has trailing bytes");
    Ok m
  with
  | Trunc -> Error Truncated
  | Bad why -> Error (Malformed why)

(* ------------------------------------------------------------------ *)
(* Equality (for the codec round-trip tests): structural, except that  *)
(* payload chunk lists compare by content — the codec does not, and    *)
(* need not, preserve chunk boundaries.                                *)
(* ------------------------------------------------------------------ *)

let equal_data a b =
  Ftsim_sim.Payload.(
    total_len a = total_len b && concat_to_string a = concat_to_string b)

let equal_record a b =
  match (a, b) with
  | Tcp_delta (D_in_data x), Tcp_delta (D_in_data y) ->
      x.cid = y.cid && equal_data x.data y.data
  | _ -> a = b

let equal_message a b =
  match (a, b) with
  | Record x, Record y ->
      x.lsn = y.lsn && x.ack_now = y.ack_now && equal_record x.record y.record
  | Batch x, Batch y ->
      x.base_lsn = y.base_lsn
      && x.ack_now = y.ack_now
      && List.length x.records = List.length y.records
      && List.for_all2 equal_record x.records y.records
  | _ -> a = b
