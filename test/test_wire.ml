(* The Wire size model against sizes worked out by hand from the byte
   layout wire.mli documents: no expected value here is computed by
   calling Wire.  Msglayer's "frame cap" case checks where the cap is
   enforced. *)

open Ftsim_ftlinux
module Payload = Ftsim_sim.Payload

let tuple chans payload =
  Wire.Sync_tuple { ft_pid = 3; thread_seq = 7; chans; payload }

let one = [ (0, 1) ]
let two = [ (0, 1); (2, 5) ]

let syscall result = Wire.Syscall_result { ft_pid = 3; sseq = 7; result }
let delta d = Wire.Tcp_delta d
let addr host port = { Ftsim_netstack.Packet.host; port }

(* Every record shape with the bytes of its fields. *)
let shapes =
  [
    (* ft_pid 4 + thread_seq 4 + channel count 1 + 8 per channel, then
       the payload: 0, 1 (u8) or 4 (i32). *)
    ("tuple plain, 0 channels", tuple [] Wire.P_plain, 9);
    ("tuple plain, 1 channel", tuple one Wire.P_plain, 17);
    ("tuple plain, 2 channels", tuple two Wire.P_plain, 25);
    ("tuple timed outcome, 0 channels", tuple [] (Wire.P_timed_outcome true), 10);
    ("tuple timed outcome, 1 channel", tuple one (Wire.P_timed_outcome false), 18);
    ("tuple timed outcome, 2 channels", tuple two (Wire.P_timed_outcome true), 26);
    ("tuple spawn, 0 channels", tuple [] (Wire.P_thread_spawn 4), 13);
    ("tuple spawn, 1 channel", tuple one (Wire.P_thread_spawn 4), 21);
    ("tuple spawn, 2 channels", tuple two (Wire.P_thread_spawn 4), 29);
    ("tuple fs read, 0 channels", tuple [] (Wire.P_fs_read_len 512), 13);
    ("tuple fs read, 1 channel", tuple one (Wire.P_fs_read_len 512), 21);
    ("tuple fs read, 2 channels", tuple two (Wire.P_fs_read_len 512), 29);
    (* ft_pid 4 + sseq 4, then the result. *)
    ("gettimeofday", syscall (Wire.R_gettimeofday 1_000_000), 16);
    ("accept", syscall (Wire.R_accept 2), 12);
    ("read", syscall (Wire.R_read { cid = 2; len = 100 }), 16);
    ("write", syscall (Wire.R_write { cid = 2; len = 100 }), 16);
    ("close", syscall (Wire.R_close { cid = 2 }), 12);
    ("poll, none ready", syscall (Wire.R_poll { ready = [] }), 12);
    ("poll, three ready", syscall (Wire.R_poll { ready = [ 0; 3; 9 ] }), 24);
    (* cid 4, then the delta: an address is port 2 + host length 1 + the
       host's bytes ("10.0.0.1" is 8). *)
    ( "new conn",
      delta
        (Wire.D_new_conn
           { cid = 2; local = addr "10.0.0.1" 80; remote = addr "10.0.0.2" 40000 }),
      26 );
    ("in data, empty", delta (Wire.D_in_data { cid = 2; data = [] }), 4);
    ( "in data, two chunks",
      delta
        (Wire.D_in_data
           {
             cid = 2;
             data = [ Payload.of_string "GET / HTTP/1.0\r\n"; Payload.zeroes 1000 ];
           }),
      1020 );
    ("out seg", delta (Wire.D_out_seg { cid = 2; len = 1448 }), 8);
    ("ack progress", delta (Wire.D_ack_progress { cid = 2; snd_una = 7 }), 12);
    ("peer fin", delta (Wire.D_peer_fin { cid = 2 }), 4);
  ]

(* A [Record] frame is header 16 + lsn 8 + fields; inside a [Batch] a
   record is its 4-byte sub-header + fields. *)
let test_record_shapes () =
  List.iter
    (fun (name, record, fields) ->
      Alcotest.(check int) (name ^ ", record frame") (24 + fields)
        (Wire.message_bytes (Wire.Record { lsn = 5; ack_now = false; record }));
      Alcotest.(check int) (name ^ ", batched") (4 + fields)
        (Wire.batched_record_bytes record))
    shapes

let test_fixed_sizes () =
  let check name bytes m = Alcotest.(check int) name bytes (Wire.message_bytes m) in
  (* 16 + lsn 8 + 9 *)
  check "record frame" 33
    (Wire.Record { lsn = 5; ack_now = true; record = tuple [] Wire.P_plain });
  (* 16 + count 4 + (4 + 17) + (4 + 12) + (4 + 4) *)
  check "batch frame" 65
    (Wire.Batch
       {
         base_lsn = 5;
         ack_now = false;
         records =
           [
             tuple one Wire.P_plain;
             syscall (Wire.R_accept 2);
             delta (Wire.D_peer_fin { cid = 2 });
           ];
       });
  (* The empty ack_now batch is the pure ack-request poke: 16 + count 4. *)
  check "ack-request poke" 20 (Wire.Batch { base_lsn = 9; ack_now = true; records = [] });
  (* 16 + upto 8 + count 4 + 8 per cursor *)
  check "ack frame" 28 (Wire.Ack { upto = 7; chans = [] });
  check "ack frame with cursors" 44 (Wire.Ack { upto = 7; chans = [ (0, 3); (2, 9) ] });
  (* 16 + seq 8 *)
  check "heartbeat frame" 24 (Wire.Heartbeat { from_primary = true; seq = 3 })

(* The 64 KiB cap, and a batch of one data record filled to exactly it:
   16 + count 4 + sub-header 4 + cid 4 + 65,508 data bytes. *)
let test_max_size_frame () =
  Alcotest.(check int) "cap" 65_536 Wire.max_frame_bytes;
  let data = [ Payload.zeroes 65_508 ] in
  Alcotest.(check int) "batch at the cap" 65_536
    (Wire.message_bytes
       (Wire.Batch
          {
            base_lsn = 5;
            ack_now = false;
            records = [ delta (Wire.D_in_data { cid = 2; data }) ];
          }))

(* Batching trades each record's 16-byte header and 8-byte lsn for a
   4-byte sub-header, at the price of one 4-byte count per frame. *)
let test_batched_record_bytes () =
  let r = tuple one Wire.P_plain in
  let single lsn =
    Wire.message_bytes (Wire.Record { lsn; ack_now = false; record = r })
  in
  (* 16 + 4 + 3 * (4 + 17) against 3 * (24 + 17) *)
  Alcotest.(check int) "batch of three" 83
    (Wire.message_bytes
       (Wire.Batch { base_lsn = 0; ack_now = false; records = [ r; r; r ] }));
  Alcotest.(check int) "three singles" 123 (single 0 + single 1 + single 2)

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "record shapes" `Quick test_record_shapes;
          Alcotest.test_case "fixed sizes" `Quick test_fixed_sizes;
          Alcotest.test_case "max-size frame" `Quick test_max_size_frame;
          Alcotest.test_case "batch saving" `Quick test_batched_record_bytes;
        ] );
    ]
