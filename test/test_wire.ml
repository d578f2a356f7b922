(* Property tests for the Wire binary codec: round-trips (batched frames
   included), the exact size model, truncated-input rejection, and
   max-size frames. *)

open Ftsim_ftlinux
module Payload = Ftsim_sim.Payload
module Packet = Ftsim_netstack.Packet

(* {1 Generators} *)

let gen_host =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) -> Printf.sprintf "%d.%d.%d.%d" a b c d)
      (quad (int_range 0 255) (int_range 0 255) (int_range 0 255)
         (int_range 0 255)))

let gen_addr =
  QCheck.Gen.(
    map
      (fun (host, port) -> { Packet.host; port })
      (pair gen_host (int_range 0 65535)))

let gen_det_payload =
  QCheck.Gen.(
    oneof
      [
        return Wire.P_plain;
        map (fun b -> Wire.P_timed_outcome b) bool;
        map (fun p -> Wire.P_thread_spawn p) (int_range 0 100_000);
        map (fun n -> Wire.P_fs_read_len n) (int_range (-1) 1_000_000);
      ])

let gen_syscall_result =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Wire.R_gettimeofday t) (int_range 0 1_000_000_000_000);
        map (fun cid -> Wire.R_accept cid) (int_range 0 10_000);
        map
          (fun (cid, len) -> Wire.R_read { cid; len })
          (pair (int_range 0 10_000) (int_range (-1) 1_000_000));
        map
          (fun (cid, len) -> Wire.R_write { cid; len })
          (pair (int_range 0 10_000) (int_range (-1) 1_000_000));
        map (fun cid -> Wire.R_close { cid }) (int_range 0 10_000);
        map
          (fun ready -> Wire.R_poll { ready })
          (list_size (int_range 0 16) (int_range 0 64));
      ])

(* Client data as 0-3 chunks: the codec must round-trip the content while
   being free to re-chunk it. *)
let gen_data =
  QCheck.Gen.(
    map
      (List.map Payload.of_string)
      (list_size (int_range 0 3) (string_size ~gen:printable (int_range 1 80))))

let gen_tcp_delta =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (cid, local, remote) -> Wire.D_new_conn { cid; local; remote })
          (triple (int_range 0 10_000) gen_addr gen_addr);
        map
          (fun (cid, data) -> Wire.D_in_data { cid; data })
          (pair (int_range 0 10_000) gen_data);
        map
          (fun (cid, len) -> Wire.D_out_seg { cid; len })
          (pair (int_range 0 10_000) (int_range 0 100_000));
        map
          (fun (cid, snd_una) -> Wire.D_ack_progress { cid; snd_una })
          (pair (int_range 0 10_000) (int_range 0 1_000_000_000));
        map (fun cid -> Wire.D_peer_fin { cid }) (int_range 0 10_000);
      ])

(* (channel, chan_seq) claim sets: 0-3 pairs, ascending channel order as
   the sharded det core emits them. *)
let gen_chans =
  QCheck.Gen.(
    map
      (fun ps -> List.sort compare ps)
      (list_size (int_range 0 3)
         (pair (int_range 0 1000) (int_range 0 1_000_000))))

let gen_record =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (ft_pid, thread_seq, chans, payload) ->
            Wire.Sync_tuple { ft_pid; thread_seq; chans; payload })
          (quad (int_range 0 1000) (int_range 0 1_000_000) gen_chans
             gen_det_payload);
        map
          (fun (ft_pid, sseq, result) ->
            Wire.Syscall_result { ft_pid; sseq; result })
          (triple (int_range 0 1000) (int_range 0 1_000_000) gen_syscall_result);
        map (fun d -> Wire.Tcp_delta d) gen_tcp_delta;
      ])

let gen_message =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun lsn ack_now record -> Wire.Record { lsn; ack_now; record })
            (int_range 0 1_000_000) bool gen_record );
        ( 4,
          map3
            (fun base_lsn ack_now records ->
              Wire.Batch { base_lsn; ack_now; records })
            (int_range 0 1_000_000) bool
            (list_size (int_range 0 40) gen_record) );
        ( 1,
          map2
            (fun upto chans -> Wire.Ack { upto; chans })
            (int_range (-1) 1_000_000) gen_chans );
        ( 1,
          map2
            (fun from_primary seq -> Wire.Heartbeat { from_primary; seq })
            bool (int_range 0 1_000_000) );
      ])

let print_message m =
  match m with
  | Wire.Record { lsn; ack_now; record } ->
      Format.asprintf "Record{lsn=%d%s; %a}" lsn
        (if ack_now then "; ack_now" else "")
        Wire.pp_record record
  | Wire.Batch { base_lsn; ack_now; records } ->
      Format.asprintf "Batch{base=%d%s; [%a]}" base_lsn
        (if ack_now then "; ack_now" else "")
        (Format.pp_print_list Wire.pp_record)
        records
  | Wire.Ack { upto; chans } ->
      Printf.sprintf "Ack{upto=%d; [%s]}" upto
        (String.concat ","
           (List.map (fun (c, s) -> Printf.sprintf "%d:%d" c s) chans))
  | Wire.Heartbeat { from_primary; seq } ->
      Printf.sprintf "Heartbeat{primary=%b; seq=%d}" from_primary seq

let arb_message = QCheck.make ~print:print_message gen_message

(* {1 Properties} *)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips" ~count:500 arb_message
    (fun m ->
      match Wire.decode_message (Wire.encode_message m) with
      | Ok m' -> Wire.equal_message m m'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %a" Wire.pp_decode_error e)

let prop_size_model =
  QCheck.Test.make ~name:"encoded size equals message_bytes" ~count:500
    arb_message (fun m ->
      String.length (Wire.encode_message m) = Wire.message_bytes m)

let prop_truncation =
  QCheck.Test.make ~name:"every proper prefix is rejected as truncated"
    ~count:200 arb_message (fun m ->
      let s = Wire.encode_message m in
      let n = String.length s in
      (* All prefixes for small frames; a deterministic sample for big ones. *)
      let cuts =
        if n <= 128 then List.init n Fun.id
        else List.init 64 (fun i -> i * n / 64)
      in
      List.for_all
        (fun k ->
          match Wire.decode_message (String.sub s 0 k) with
          | Error Wire.Truncated -> true
          | Ok _ | Error (Wire.Malformed _) ->
              QCheck.Test.fail_reportf "prefix of %d/%d bytes not Truncated" k n)
        cuts)

let prop_trailing_garbage =
  QCheck.Test.make ~name:"trailing bytes are rejected as malformed" ~count:200
    arb_message (fun m ->
      match Wire.decode_message (Wire.encode_message m ^ "\x00") with
      | Error (Wire.Malformed _) -> true
      | Ok _ | Error Wire.Truncated -> false)

let prop_bad_magic =
  QCheck.Test.make ~name:"corrupt magic is rejected as malformed" ~count:200
    arb_message (fun m ->
      let s = Bytes.of_string (Wire.encode_message m) in
      Bytes.set s 0 'X';
      match Wire.decode_message (Bytes.to_string s) with
      | Error (Wire.Malformed _) -> true
      | Ok _ | Error Wire.Truncated -> false)

(* {1 Unit cases} *)

let test_fixed_sizes () =
  Alcotest.(check int) "ack frame" 28
    (String.length (Wire.encode_message (Wire.Ack { upto = 7; chans = [] })));
  Alcotest.(check int) "ack frame with cursors" 44
    (String.length
       (Wire.encode_message (Wire.Ack { upto = 7; chans = [ (0, 3); (2, 9) ] })));
  Alcotest.(check int) "heartbeat frame" 24
    (String.length
       (Wire.encode_message (Wire.Heartbeat { from_primary = true; seq = 3 })));
  Alcotest.(check int) "empty batch frame" 20
    (String.length
       (Wire.encode_message
          (Wire.Batch { base_lsn = 0; ack_now = false; records = [] })));
  (* The empty ack_now batch is the pure ack-request poke. *)
  (match
     Wire.decode_message
       (Wire.encode_message
          (Wire.Batch { base_lsn = 9; ack_now = true; records = [] }))
   with
  | Ok (Wire.Batch { base_lsn = 9; ack_now = true; records = [] }) -> ()
  | _ -> Alcotest.fail "ack-request poke did not round-trip")

let test_garbage_inputs () =
  let trunc s =
    match Wire.decode_message s with Error Wire.Truncated -> true | _ -> false
  in
  let malformed s =
    match Wire.decode_message s with
    | Error (Wire.Malformed _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty input" true (trunc "");
  Alcotest.(check bool) "short input" true (trunc "FT\x00");
  Alcotest.(check bool) "zero header" true (malformed (String.make 16 '\x00'));
  (* Valid magic, implausible declared length. *)
  let b = Bytes.make 16 '\x00' in
  Bytes.set b 0 'F';
  Bytes.set b 1 'T';
  Bytes.set_int32_le b 4 (Int32.of_int 2);
  Alcotest.(check bool) "tiny declared length" true (malformed (Bytes.to_string b));
  (* Unknown message kind. *)
  let b =
    Bytes.of_string (Wire.encode_message (Wire.Ack { upto = 1; chans = [] }))
  in
  Bytes.set b 2 '\x09';
  Alcotest.(check bool) "unknown kind" true (malformed (Bytes.to_string b))

(* A batch frame filled to exactly [max_frame_bytes] round-trips; one byte
   more is refused at encode time. *)
let test_max_size_frame () =
  let data_record len =
    Wire.Tcp_delta
      (Wire.D_in_data { cid = 1; data = [ Payload.of_string (String.make len 'x') ] })
  in
  (* Batch of one data record: 16 header + 4 count + 4 sub-header + (4 cid
     + len) bytes of fields. *)
  let len = Wire.max_frame_bytes - 28 in
  let m =
    Wire.Batch { base_lsn = 5; ack_now = false; records = [ data_record len ] }
  in
  Alcotest.(check int) "modelled size is the cap" Wire.max_frame_bytes
    (Wire.message_bytes m);
  let s = Wire.encode_message m in
  Alcotest.(check int) "encoded size is the cap" Wire.max_frame_bytes
    (String.length s);
  (match Wire.decode_message s with
  | Ok m' -> Alcotest.(check bool) "round-trips" true (Wire.equal_message m m')
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_decode_error e);
  let over =
    Wire.Batch
      { base_lsn = 5; ack_now = false; records = [ data_record (len + 1) ] }
  in
  Alcotest.check_raises "oversize frame refused"
    (Invalid_argument
       (Printf.sprintf "Wire.encode_message: frame of %d bytes exceeds max %d"
          (Wire.max_frame_bytes + 1) Wire.max_frame_bytes))
    (fun () -> ignore (Wire.encode_message over))

let test_batched_record_bytes () =
  let r =
    Wire.Sync_tuple
      { ft_pid = 1; thread_seq = 2; chans = [ (0, 3) ]; payload = Wire.P_plain }
  in
  (* A batched record saves header - sub_header bytes vs. standalone. *)
  Alcotest.(check int) "sub-header saving"
    (Wire.record_bytes r - Wire.header + Wire.batch_sub_header)
    (Wire.batched_record_bytes r);
  let batch = Wire.Batch { base_lsn = 0; ack_now = false; records = [ r; r; r ] } in
  let singles =
    List.init 3 (fun i ->
        Wire.message_bytes (Wire.Record { lsn = i; ack_now = false; record = r }))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "batch smaller than singles" true
    (Wire.message_bytes batch < singles)

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "fixed sizes" `Quick test_fixed_sizes;
          Alcotest.test_case "garbage inputs" `Quick test_garbage_inputs;
          Alcotest.test_case "max-size frame" `Quick test_max_size_frame;
          Alcotest.test_case "batch saving" `Quick test_batched_record_bytes;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_size_model;
          QCheck_alcotest.to_alcotest prop_truncation;
          QCheck_alcotest.to_alcotest prop_trailing_garbage;
          QCheck_alcotest.to_alcotest prop_bad_magic;
        ] );
    ]
