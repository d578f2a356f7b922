(* Tests for the network stack: payload buffers, link, NIC, TCP, HTTP. *)

open Ftsim_sim
open Ftsim_netstack

let run_sim ?(seed = 42) f =
  let eng = Engine.create ~seed () in
  let result = ref None in
  ignore (Engine.spawn eng ~name:"test-main" (fun () -> result := Some (f eng)));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not complete"

(* [Tcp.accept] returns [None] once the listener is closed; these tests all
   accept on live listeners. *)
let accept_exn l =
  match Tcp.accept l with
  | Some c -> c
  | None -> Alcotest.fail "accept: listener closed"

(* {1 Payload} *)

let test_payload_split () =
  let c = Payload.of_string "hello world" in
  let a, b = Payload.split_chunk c 5 in
  Alcotest.(check string) "head" "hello" (Payload.chunk_to_string a);
  Alcotest.(check string) "tail" " world" (Payload.chunk_to_string b);
  let z = Payload.zeroes 10 in
  let za, zb = Payload.split_chunk z 3 in
  Alcotest.(check (pair int int)) "zero split lengths" (3, 7)
    (Payload.chunk_len za, Payload.chunk_len zb)

let test_payload_buf_take () =
  let b = Payload.Buf.create () in
  Payload.Buf.append b (Payload.of_string "abc");
  Payload.Buf.append b (Payload.of_string "defgh");
  let got = Payload.Buf.take b 4 in
  Alcotest.(check string) "first 4" "abcd" (Payload.concat_to_string got);
  Alcotest.(check int) "base advanced" 4 (Payload.Buf.base b);
  Alcotest.(check string) "rest" "efgh" (Payload.Buf.to_string b)

let test_payload_buf_peek_range () =
  let b = Payload.Buf.create ~base:100 () in
  Payload.Buf.append b (Payload.of_string "0123456789");
  let got = Payload.Buf.peek_range b ~off:103 ~len:4 in
  Alcotest.(check string) "mid-range" "3456" (Payload.concat_to_string got);
  (* Peek does not consume. *)
  Alcotest.(check int) "length intact" 10 (Payload.Buf.length b);
  (* Clamped at both ends. *)
  let clamped = Payload.Buf.peek_range b ~off:95 ~len:7 in
  Alcotest.(check string) "clamped to base" "01" (Payload.concat_to_string clamped)

let test_payload_buf_drop_to () =
  let b = Payload.Buf.create () in
  Payload.Buf.append b (Payload.zeroes 1000);
  Payload.Buf.drop_to b 400;
  Alcotest.(check (pair int int)) "base/len after ack-trim" (400, 600)
    (Payload.Buf.base b, Payload.Buf.length b);
  Payload.Buf.drop_to b 300 (* below base: no-op *);
  Alcotest.(check int) "no rewind" 400 (Payload.Buf.base b)

let prop_payload_buf_append_take =
  QCheck.Test.make ~name:"Buf.take returns appended bytes in order" ~count:100
    QCheck.(list (string_of_size (Gen.int_range 1 20)))
    (fun strings ->
      QCheck.assume (strings <> []);
      let b = Payload.Buf.create () in
      List.iter (fun s -> Payload.Buf.append b (Payload.of_string s)) strings;
      let all = String.concat "" strings in
      let out = Buffer.create 64 in
      let rec drain () =
        match Payload.Buf.take b 3 with
        | [] -> ()
        | cs ->
            Buffer.add_string out (Payload.concat_to_string cs);
            drain ()
      in
      drain ();
      Buffer.contents out = all)

(* A chunk-list model of [Buf]: [take] splits the head chunk and keeps its
   tail, [peek_range] splits at the window's edges.  The buffer must return
   the same chunks, split at the same bytes, and agree on every offset. *)
module Ref_buf = struct
  type t = { mutable cs : Payload.chunk list; mutable base : int }

  let length t = Payload.total_len t.cs

  let append t c = if Payload.chunk_len c > 0 then t.cs <- t.cs @ [ c ]

  let take t n =
    let rec go n = function
      | c :: rest when n > 0 ->
          let cl = Payload.chunk_len c in
          if cl <= n then
            let taken, left = go (n - cl) rest in
            (c :: taken, left)
          else
            let hd, tl = Payload.split_chunk c n in
            ([ hd ], tl :: rest)
      | cs -> ([], cs)
    in
    let n = min n (length t) in
    let taken, left = go n t.cs in
    t.cs <- left;
    t.base <- t.base + n;
    taken

  let drop_to t off = ignore (take t (max 0 (min (off - t.base) (length t))))

  let peek_range t ~off ~len =
    let start = max t.base off and stop = min (t.base + length t) (off + len) in
    let rec go skip want = function
      | c :: rest when want > 0 ->
          let cl = Payload.chunk_len c in
          if skip >= cl then go (skip - cl) want rest
          else
            let c = if skip > 0 then snd (Payload.split_chunk c skip) else c in
            let n = min (cl - skip) want in
            let c = if n < cl - skip then fst (Payload.split_chunk c n) else c in
            c :: go 0 (want - n) rest
      | _ -> []
    in
    if stop <= start then [] else go (start - t.base) (stop - start) t.cs
end

type buf_op =
  | B_append of bool * string  (* synthetic zeroes of that length, or the string *)
  | B_take of int
  | B_drop of int  (* to [base + n] *)
  | B_peek of int * int  (* from [base + off] *)

let buf_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun z s -> B_append (z, s)) bool (string_size ~gen:printable (int_range 0 9)));
        (2, map (fun n -> B_take n) (int_range 0 25));
        (2, map (fun n -> B_drop n) (int_range (-3) 25));
        (3, map2 (fun o l -> B_peek (o, l)) (int_range (-4) 30) (int_range 0 30));
      ])

let prop_payload_buf_matches_model =
  QCheck.Test.make ~name:"Buf matches the chunk-list model" ~count:300
    QCheck.(pair small_nat (make Gen.(list_size (int_range 0 60) buf_op_gen)))
    (fun (base, ops) ->
      let b = Payload.Buf.create ~base () and m = { Ref_buf.cs = []; base } in
      List.for_all
        (fun op ->
          let same =
            match op with
            | B_append (z, s) ->
                let c = if z then Payload.zeroes (String.length s) else Payload.of_string s in
                Payload.Buf.append b c;
                Ref_buf.append m c;
                true
            | B_take n -> Payload.Buf.take b n = Ref_buf.take m n
            | B_drop n ->
                Payload.Buf.drop_to b (m.Ref_buf.base + n);
                Ref_buf.drop_to m (m.Ref_buf.base + n);
                true
            | B_peek (o, len) ->
                let off = m.Ref_buf.base + o in
                Payload.Buf.peek_range b ~off ~len = Ref_buf.peek_range m ~off ~len
          in
          same
          && Payload.Buf.base b = m.Ref_buf.base
          && Payload.Buf.length b = Ref_buf.length m
          && Payload.Buf.limit b = m.Ref_buf.base + Ref_buf.length m
          && Payload.Buf.to_string b = Payload.concat_to_string m.Ref_buf.cs)
        ops)

(* {1 Link} *)

let test_link_latency_and_serialization () =
  let v =
    run_sim (fun eng ->
        let link =
          Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()
        in
        let a = Link.endpoint_a link and b = Link.endpoint_b link in
        let arrivals = ref [] in
        Link.set_receiver b (Some (fun pkt ->
            arrivals := (Engine.now eng, Packet.payload_len pkt) :: !arrivals));
        let addr h = { Packet.host = h; port = 1 } in
        let mk n =
          {
            Packet.src = addr "a";
            dst = addr "b";
            seq = 0;
            ack_seq = 0;
            window = 0;
            flags = Packet.data_flags;
            payload = [ Payload.zeroes n ];
          }
        in
        (* 1434+66 = 1500 bytes = 12 us at 1 Gb/s *)
        Link.transmit a (mk 1434);
        Link.transmit a (mk 1434);
        Engine.sleep (Time.ms 1);
        List.rev !arrivals)
  in
  match v with
  | [ (t1, _); (t2, _) ] ->
      Alcotest.(check int) "first: 12us ser + 100us prop" (Time.us 112) t1;
      Alcotest.(check int) "second serialized behind first" (Time.us 124) t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_drops_without_receiver () =
  let v =
    run_sim (fun eng ->
        let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 1) () in
        let a = Link.endpoint_a link and b = Link.endpoint_b link in
        let addr h = { Packet.host = h; port = 1 } in
        Link.transmit a
          {
            Packet.src = addr "a";
            dst = addr "b";
            seq = 0;
            ack_seq = 0;
            window = 0;
            flags = Packet.data_flags;
            payload = [];
          };
        Engine.sleep (Time.ms 1);
        Link.dropped b)
  in
  Alcotest.(check int) "dropped at receiverless endpoint" 1 v

(* {1 TCP setup helpers} *)

let make_pair eng =
  let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
  let server_env = Netenv.plain eng in
  let server = Tcp.create server_env ~ip:"10.0.0.1" () in
  let snic = Nic.create eng ~driver_load_time:0 (Link.endpoint_a link) in
  Tcp.attach_nic server snic;
  let client_host = Host.create eng ~ip:"10.0.0.2" (Link.endpoint_b link) in
  (server, Host.stack client_host, link, snic)

let test_tcp_connect_accept () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let got = ref None in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               got := Some (Tcp.remote_addr c)));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Engine.sleep (Time.ms 1);
        (Tcp.is_established c, !got))
  in
  match v with
  | true, Some addr ->
      Alcotest.(check string) "server sees client ip" "10.0.0.2" addr.Packet.host
  | _ -> Alcotest.fail "handshake failed"

let test_tcp_echo () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let rec echo () =
                 match Tcp.recv c ~max:4096 with
                 | [] -> Tcp.close c
                 | cs ->
                     List.iter (Tcp.send c) cs;
                     echo ()
               in
               echo ()));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.of_string "ping-1 ");
        Tcp.send c (Payload.of_string "ping-2");
        let out = Buffer.create 16 in
        while Buffer.length out < 13 do
          let cs = Tcp.recv c ~max:64 in
          Buffer.add_string out (Payload.concat_to_string cs)
        done;
        Buffer.contents out)
  in
  Alcotest.(check string) "echoed" "ping-1 ping-2" v

(* Two clients on different hosts connect from the same ephemeral port to
   the same server port: the server tells their connections apart by
   remote host alone.  Each client's link is forwarded straight into the
   server, and the server's replies are routed back by destination. *)
let test_tcp_demux_by_host () =
  let v =
    run_sim (fun eng ->
        let link () = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
        let l0 = link () and l1 = link () and l2 = link () in
        let server = Tcp.create (Netenv.plain eng) ~ip:"10.0.0.1" () in
        Tcp.attach_nic server (Nic.create eng ~driver_load_time:0 (Link.endpoint_a l0));
        let c1 = Host.stack (Host.create eng ~ip:"10.0.0.2" (Link.endpoint_b l1)) in
        let c2 = Host.stack (Host.create eng ~ip:"10.0.0.3" (Link.endpoint_b l2)) in
        List.iter
          (fun l -> Link.set_receiver (Link.endpoint_a l) (Some (Tcp.rx_callback server)))
          [ l1; l2 ];
        Link.set_receiver (Link.endpoint_b l0)
          (Some
             (fun pkt ->
               let l = if pkt.Packet.dst.Packet.host = "10.0.0.2" then l1 else l2 in
               Link.transmit (Link.endpoint_a l) pkt));
        let l = Tcp.listen server ~port:80 in
        for _ = 1 to 2 do
          ignore
            (Engine.spawn eng (fun () ->
                 let c = accept_exn l in
                 let rec echo () =
                   match Tcp.recv c ~max:4096 with
                   | [] -> Tcp.close c
                   | cs ->
                       List.iter (Tcp.send c) cs;
                       echo ()
                 in
                 echo ()))
        done;
        let talk client msg =
          let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
          Tcp.send c (Payload.of_string msg);
          (c, msg)
        in
        let conns = [ talk c1 "from-two"; talk c2 "from-three" ] in
        List.map
          (fun (c, msg) ->
            let out = Buffer.create 16 in
            while Buffer.length out < String.length msg do
              Buffer.add_string out (Payload.concat_to_string (Tcp.recv c ~max:64))
            done;
            ((Tcp.local_addr c).Packet.port, Buffer.contents out))
          conns)
  in
  match v with
  | [ (p1, e1); (p2, e2) ] ->
      Alcotest.(check int) "same ephemeral port" p1 p2;
      Alcotest.(check (pair string string)) "each echo reaches its own client"
        ("from-two", "from-three") (e1, e2)
  | _ -> Alcotest.fail "two connections expected"

let test_tcp_bulk_transfer_integrity () =
  (* 1 MB with byte-accurate segmentation across many MSS boundaries. *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let total = 1_000_000 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let sent = ref 0 in
               while !sent < total do
                 let n = min 37_000 (total - !sent) in
                 Tcp.send c (Payload.zeroes n);
                 sent := !sent + n
               done;
               Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let received = ref 0 in
        let eof = ref false in
        while not !eof do
          match Tcp.recv c ~max:65536 with
          | [] -> eof := true
          | cs -> received := !received + Payload.total_len cs
        done;
        !received)
  in
  Alcotest.(check int) "all bytes delivered exactly once" 1_000_000 v

let test_tcp_throughput_near_line_rate () =
  (* 10 MB over 1 Gb/s should take ~85-90 ms (wire overhead included). *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let total = 10_000_000 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let sent = ref 0 in
               while !sent < total do
                 let n = min 65_536 (total - !sent) in
                 Tcp.send c (Payload.zeroes n);
                 sent := !sent + n
               done;
               Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let t0 = Engine.now eng in
        let eof = ref false in
        let received = ref 0 in
        while not !eof do
          match Tcp.recv c ~max:65536 with
          | [] -> eof := true
          | cs -> received := !received + Payload.total_len cs
        done;
        let dt = Time.to_sec_f (Engine.now eng - t0) in
        (!received, float_of_int !received /. dt /. 1e6))
  in
  let received, mbps = v in
  Alcotest.(check int) "complete" 10_000_000 received;
  Alcotest.(check bool)
    (Printf.sprintf "rate %.1f MB/s in [90, 125]" mbps)
    true
    (mbps > 90.0 && mbps <= 125.5)

let test_tcp_window_limits_inflight () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let reader_started = ref false in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               (* Do not read: the sender must stall at rwnd. *)
               Engine.sleep (Time.sec 1);
               reader_started := true;
               let rec drain () =
                 match Tcp.recv c ~max:65536 with [] -> () | _ -> drain ()
               in
               drain ()));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.zeroes 1_000_000);
        Engine.sleep (Time.ms 500);
        (* snd_nxt cannot run past rwnd while the receiver sleeps. *)
        let inflight = Tcp.snd_nxt c - Tcp.snd_una c in
        Tcp.close c;
        inflight)
  in
  Alcotest.(check bool) "in-flight bounded by 64K window" true (v <= 64 * 1024)

let test_tcp_fin_both_ways () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let server_saw_eof = ref false in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let rec drain () =
                 match Tcp.recv c ~max:4096 with
                 | [] -> server_saw_eof := true
                 | _ -> drain ()
               in
               drain ();
               Tcp.send c (Payload.of_string "bye");
               Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.of_string "hello");
        Tcp.close c;
        let out = Buffer.create 8 in
        let eof = ref false in
        while not !eof do
          match Tcp.recv c ~max:64 with
          | [] -> eof := true
          | cs -> Buffer.add_string out (Payload.concat_to_string cs)
        done;
        Engine.sleep (Time.sec 1);
        (!server_saw_eof, Buffer.contents out))
  in
  Alcotest.(check (pair bool string)) "clean bidirectional close" (true, "bye") v

let test_tcp_send_after_close_raises () =
  run_sim (fun eng ->
      let server, client, _, _ = make_pair eng in
      let _l = Tcp.listen server ~port:80 in
      let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
      Tcp.close c;
      match Tcp.send c (Payload.of_string "x") with
      | exception Tcp.Connection_closed -> ()
      | () -> Alcotest.fail "expected Connection_closed")

let test_tcp_retransmit_through_nic_outage () =
  (* Kill the server NIC for a while mid-transfer; the client's RTO should
     recover everything once it is re-attached — the foundation of the
     failover experiment. *)
  let v =
    run_sim (fun eng ->
        let server, client, _link, snic = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let got = Buffer.create 64 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let rec drain () =
                 match Tcp.recv c ~max:4096 with
                 | [] -> ()
                 | cs ->
                     Buffer.add_string got (Payload.concat_to_string cs);
                     drain ()
               in
               drain ()));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.of_string "before|");
        Engine.sleep (Time.ms 10);
        (* Outage: server NIC loses its driver. *)
        Nic.detach snic;
        Tcp.send c (Payload.of_string "during|");
        Engine.sleep (Time.ms 500);
        Nic.attach snic ~rx:(Tcp.rx_callback server) ();
        Tcp.send c (Payload.of_string "after");
        Engine.sleep (Time.sec 2);
        Buffer.contents got)
  in
  Alcotest.(check string) "no loss, no duplication" "before|during|after" v

let test_tcp_rto_survives_outage_without_new_sends () =
  (* Regression: a write stalled by a NIC outage must eventually be
     retransmitted by the RTO watchdog alone — with no later application
     send to re-arm it.  (The watchdog once parked permanently when its
     outstanding-data check raced the sender.) *)
  let v =
    run_sim (fun eng ->
        let server, client, _link, snic = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let got = Buffer.create 16 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let rec drain () =
                 match Tcp.recv c ~max:4096 with
                 | [] -> ()
                 | cs ->
                     Buffer.add_string got (Payload.concat_to_string cs);
                     drain ()
               in
               drain ()));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Nic.detach snic;
        (* The only send, straight into the outage. *)
        Tcp.send c (Payload.of_string "lonely-message");
        Engine.sleep (Time.ms 700);
        Nic.attach snic ~rx:(Tcp.rx_callback server) ();
        Engine.sleep (Time.sec 2);
        Buffer.contents got)
  in
  Alcotest.(check string) "RTO alone recovered the data" "lonely-message" v

let test_tcp_integrity_under_packet_loss () =
  (* 2% i.i.d. loss on the wire: go-back-N plus cumulative ACKs must still
     deliver the stream exactly once. *)
  let v =
    run_sim (fun eng ->
        let link =
          Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
            ~loss:0.02 ()
        in
        let env = Netenv.plain eng in
        let server = Tcp.create env ~ip:"10.0.0.1" () in
        let snic = Nic.create eng ~driver_load_time:0 (Link.endpoint_a link) in
        Tcp.attach_nic server snic;
        let ch = Host.create eng ~ip:"10.0.0.2" (Link.endpoint_b link) in
        let client = Host.stack ch in
        let l = Tcp.listen server ~port:80 in
        let total = 3_000_000 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let sent = ref 0 in
               while !sent < total do
                 let n = min 48_000 (total - !sent) in
                 Tcp.send c (Payload.zeroes n);
                 sent := !sent + n
               done;
               Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let received = ref 0 in
        let eof = ref false in
        while not !eof do
          match Tcp.recv c ~max:65536 with
          | [] -> eof := true
          | cs -> received := !received + Payload.total_len cs
        done;
        (!received, Link.lost (Link.endpoint_b link) + Link.lost (Link.endpoint_a link)))
  in
  let received, lost = v in
  Alcotest.(check int) "exactly once despite loss" 3_000_000 received;
  Alcotest.(check bool) (Printf.sprintf "loss actually occurred (%d)" lost) true
    (lost > 10)

let test_tcp_restore_resumes_transfer () =
  (* Simulate the failover hand-off: a second server stack takes over the
     connection from logical state and finishes the stream. *)
  let v =
    run_sim (fun eng ->
        let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
        let env = Netenv.plain eng in
        let server1 = Tcp.create env ~ip:"10.0.0.1" () in
        let snic = Nic.create eng ~driver_load_time:0 (Link.endpoint_a link) in
        Tcp.attach_nic server1 snic;
        let client_host = Host.create eng ~ip:"10.0.0.2" (Link.endpoint_b link) in
        let client = Host.stack client_host in
        let l = Tcp.listen server1 ~port:80 in
        let sconn = ref None in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               sconn := Some c;
               (* Send 200 KB, then the "primary" will die. *)
               Tcp.send c (Payload.zeroes 200_000)));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let received = ref 0 in
        ignore
          (Engine.spawn eng (fun () ->
               let eof = ref false in
               while not !eof do
                 match Tcp.recv c ~max:65536 with
                 | [] -> eof := true
                 | cs -> received := !received + Payload.total_len cs
               done));
        Engine.sleep (Time.ms 1);
        (* "Crash": freeze server1 by detaching the NIC and aborting. *)
        let old = Option.get !sconn in
        Nic.detach snic;
        Tcp.abort old;
        let acked = Tcp.snd_una old in
        (* New stack takes over with the unacked suffix of the stream.  The
           full stream is 200 KB of zeroes; the replica regenerates it. *)
        let server2 = Tcp.create env ~ip:"10.0.0.1" () in
        Engine.sleep (Time.ms 300);
        let nic2 = Nic.create eng ~driver_load_time:0 (Link.endpoint_a link) in
        Tcp.attach_nic server2 nic2;
        let restored =
          Tcp.restore server2
            {
              Tcp.l_local = Tcp.local_addr old;
              l_remote = Tcp.remote_addr old;
              l_snd_una = acked;
              l_rcv_nxt = Tcp.rcv_nxt old;
              l_unacked = [ Payload.zeroes (200_000 - acked) ];
              l_unread = [];
              l_peer_fin = false;
            }
        in
        Tcp.close restored;
        Engine.sleep (Time.sec 3);
        (acked, !received))
  in
  let acked, received = v in
  Alcotest.(check bool) "crash happened mid-stream" true (acked < 200_000);
  Alcotest.(check int) "client got exactly the full stream" 200_000 received

let test_tcp_poll_readiness () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let sconns = ref [] in
        ignore
          (Engine.spawn eng (fun () ->
               for _ = 1 to 2 do
                 sconns := accept_exn l :: !sconns
               done));
        let c1 = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let c2 = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Engine.sleep (Time.ms 1);
        (* Nothing readable yet: poll should time out. *)
        let empty = Tcp.poll ~deadline:(Engine.now eng + Time.ms 2) [ c1; c2 ] in
        (* Make exactly c2 readable via the server echoing on its side. *)
        (match !sconns with
        | [ s2'; _s1' ] -> ignore s2'
        | _ -> ());
        ignore
          (Engine.spawn eng (fun () ->
               (* server writes to the second accepted conn = c2 *)
               match !sconns with
               | [ s2'; _ ] -> Tcp.send s2' (Payload.of_string "hi")
               | _ -> ()));
        let ready = Tcp.poll ~deadline:(Engine.now eng + Time.sec 1) [ c1; c2 ] in
        (List.length empty, List.map (fun c -> Tcp.conn_id c = Tcp.conn_id c2) ready))
  in
  let empty, ready = v in
  Alcotest.(check int) "timeout with nothing ready" 0 empty;
  Alcotest.(check (list bool)) "exactly c2 ready" [ true ] ready

let test_tcp_poll_eof_is_ready () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let ready = Tcp.poll ~deadline:(Engine.now eng + Time.sec 5) [ c ] in
        (List.length ready, Tcp.recv c ~max:10))
  in
  Alcotest.(check bool) "EOF polls ready and reads as EOF" true (v = (1, []))

(* {1 Listener groups} *)

let prop_shard_of_tuple =
  QCheck.Test.make ~name:"shard_of_tuple is stable and in range" ~count:500
    QCheck.(
      quad (int_range 0 255) (int_range 1 65535) (int_range 1 65535)
        (int_range 1 16))
    (fun (oct, rport, lport, shards) ->
      let remote =
        { Packet.host = Printf.sprintf "10.0.%d.%d" (oct / 16) oct; port = rport }
      in
      let s = Tcp.shard_of_tuple ~remote ~port:lport ~shards in
      s >= 0 && s < shards
      && s = Tcp.shard_of_tuple ~remote ~port:lport ~shards
      && (shards <> 1 || s = 0))

let test_shard_of_tuple_balanced () =
  (* A thousand ephemeral client ports from one host must spread across a
     4-shard group: no shard starved, no shard hogging.  Exact counts are
     pinned by the hash, so a fair-but-lumpy split stays stable. *)
  let shards = 4 in
  let counts = Array.make shards 0 in
  for cport = 10_000 to 10_999 do
    let remote = { Packet.host = "10.0.0.9"; port = cport } in
    let s = Tcp.shard_of_tuple ~remote ~port:80 ~shards in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d holds a fair share (%d of 1000)" i n)
        true
        (n >= 150 && n <= 350))
    counts;
  Alcotest.(check int) "every tuple routed" 1000
    (Array.fold_left ( + ) 0 counts)

let test_listen_group_routes_by_tuple () =
  (* Each accepted connection must land on the shard its 4-tuple hashes
     to — the property that lets a restored connection find the same
     queue on the promoted replica. *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let shards = 4 in
        let ls = Tcp.listen_group server ~port:80 ~shards () in
        let seen = ref [] in
        Array.iter
          (fun l ->
            ignore
              (Engine.spawn eng (fun () ->
                   let rec loop () =
                     match Tcp.accept l with
                     | None -> ()
                     | Some c ->
                         seen :=
                           (Tcp.listener_shard l, Tcp.remote_addr c) :: !seen;
                         loop ()
                   in
                   loop ())))
          ls;
        for _ = 1 to 12 do
          ignore (Tcp.connect client ~host:"10.0.0.1" ~port:80)
        done;
        Engine.sleep (Time.ms 5);
        !seen)
  in
  Alcotest.(check int) "all 12 connections accepted" 12 (List.length v);
  List.iter
    (fun (shard, remote) ->
      Alcotest.(check int)
        (Printf.sprintf "conn from port %d accepted on its hash shard"
           remote.Packet.port)
        (Tcp.shard_of_tuple ~remote ~port:80 ~shards:4)
        shard)
    v

let test_overflow_drop_retries_later () =
  (* [`Drop]: the overflowing SYN vanishes; the client's handshake stalls
     until a retransmitted SYN finds a freed backlog slot. *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let ls =
          Tcp.listen_group server ~port:80 ~shards:1 ~backlog:1
            ~overflow:`Drop ()
        in
        (* First connection fills the single backlog slot (established,
           unclaimed).  Second SYN must be dropped. *)
        let c1 = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let second = ref None in
        ignore
          (Engine.spawn eng (fun () ->
               second := Some (Tcp.connect client ~host:"10.0.0.1" ~port:80)));
        Engine.sleep (Time.ms 50);
        let stalled = !second = None in
        let drops_at_50ms = Tcp.accept_overflow_drop server in
        (* Claim the first connection: the slot frees, and the client's SYN
           retransmission (RTO 200 ms) completes the second handshake. *)
        let accepted = Tcp.accept ls.(0) in
        Engine.sleep (Time.ms 400);
        ( stalled,
          drops_at_50ms,
          accepted <> None,
          (match !second with Some c -> Tcp.is_established c | None -> false),
          Tcp.is_established c1 ))
  in
  let stalled, drops, first_accepted, second_established, first_alive = v in
  Alcotest.(check bool) "second connect stalled while backlog full" true stalled;
  Alcotest.(check bool) "dropped SYNs counted" true (drops >= 1);
  Alcotest.(check bool) "first connection accepted" true first_accepted;
  Alcotest.(check bool) "second connect succeeded after retry" true
    second_established;
  Alcotest.(check bool) "first connection unharmed" true first_alive

let test_overflow_reset_fails_connect () =
  (* [`Reset]: the overflowing SYN is answered with an RST, so the client's
     connect fails immediately instead of stalling. *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let _ls =
          Tcp.listen_group server ~port:80 ~shards:1 ~backlog:1
            ~overflow:`Reset ()
        in
        let c1 = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        let outcome = ref `Pending in
        ignore
          (Engine.spawn eng (fun () ->
               match Tcp.connect client ~host:"10.0.0.1" ~port:80 with
               | _ -> outcome := `Established
               | exception Tcp.Connection_closed -> outcome := `Refused));
        Engine.sleep (Time.ms 50);
        (!outcome, Tcp.accept_overflow_rst server, Tcp.is_established c1))
  in
  let outcome, rsts, first_alive = v in
  Alcotest.(check bool) "second connect refused with RST" true
    (outcome = `Refused);
  Alcotest.(check bool) "refused SYNs counted" true (rsts >= 1);
  Alcotest.(check bool) "first connection unharmed" true first_alive

let test_close_listener_drains_then_none () =
  (* Closing the group: queued-but-unclaimed connections drain first, then
     every accept returns [None]. *)
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Engine.sleep (Time.ms 1);
        Tcp.close_listener l;
        let first = Tcp.accept l in
        let second = Tcp.accept l in
        ignore c;
        (first <> None, second = None))
  in
  Alcotest.(check (pair bool bool)) "drain then None" (true, true) v

let test_requeue_restored_reaches_acceptor () =
  (* A restored connection the old application never accepted must be
     requeued onto the shard its 4-tuple hashes to, where a fresh accept
     picks it up — the failover path for connections that died in the
     primary's accept queue. *)
  let v =
    run_sim (fun eng ->
        let server, _client, _, _ = make_pair eng in
        let shards = 4 in
        let ls = Tcp.listen_group server ~port:80 ~shards () in
        let remote = { Packet.host = "10.0.0.9"; port = 5555 } in
        let c =
          Tcp.restore server
            {
              Tcp.l_local = { Packet.host = "10.0.0.1"; port = 80 };
              l_remote = remote;
              l_snd_una = 0;
              l_rcv_nxt = 0;
              l_unacked = [];
              l_unread = [];
              l_peer_fin = false;
            }
        in
        let expected = Tcp.shard_of_tuple ~remote ~port:80 ~shards in
        let got = ref None in
        ignore
          (Engine.spawn eng (fun () -> got := Tcp.accept ls.(expected)));
        Tcp.requeue_restored server c;
        Engine.sleep (Time.ms 1);
        let requeues =
          Evlog.Query.filter ~comp:"net.tcp" ~name:"accept.requeue"
            (Evlog.events (Engine.evlog eng))
        in
        ( (match !got with Some g -> Tcp.conn_id g = Tcp.conn_id c | None -> false),
          List.length requeues ))
  in
  let accepted_same, requeues = v in
  Alcotest.(check bool) "acceptor received the restored connection" true
    accepted_same;
  Alcotest.(check int) "requeue event emitted" 1 requeues

(* {1 HTTP} *)

let test_http_request_response () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let r = Http.reader c in
               match Http.read_headers r with
               | None -> ()
               | Some hdr ->
                   let target = Option.value ~default:"?" (Http.request_target hdr) in
                   let body = Printf.sprintf "you asked for %s" target in
                   Tcp.send c
                     (Payload.of_string
                        (Http.response_header ~content_length:(String.length body) ()));
                   Tcp.send c (Payload.of_string body);
                   Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target:"/index.html"));
        let r = Http.reader c in
        match Http.read_headers r with
        | None -> Alcotest.fail "no response"
        | Some hdr ->
            let len = Option.value ~default:0 (Http.content_length hdr) in
            let body = Payload.concat_to_string (Http.read_body r len) in
            (Option.value ~default:0 (Http.status_code hdr), body))
  in
  Alcotest.(check (pair int string))
    "request served" (200, "you asked for /index.html") v

let test_http_large_body_zero_copy () =
  let v =
    run_sim (fun eng ->
        let server, client, _, _ = make_pair eng in
        let l = Tcp.listen server ~port:80 in
        let size = 5_000_000 in
        ignore
          (Engine.spawn eng (fun () ->
               let c = accept_exn l in
               let r = Http.reader c in
               match Http.read_headers r with
               | None -> ()
               | Some _ ->
                   Tcp.send c
                     (Payload.of_string (Http.response_header ~content_length:size ()));
                   let sent = ref 0 in
                   while !sent < size do
                     let n = min 65536 (size - !sent) in
                     Tcp.send c (Payload.zeroes n);
                     sent := !sent + n
                   done;
                   Tcp.close c));
        let c = Tcp.connect client ~host:"10.0.0.1" ~port:80 in
        Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target:"/big"));
        let r = Http.reader c in
        match Http.read_headers r with
        | None -> Alcotest.fail "no response"
        | Some hdr ->
            let len = Option.value ~default:0 (Http.content_length hdr) in
            Http.skip_body r len)
  in
  Alcotest.(check int) "full body streamed" 5_000_000 v

(* A response that arrives one byte per read: the header is found, the body
   comes back as the very chunks that arrived, and each chunk costs a
   bounded number of words however many came before it. *)
let test_http_one_byte_chunks () =
  let n = 10_000 in
  let head = Http.response_header ~content_length:n () in
  let body = List.init n (fun i -> Payload.of_string (String.make 1 (Char.chr (i land 127)))) in
  let bytes = List.init (String.length head) (fun i -> Payload.of_string (String.make 1 head.[i])) in
  let reader () =
    let feed = ref (bytes @ body) in
    Http.reader_fn (fun _max ->
        match !feed with
        | c :: rest ->
            feed := rest;
            [ c ]
        | [] -> [])
  in
  let r = reader () in
  Alcotest.(check (option int)) "header found" (Some n)
    (Option.bind (Http.read_headers r) Http.content_length);
  let w0 = Gc.minor_words () in
  let got = Http.read_body r n in
  let per_chunk = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "the chunks that arrived, in order" true
    (List.length got = n && List.for_all2 ( == ) got body);
  if per_chunk > 32. then Alcotest.failf "%.1f words per chunk read" per_chunk;
  let r = reader () in
  ignore (Http.read_headers r);
  Alcotest.(check int) "skip counts every byte" n (Http.skip_body r (n + 5));
  Alcotest.(check (list int)) "nothing left" [] (List.map Payload.chunk_len (Http.read_body r 1))

let () =
  Alcotest.run "netstack"
    [
      ( "payload",
        [
          Alcotest.test_case "split" `Quick test_payload_split;
          Alcotest.test_case "buf take" `Quick test_payload_buf_take;
          Alcotest.test_case "buf peek range" `Quick test_payload_buf_peek_range;
          Alcotest.test_case "buf drop_to" `Quick test_payload_buf_drop_to;
          QCheck_alcotest.to_alcotest prop_payload_buf_append_take;
          QCheck_alcotest.to_alcotest prop_payload_buf_matches_model;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency+serialization" `Quick
            test_link_latency_and_serialization;
          Alcotest.test_case "drops without receiver" `Quick
            test_link_drops_without_receiver;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect/accept" `Quick test_tcp_connect_accept;
          Alcotest.test_case "echo" `Quick test_tcp_echo;
          Alcotest.test_case "demux by remote host" `Quick test_tcp_demux_by_host;
          Alcotest.test_case "bulk integrity" `Quick test_tcp_bulk_transfer_integrity;
          Alcotest.test_case "near line rate" `Quick
            test_tcp_throughput_near_line_rate;
          Alcotest.test_case "window bounds in-flight" `Quick
            test_tcp_window_limits_inflight;
          Alcotest.test_case "FIN both ways" `Quick test_tcp_fin_both_ways;
          Alcotest.test_case "send after close" `Quick test_tcp_send_after_close_raises;
          Alcotest.test_case "retransmit through NIC outage" `Quick
            test_tcp_retransmit_through_nic_outage;
          Alcotest.test_case "RTO alone recovers stalled write" `Quick
            test_tcp_rto_survives_outage_without_new_sends;
          Alcotest.test_case "integrity under packet loss" `Quick
            test_tcp_integrity_under_packet_loss;
          Alcotest.test_case "restore resumes transfer" `Quick
            test_tcp_restore_resumes_transfer;
          Alcotest.test_case "poll readiness" `Quick test_tcp_poll_readiness;
          Alcotest.test_case "poll EOF" `Quick test_tcp_poll_eof_is_ready;
        ] );
      ( "listener-group",
        [
          QCheck_alcotest.to_alcotest prop_shard_of_tuple;
          Alcotest.test_case "hash balances shards" `Quick
            test_shard_of_tuple_balanced;
          Alcotest.test_case "SYNs route by tuple" `Quick
            test_listen_group_routes_by_tuple;
          Alcotest.test_case "overflow `Drop retries later" `Quick
            test_overflow_drop_retries_later;
          Alcotest.test_case "overflow `Reset fails connect" `Quick
            test_overflow_reset_fails_connect;
          Alcotest.test_case "close drains then None" `Quick
            test_close_listener_drains_then_none;
          Alcotest.test_case "requeue_restored reaches acceptor" `Quick
            test_requeue_restored_reaches_acceptor;
        ] );
      ( "http",
        [
          Alcotest.test_case "request/response" `Quick test_http_request_response;
          Alcotest.test_case "large body" `Quick test_http_large_body_zero_copy;
          Alcotest.test_case "one-byte chunks" `Quick test_http_one_byte_chunks;
        ] );
    ]
