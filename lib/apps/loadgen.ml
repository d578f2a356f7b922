open Ftsim_sim
open Ftsim_netstack

type ab_stats = {
  completed : Metrics.Counter.t;
  errors : Metrics.Counter.t;
  latency : Metrics.Hist.t;
  completions : Metrics.Series.t;
}

type ab = { stats : ab_stats; mutable stopped : bool }

let one_request host ~server ~port ~target =
  let stack = Host.stack host in
  let c = Tcp.connect stack ~host:server ~port in
  Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target));
  let reader = Http.reader c in
  let result =
    match Http.read_headers reader with
    | None -> Error "no response"
    | Some hdr -> (
        match Http.content_length hdr with
        | None -> Error "no content length"
        | Some len ->
            let got = Http.skip_body reader len in
            if got = len then Ok () else Error "truncated body")
  in
  Tcp.close c;
  (* Drain to let the FIN exchange finish promptly. *)
  result

let ab_start host ~server ~port ~target ~concurrency ?on_complete () =
  let eng = Engine.engine_of_proc (Host.spawn host "ab-probe" (fun () -> ())) in
  let t =
    {
      stats =
        {
          completed = Metrics.Counter.create ();
          errors = Metrics.Counter.create ();
          latency = Metrics.Hist.create ();
          completions = Metrics.Series.create ~bucket:(Time.sec 1);
        };
      stopped = false;
    }
  in
  for w = 1 to concurrency do
    ignore
      (Host.spawn host
         (Printf.sprintf "ab-worker-%d" w)
         (fun () ->
           let rec loop () =
             if not t.stopped then begin
               let t0 = Engine.now eng in
               (* A reset mid-request (e.g. the server dying under us) is an
                  error, not a worker death: the closed loop keeps offering
                  load through a failover. *)
               (match
                  try one_request host ~server ~port ~target
                  with Tcp.Connection_closed -> Error "connection closed"
                with
               | Ok () ->
                   let now = Engine.now eng in
                   let dt = now - t0 in
                   Metrics.Counter.incr t.stats.completed;
                   Metrics.Hist.record t.stats.latency (Time.to_sec_f dt);
                   Metrics.Series.add t.stats.completions ~at:now 1.0;
                   (match on_complete with
                   | Some f -> f ~at:now ~latency:dt
                   | None -> ())
               | Error _ -> Metrics.Counter.incr t.stats.errors);
               loop ()
             end
           in
           loop ()))
  done;
  t

let ab_stats t = t.stats

let ab_stop t = t.stopped <- true

(* {1 Open-loop generator}

   The C10K client: arrivals come from a clock, not from completions, so a
   slow server cannot slow the offered load down — exactly the regime where
   accept-queue sharding and admission control matter.  Each arrival is its
   own short-lived connection/thread; tens of thousands can be in flight. *)

type ol_stats = {
  ol_ok : Metrics.Counter.t;
  ol_shed : Metrics.Counter.t;
  ol_errors : Metrics.Counter.t;
  ol_latency : Metrics.Hist.t;
}

type ol = {
  ol_stats : ol_stats;
  mutable ol_launched : int;
  mutable ol_in_flight : int;
  mutable ol_peak : int;
  ol_done : unit Ivar.t;
}

let ol_peak t = t.ol_peak
let ol_launched t = t.ol_launched

(* One open-loop request, classified: a zero-body 503 is an explicit load
   shed (the admission controller answering), anything else short of a
   verified full-length 200 is an error.

   The watchdog matters under fail-stop: a connection whose request was
   fully ACKed by the old primary has nothing left to retransmit when the
   host silently dies, so without a deadline its read would block forever.
   The timer aborts the connection [ol_timeout] after it established, the
   blocked read raises, and the request classifies as an error like any
   other client-visible failure. *)
let ol_timeout = Time.sec 10

let ol_one_request host ~server ~port ~target =
  let stack = Host.stack host in
  match Tcp.connect stack ~host:server ~port with
  | exception Tcp.Connection_closed -> `Error
  | c ->
      let eng = Engine.engine_of_proc (Engine.self ()) in
      let watchdog =
        Engine.timer eng ~at:(Engine.now eng + ol_timeout) (fun () -> Tcp.abort c)
      in
      let result =
        try
          Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target));
          let reader =
            Http.reader_fn (fun max ->
                match Tcp.recv c ~max with
                | cs -> cs
                | exception Tcp.Connection_closed -> [])
          in
          match Http.read_headers reader with
          | None -> `Error
          | Some hdr -> (
              match Http.status_code hdr with
              | Some 503 -> `Shed
              | Some 200 -> (
                  match Http.content_length hdr with
                  | None -> `Error
                  | Some len ->
                      if Http.skip_body reader len = len then `Ok else `Error)
              | _ -> `Error)
        with Tcp.Connection_closed -> `Error
      in
      Engine.cancel watchdog;
      (try Tcp.close c with Tcp.Connection_closed -> ());
      result

let ol_start host ~server ~port ~target ~rate ~conns ?(poisson = false)
    ?(seed = 1) ?on_complete () =
  if rate <= 0.0 then invalid_arg "Loadgen.ol_start: rate must be positive";
  if conns < 0 then invalid_arg "Loadgen.ol_start: conns must be >= 0";
  let t =
    {
      ol_stats =
        {
          ol_ok = Metrics.Counter.create ();
          ol_shed = Metrics.Counter.create ();
          ol_errors = Metrics.Counter.create ();
          ol_latency = Metrics.Hist.create ();
        };
      ol_launched = 0;
      ol_in_flight = 0;
      ol_peak = 0;
      ol_done = Ivar.create ();
    }
  in
  ignore
    (Host.spawn host "ol-arrivals" (fun () ->
         let eng = Engine.engine_of_proc (Engine.self ()) in
         (* Own RNG stream: the arrival process depends only on [seed], not
            on whatever else draws from the engine's generator. *)
         let rng = Random.State.make [| seed; conns; int_of_float rate |] in
         let mean_ns = 1e9 /. rate in
         let finished = ref 0 in
         for i = 1 to conns do
           let gap_ns =
             if poisson then
               (* exponential inter-arrival; clamp u away from 0 *)
               let u = max 1e-12 (Random.State.float rng 1.0) in
               mean_ns *. -.log u
             else mean_ns
           in
           Engine.sleep (Time.ns (max 1 (int_of_float gap_ns)));
           t.ol_launched <- t.ol_launched + 1;
           t.ol_in_flight <- t.ol_in_flight + 1;
           if t.ol_in_flight > t.ol_peak then t.ol_peak <- t.ol_in_flight;
           ignore
             (Host.spawn host
                (Printf.sprintf "ol-req-%d" i)
                (fun () ->
                  let t0 = Engine.now eng in
                  (match ol_one_request host ~server ~port ~target with
                  | `Ok ->
                      let now = Engine.now eng in
                      let dt = now - t0 in
                      Metrics.Counter.incr t.ol_stats.ol_ok;
                      Metrics.Hist.record t.ol_stats.ol_latency (Time.to_ms_f dt);
                      (match on_complete with
                      | Some f -> f ~at:now ~latency:dt
                      | None -> ())
                  | `Shed -> Metrics.Counter.incr t.ol_stats.ol_shed
                  | `Error -> Metrics.Counter.incr t.ol_stats.ol_errors);
                  t.ol_in_flight <- t.ol_in_flight - 1;
                  incr finished;
                  if !finished = conns then Ivar.fill t.ol_done ()))
         done;
         if conns = 0 then Ivar.fill t.ol_done ()));
  t

let ol_stats t = t.ol_stats
let ol_done t = t.ol_done

(* {1 Client-consistency oracle}

   A verifying client: it knows the exact byte stream the server must
   produce (header + zero body per request, back to back on one
   connection), tracks its absolute position in that stream, and checks
   every received byte against it.  Any lost-committed or duplicated
   output across a failover misaligns the stream and is reported as a
   violation; an orderly end of stream before completion is reported as
   truncation (the runner decides whether a total outage excuses it). *)

type oracle = {
  mutable completed : int;  (** responses fully verified *)
  requests : int;
  mutable violations : string list;  (** newest first *)
  mutable truncated : bool;  (** stream ended before all responses *)
  oracle_done : unit Ivar.t;  (** filled when the client exits *)
  mutable bytes_verified : int;
  mutable o_shed : int;  (** explicit 503 sheds observed (and retried) *)
}

let oracle_ok o = o.violations = [] && not o.truncated

let verified_start host ~server ~port ~target ~expect_bytes
    ?(requests = 1) ?(allow_shed = false) () =
  let o =
    {
      completed = 0;
      requests;
      violations = [];
      truncated = false;
      oracle_done = Ivar.create ();
      bytes_verified = 0;
      o_shed = 0;
    }
  in
  let violate fmt = Printf.ksprintf (fun s -> o.violations <- s :: o.violations) fmt in
  ignore
    (Host.spawn host "oracle-client" (fun () ->
         let stack = Host.stack host in
         let c = Tcp.connect stack ~host:server ~port in
         let reader =
           Http.reader_fn (fun max ->
               match Tcp.recv c ~max with
               | cs -> cs
               | exception Tcp.Connection_closed -> [])
         in
         let expected_hdr =
           (* what read_headers returns: the block minus its \r\n\r\n *)
           let h = Http.response_header ~content_length:expect_bytes () in
           String.sub h 0 (String.length h - 4)
         in
         let expected_shed_hdr =
           (* the admission controller's exact zero-body 503; under
              [allow_shed] it is a clean retry event, not a violation —
              the stream position stays exact either way *)
           let h =
             Http.response_header ~status:503 ~reason:"Service Unavailable"
               ~content_length:0 ()
           in
           String.sub h 0 (String.length h - 4)
         in
         let expected_body_hash =
           Payload.stream_hash 0 [ Payload.zeroes expect_bytes ]
         in
         (try
            let r = ref 0 in
            let ok = ref true in
            while !ok && !r < requests do
              Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target));
              (match Http.read_headers reader with
              | None ->
                  o.truncated <- true;
                  ok := false
              | Some hdr when allow_shed && hdr = expected_shed_hdr ->
                  (* Shed: same request number retried on the same
                     connection; exactly-once accounting is untouched. *)
                  o.o_shed <- o.o_shed + 1
              | Some hdr when hdr <> expected_hdr ->
                  violate "request %d: response header mismatch: %S" !r hdr;
                  ok := false
              | Some _ ->
                  (* Byte-exact body check via the rolling content hash:
                     position-sensitive, so a gap or duplication anywhere
                     in the stream changes it. *)
                  let received = ref 0 in
                  let h = ref 0 in
                  let eof = ref false in
                  while (not !eof) && !received < expect_bytes do
                    let want = min (256 * 1024) (expect_bytes - !received) in
                    match Http.read_body reader want with
                    | [] -> eof := true
                    | cs ->
                        h := Payload.stream_hash !h cs;
                        received := !received + Payload.total_len cs
                  done;
                  if !received < expect_bytes then begin
                    o.truncated <- true;
                    ok := false
                  end
                  else if !h <> expected_body_hash then begin
                    violate "request %d: body content mismatch" !r;
                    ok := false
                  end
                  else begin
                    o.bytes_verified <- o.bytes_verified + !received;
                    o.completed <- o.completed + 1;
                    incr r
                  end)
            done
          with Tcp.Connection_closed -> o.truncated <- true);
         (try Tcp.close c with Tcp.Connection_closed -> ());
         Ivar.fill o.oracle_done ()));
  o

type wget = { bytes_received : Metrics.Series.t; total : int Ivar.t }

let wget_start host ~server ~port ~target ?(bucket = Time.sec 1) () =
  let w = { bytes_received = Metrics.Series.create ~bucket; total = Ivar.create () } in
  ignore
    (Host.spawn host "wget" (fun () ->
         let eng =
           Ftsim_sim.Engine.engine_of_proc (Ftsim_sim.Engine.self ())
         in
         let stack = Host.stack host in
         let c = Tcp.connect stack ~host:server ~port in
         Tcp.send c (Payload.of_string (Http.request ~meth:"GET" ~target));
         let reader = Http.reader c in
         match Http.read_headers reader with
         | None -> Ivar.fill w.total 0
         | Some hdr ->
             let len = Option.value ~default:0 (Http.content_length hdr) in
             let received = ref 0 in
             let rec drain () =
               if !received < len then begin
                 let want = min (256 * 1024) (len - !received) in
                 match Http.read_body reader want with
                 | [] -> () (* premature end *)
                 | cs ->
                     let n = Payload.total_len cs in
                     received := !received + n;
                     Metrics.Series.add w.bytes_received ~at:(Engine.now eng)
                       (float_of_int n);
                     drain ()
               end
             in
             drain ();
             Tcp.close c;
             Ivar.fill w.total !received));
  w
