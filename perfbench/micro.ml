(* Per-layer micro operations, each through public calls only.  An op runs
   a fixed number of batches of a fixed number of iterations; it reports
   the median batch's CPU nanoseconds per iteration and the total
   iteration count.  Engines get a small Evlog ring so an op measures the
   operation, not the allocation of a 2^20-slot trace buffer. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

let batches = 7

(* [batch ()] does one batch and returns its timed CPU seconds and how many
   iterations it did. *)
let measure ~batches batch =
  let samples = ref [] and iters = ref 0 in
  for _ = 1 to batches do
    let dt, n = batch () in
    iters := !iters + n;
    samples := (dt *. 1e9 /. float_of_int (max 1 n)) :: !samples
  done;
  (Layers.median !samples, !iters)

(* A batch timed as a whole. *)
let timed f () =
  let t0 = Probe.cpu_now () in
  let n = f () in
  (Probe.cpu_now () -. t0, n)

let small_engine () = Engine.create ~evlog_cap:1024 ()

let events eng = Layers.counter (Engine.metrics eng) "engine.events_fired"

(* Engine spawn/sleep: 100 processes sleeping 100 times each; one
   iteration is one fired event. *)
let engine_event () =
  let eng = small_engine () in
  for _ = 1 to 100 do
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to 100 do
             Engine.sleep (Time.us 1)
           done))
  done;
  Engine.run eng;
  events eng

(* [Engine.timer] then [Engine.cancel]. *)
let timer_arm_cancel () =
  let eng = small_engine () in
  let n = 100_000 in
  for i = 1 to n do
    Engine.cancel (Engine.timer eng ~at:(Time.us (1 + (i land 1023))) ignore)
  done;
  n

(* [Evlog.emit] with two args into a small ring. *)
let evlog_emit () =
  let ev = Evlog.create ~cap:4096 () in
  let n = 100_000 in
  for i = 1 to n do
    Evlog.emit ev ~comp:"bench" "op" ~args:[ ("i", Evlog.Int i); ("k", Evlog.Str "v") ]
  done;
  n

(* One [Mailbox.send] and its [Mailbox.recv] across two partitions. *)
let mailbox_send_recv () =
  let eng = small_engine () in
  let m = Machine.create eng Topology.small in
  let a, b = Machine.split_symmetric m in
  let ch = Mailbox.create eng ~src:a ~dst:b () in
  let n = 20_000 in
  ignore
    (Engine.spawn eng (fun () ->
         for i = 1 to n do
           Mailbox.send ch ~bytes:32 i
         done));
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to n do
           ignore (Mailbox.recv ch)
         done));
  Engine.run eng;
  n

(* [Pthread.mutex_lock] + [mutex_unlock] on an unreplicated kernel. *)
let mutex_lock_unlock () =
  let eng = small_engine () in
  let m = Machine.create eng Topology.small in
  let a, _ = Machine.split_symmetric m in
  let k = Kernel.boot a () in
  let pt = Pthread.create k in
  let mu = Pthread.mutex_create pt in
  let n = 50_000 in
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to n do
           Pthread.mutex_lock pt mu;
           Pthread.mutex_unlock pt mu
         done));
  Engine.run eng;
  n

(* One MSS segment from one [Host] to another over a 1 Gb/s [Link]: a
   bulk transfer, counted in the sender's segments. *)
let tcp_segment () =
  let eng = small_engine () in
  let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
  let server = Host.create eng ~ip:"10.0.0.1" (Link.endpoint_a link) in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let bytes = 8 * 1024 * 1024 in
  let lst = Tcp.listen (Host.stack server) ~port:80 in
  ignore
    (Host.spawn server "sink" (fun () ->
         match Tcp.accept lst with
         | None -> ()
         | Some c ->
             let got = ref 0 in
             while !got < bytes do
               got := !got + Payload.total_len (Tcp.recv c ~max:65536)
             done;
             Tcp.close c));
  ignore
    (Host.spawn client "source" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         Tcp.send c (Payload.zeroes bytes);
         Tcp.close c));
  Engine.run ~until:(Time.sec 10) eng;
  Tcp.segs_out (Host.stack client)

(* A replicated mutex section: lock + unlock on a minimal cluster, executed
   by the primary and replayed by the backup.  Cluster construction is
   outside the timed part, so this op times itself. *)
let det_section () =
  let n = 5_000 in
  let eng = small_engine () in
  let finished = ref 0 in
  let app api =
    let pt = api.Api.pt in
    let mu = Pthread.mutex_create pt in
    for _ = 1 to n do
      Pthread.mutex_lock pt mu;
      Pthread.mutex_unlock pt mu
    done;
    incr finished
  in
  let cluster =
    Cluster.create eng
      ~config:{ Cluster.default_config with Cluster.topology = Topology.small }
      ~app ()
  in
  let t0 = Probe.cpu_now () in
  while !finished < 2 && Engine.now eng < Time.sec 60 do
    Engine.run ~until:(Engine.now eng + Time.ms 100) eng
  done;
  let dt = Probe.cpu_now () -. t0 in
  Cluster.shutdown cluster;
  (dt, n)

(* Every op as (metric prefix, (ns per iteration, iterations)). *)
let all ?(batches = batches) () =
  [
    ("sim.event", measure ~batches (timed engine_event));
    ("sim.timer_arm_cancel", measure ~batches (timed timer_arm_cancel));
    ("sim.evlog_emit", measure ~batches (timed evlog_emit));
    ("hw.mailbox_send_recv", measure ~batches (timed mailbox_send_recv));
    ("kernel.mutex_lock_unlock", measure ~batches (timed mutex_lock_unlock));
    ("netstack.segment", measure ~batches (timed tcp_segment));
    ("ftlinux.det_section", measure ~batches det_section);
  ]
