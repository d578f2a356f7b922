(* Tests for the workload applications, mostly in standalone mode (the
   replication machinery has its own suite). *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

let gbit_link eng = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

let small_standalone ?link eng ~app =
  Cluster.create_standalone eng ~topology:Topology.small ?link ~app ()

(* {1 Workqueue} *)

let boot_pt eng =
  let m = Machine.create eng Topology.small in
  let a, _ = Machine.split_symmetric m in
  let k = Kernel.boot a () in
  (k, Pthread.create k)

let test_workqueue_fifo_close () =
  let eng = Engine.create () in
  let out = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         let k, pt = boot_pt eng in
         let q = Workqueue.create pt ~capacity:4 in
         ignore
           (Kernel.spawn_thread k (fun () ->
                for i = 1 to 10 do
                  Workqueue.push pt q i
                done;
                Workqueue.close pt q));
         let consumer =
           Kernel.spawn_thread k (fun () ->
               let rec loop () =
                 match Workqueue.pop pt q with
                 | None -> ()
                 | Some v ->
                     out := v :: !out;
                     loop ()
               in
               loop ())
         in
         ignore (Engine.join consumer)));
  Engine.run eng;
  Alcotest.(check (list int)) "all items in order" [1;2;3;4;5;6;7;8;9;10]
    (List.rev !out)

let test_workqueue_capacity () =
  let eng = Engine.create () in
  let stalled_at = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         let k, pt = boot_pt eng in
         let q = Workqueue.create pt ~capacity:3 in
         ignore
           (Kernel.spawn_thread k (fun () ->
                for i = 1 to 10 do
                  Workqueue.push pt q i;
                  stalled_at := i
                done));
         Engine.sleep (Time.ms 10);
         Alcotest.(check int) "producer held at capacity" 3 !stalled_at;
         let rec drain n =
           if n < 10 then begin
             ignore (Workqueue.pop pt q);
             drain (n + 1)
           end
         in
         drain 0));
  Engine.run eng

(* {1 PBZIP2} *)

let tiny_pbzip2 =
  {
    Pbzip2.file_bytes = 1024 * 1024;
    block_bytes = 64 * 1024;
    workers = 4;
    read_ns_per_byte = 1;
    compress_ns_per_byte = 50;
    write_ns_per_byte = 1;
    queue_capacity = 8;
  }

let test_pbzip2_completes_in_order () =
  let eng = Engine.create () in
  let done_blocks = ref [] in
  let app api =
    Pbzip2.run ~params:tiny_pbzip2
      ~on_block_done:(fun i -> done_blocks := i :: !done_blocks)
      api
  in
  let _sa = small_standalone eng ~app in
  Engine.run eng;
  let expected = List.init (Pbzip2.block_count tiny_pbzip2) Fun.id in
  Alcotest.(check (list int)) "blocks committed in file order" expected
    (List.rev !done_blocks)

let test_pbzip2_parallel_speedup () =
  (* Twice the workers (within core budget) should cut the makespan. *)
  let run workers =
    let eng = Engine.create () in
    let t_done = ref 0 in
    let app api =
      Pbzip2.run ~params:{ tiny_pbzip2 with workers } api;
      t_done := Engine.now (Kernel.engine api.Api.kernel)
    in
    let _sa = small_standalone eng ~app in
    Engine.run eng;
    !t_done
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 workers (%s) at least 2x faster than 1 (%s)"
       (Time.to_string t4) (Time.to_string t1))
    true
    (t4 * 2 < t1)

let test_pbzip2_replicated_both_finish () =
  let eng = Engine.create () in
  let finished = ref 0 in
  let app api =
    Pbzip2.run ~params:{ tiny_pbzip2 with workers = 2 } api;
    incr finished
  in
  let config =
    {
      Cluster.default_config with
      topology = Topology.small;
      hb_period = Time.ms 5;
      hb_timeout = Time.ms 25;
    }
  in
  let cluster = Cluster.create eng ~config ~app () in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  Alcotest.(check int) "both replicas completed the compression" 2 !finished;
  Alcotest.(check bool) "sync tuples flowed" true (Cluster.det_ops cluster > 100)

(* {1 Mongoose + ApacheBench} *)

let test_mongoose_serves_ab () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let served = ref 0 in
  let app api =
    Mongoose.run
      ~params:{ Mongoose.default_params with workers = 4 }
      ~on_request:(fun () -> incr served)
      api
  in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let ab =
    Loadgen.ab_start client ~server:"10.0.0.1" ~port:80 ~target:"/page.html"
      ~concurrency:8 ()
  in
  Engine.run ~until:(Time.sec 2) eng;
  Loadgen.ab_stop ab;
  Engine.run ~until:(Time.sec 3) eng;
  let stats = Loadgen.ab_stats ab in
  Alcotest.(check bool) "requests completed" true
    (Metrics.Counter.value stats.Loadgen.completed > 50);
  Alcotest.(check int) "no errors" 0 (Metrics.Counter.value stats.Loadgen.errors);
  Alcotest.(check bool) "server counted them too" true
    (!served >= Metrics.Counter.value stats.Loadgen.completed)

let test_mongoose_cpu_loop_reduces_throughput () =
  let run cpu_per_request =
    let eng = Engine.create () in
    let link = gbit_link eng in
    let app api =
      Mongoose.run
        ~params:{ Mongoose.default_params with workers = 4; cpu_per_request }
        api
    in
    let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
    let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
    let ab =
      Loadgen.ab_start client ~server:"10.0.0.1" ~port:80 ~target:"/x"
        ~concurrency:16 ()
    in
    Engine.run ~until:(Time.sec 2) eng;
    Loadgen.ab_stop ab;
    Engine.run ~until:(Time.sec 3) eng;
    Metrics.Counter.value (Loadgen.ab_stats ab).Loadgen.completed
  in
  let fast = run Time.zero in
  let slow = run (Time.ms 10) in
  Alcotest.(check bool)
    (Printf.sprintf "CPU loop throttles (fast=%d slow=%d)" fast slow)
    true
    (slow * 2 < fast)

(* {1 File server + wget} *)

let test_fileserver_wget () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let size = 20 * 1024 * 1024 in
  let app api =
    Fileserver.run
      ~params:{ Fileserver.default_params with file_bytes = size }
      api
  in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let w =
    Loadgen.wget_start client ~server:"10.0.0.1" ~port:80 ~target:"/big"
      ~bucket:(Time.ms 50) ()
  in
  Engine.run ~until:(Time.sec 10) eng;
  (match Ivar.peek w.Loadgen.total with
  | Some n -> Alcotest.(check int) "full file" size n
  | None -> Alcotest.fail "wget did not finish");
  (* Rate should be near 1 Gb/s line rate. *)
  let rates = List.map snd (Metrics.Series.rate_per_sec w.Loadgen.bytes_received) in
  let peak = List.fold_left max 0.0 rates in
  Alcotest.(check bool)
    (Printf.sprintf "peak rate %.1f MB/s near line rate" (peak /. 1e6))
    true
    (peak > 0.9e8)

(* {1 Memcached} *)

let test_memcached_get_set () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let app api = Memcached.server api in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result = Ivar.create () in
  ignore
    (Host.spawn client "mc-client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:11211 in
         Tcp.send c (Payload.of_string "set greeting 5\r\nhello");
         Tcp.send c (Payload.of_string "get greeting\r\n");
         Tcp.send c (Payload.of_string "get missing\r\n");
         let buf = Buffer.create 64 in
         let rec read_until n =
           if Buffer.length buf < n then begin
             match Tcp.recv c ~max:4096 with
             | [] -> ()
             | cs ->
                 Buffer.add_string buf (Payload.concat_to_string cs);
                 read_until n
           end
         in
         (* STORED\r\n (8) + VALUE 5\r\nhello (14) + MISS\r\n (6) *)
         read_until 28;
         Tcp.send c (Payload.of_string "quit\r\n");
         Ivar.fill result (Buffer.contents buf)));
  Engine.run ~until:(Time.sec 5) eng;
  match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "protocol exchange" "STORED\r\nVALUE 5\r\nhelloMISS\r\n" s
  | None -> Alcotest.fail "client did not finish"

let test_memcached_memory_model_anchor () =
  (* The 180x point must land on the paper's split: ~15% Ignored, ~20%
     Delayed, ~65% User (96 GiB machine). *)
  let gib n = n * 1024 * 1024 * 1024 in
  let layout = Memlayout.create ~ram_bytes:(gib 96) in
  Memcached.apply_load layout ~multiplier:180;
  let i, d, u = Memlayout.fractions layout in
  let close_to a b tol = Float.abs (a -. b) < tol in
  Alcotest.(check bool) (Printf.sprintf "ignored %.3f ~ 0.15" i) true (close_to i 0.15 0.03);
  Alcotest.(check bool) (Printf.sprintf "delayed %.3f ~ 0.20" d) true (close_to d 0.20 0.05);
  Alcotest.(check bool) (Printf.sprintf "user %.3f ~ 0.65" u) true (close_to u 0.65 0.03)

let test_memcached_memory_model_monotone () =
  let gib n = n * 1024 * 1024 * 1024 in
  let fractions m =
    let layout = Memlayout.create ~ram_bytes:(gib 96) in
    Memcached.apply_load layout ~multiplier:m;
    Memlayout.fractions layout
  in
  let i3, d3, u3 = fractions 3 in
  let i90, d90, u90 = fractions 90 in
  let i180, d180, u180 = fractions 180 in
  Alcotest.(check bool) "user grows" true (u3 < u90 && u90 < u180);
  Alcotest.(check bool) "ignored grows" true (i3 < i90 && i90 < i180);
  Alcotest.(check bool) "delayed shrinks" true (d3 > d90 && d90 > d180)

(* {1 CPU hog} *)

let test_cpuhog_saturates () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng (fun () ->
         let m = Machine.create eng Topology.small in
         let a, _ = Machine.split_symmetric m in
         let k = Kernel.boot a () in
         let hog = Cpuhog.start k ~threads:(Partition.cores a) in
         Engine.sleep (Time.ms 100);
         Cpuhog.stop hog;
         let util =
           Cpu.utilization (Kernel.cpu k) ~elapsed:(Engine.now eng)
         in
         Alcotest.(check bool)
           (Printf.sprintf "utilization %.2f ~ 1.0" util)
           true (util > 0.95)));
  Engine.run ~until:(Time.ms 200) eng

(* {1 SLO reporter} *)

let test_slo_phase_split () =
  (* The phase split must be exact: window bounds come from the pinned
     failover.* spans and agree with the cluster's own failover record, and
     every completion is classified into exactly one phase by time
     comparison against those bounds. *)
  let eng = Engine.create ~seed:42 () in
  let r = Slo.run eng ~concurrency:8 ~run_for:(Time.ms 1800) () in
  (match r.Slo.window with
  | None -> Alcotest.fail "expected a failover window"
  | Some (lo, hi) ->
      Alcotest.(check bool) "span bounds equal cluster bounds" true
        r.Slo.span_bounds_ok;
      Alcotest.(check bool) "window starts at/after the kill" true
        (lo >= r.Slo.fail_at);
      Alcotest.(check bool) "window has positive length" true (hi > lo);
      let inside =
        List.filter
          (fun (at, _) -> at >= lo && at <= hi)
          r.Slo.completions
      in
      Alcotest.(check int) "failover phase holds exactly the in-window completions"
        (List.length inside)
        (Metrics.Hist.count r.Slo.fo));
  Alcotest.(check int) "phases partition the completions" r.Slo.completed
    (Metrics.Hist.count r.Slo.pre
    + Metrics.Hist.count r.Slo.fo
    + Metrics.Hist.count r.Slo.post);
  Alcotest.(check int) "completions list matches the count" r.Slo.completed
    (List.length r.Slo.completions);
  Alcotest.(check bool) "pre-fault phase saw traffic" true
    (Metrics.Hist.count r.Slo.pre > 0);
  Alcotest.(check bool) "post-recovery phase saw traffic" true
    (Metrics.Hist.count r.Slo.post > 0);
  Alcotest.(check bool) "health monitor reported" true
    (r.Slo.lag_worst <> None)

let test_slo_deterministic () =
  let run () =
    let eng = Engine.create ~seed:7 () in
    let r = Slo.run eng ~concurrency:4 ~run_for:(Time.ms 1200) () in
    (r.Slo.completed, r.Slo.errors, r.Slo.completions, r.Slo.window)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same report" true (a = b)

(* {1 C10K tier: shards, admission, open-loop load} *)

let test_mongoose_sharded_serves_ab () =
  (* The multi-shard acceptor pool with a bounded backlog must serve the
     classic closed-loop workload exactly like the single listener does. *)
  let eng = Engine.create () in
  let link = gbit_link eng in
  let app api =
    Mongoose.run
      ~params:
        {
          Mongoose.default_params with
          workers = 4;
          listen_shards = 4;
          accept_backlog = Some 64;
        }
      api
  in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let ab =
    Loadgen.ab_start client ~server:"10.0.0.1" ~port:80 ~target:"/page.html"
      ~concurrency:8 ()
  in
  Engine.run ~until:(Time.sec 2) eng;
  Loadgen.ab_stop ab;
  Engine.run ~until:(Time.sec 3) eng;
  let stats = Loadgen.ab_stats ab in
  Alcotest.(check bool) "requests completed" true
    (Metrics.Counter.value stats.Loadgen.completed > 50);
  Alcotest.(check int) "no errors" 0 (Metrics.Counter.value stats.Loadgen.errors)

let overload_ol_run () =
  (* Open-loop arrivals at 4x what one admitted 5 ms request at a time can
     absorb: the admission controller must shed, and every launched
     connection must still be classified exactly once. *)
  let eng = Engine.create ~seed:11 () in
  let link = gbit_link eng in
  let app api =
    Mongoose.run
      ~params:
        {
          Mongoose.default_params with
          workers = 4;
          page_bytes = 1024;
          cpu_per_request = Time.ms 5;
          admission = Some 1;
        }
      api
  in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let conns = 150 in
  let ol =
    Loadgen.ol_start client ~server:"10.0.0.1" ~port:80 ~target:"/"
      ~rate:800.0 ~conns ~poisson:true ~seed:3 ()
  in
  Engine.run ~until:(Time.sec 30) eng;
  let s = Loadgen.ol_stats ol in
  ( Metrics.Counter.value s.Loadgen.ol_ok,
    Metrics.Counter.value s.Loadgen.ol_shed,
    Metrics.Counter.value s.Loadgen.ol_errors,
    Loadgen.ol_peak ol,
    Ivar.peek (Loadgen.ol_done ol) <> None )

let test_admission_sheds_under_overload () =
  let ok, shed, errors, peak, finished = overload_ol_run () in
  Alcotest.(check bool) "generator drained" true finished;
  Alcotest.(check int) "every connection classified exactly once" 150
    (ok + shed + errors);
  Alcotest.(check bool)
    (Printf.sprintf "admission shed under overload (ok=%d shed=%d err=%d)" ok
       shed errors)
    true (shed > 0);
  Alcotest.(check bool) "some requests admitted" true (ok > 0);
  Alcotest.(check bool) "connections piled up open-loop" true (peak > 1)

let test_ol_deterministic () =
  let a = overload_ol_run () and b = overload_ol_run () in
  Alcotest.(check bool) "same seed, same outcome counts" true (a = b)

let test_oracle_allow_shed_exactly_once () =
  (* The consistency oracle rides through admission sheds: each exact
     zero-body 503 is retried, everything the server commits to is verified
     byte-for-byte, and the oracle still finishes all its requests. *)
  let eng = Engine.create ~seed:5 () in
  let link = gbit_link eng in
  let page_bytes = 2048 in
  let app api =
    Mongoose.run
      ~params:
        {
          Mongoose.default_params with
          workers = 4;
          page_bytes;
          cpu_per_request = Time.ms 2;
          admission = Some 1;
        }
      api
  in
  let _sa = small_standalone eng ~link:(Link.endpoint_a link) ~app in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  (* Background closed-loop flood keeps the single admission slot busy so
     the oracle's requests actually get shed. *)
  let ab =
    Loadgen.ab_start client ~server:"10.0.0.1" ~port:80 ~target:"/bg"
      ~concurrency:8 ()
  in
  let oracle =
    Loadgen.verified_start client ~server:"10.0.0.1" ~port:80 ~target:"/v"
      ~expect_bytes:page_bytes ~requests:15 ~allow_shed:true ()
  in
  Engine.run ~until:(Time.sec 30) eng;
  Loadgen.ab_stop ab;
  Alcotest.(check int) "oracle finished all requests" 15
    oracle.Loadgen.completed;
  Alcotest.(check bool) "no consistency violations" true
    (Loadgen.oracle_ok oracle);
  Alcotest.(check bool)
    (Printf.sprintf "oracle observed sheds (o_shed=%d)" oracle.Loadgen.o_shed)
    true
    (oracle.Loadgen.o_shed > 0)

let test_failover_requeues_unaccepted () =
  (* Kill the primary while connections sit established-but-unaccepted in
     the shard queues (a slow accept path keeps the queues deep).  The
     promoted secondary must requeue those restored connections so fresh
     acceptors serve them — no client may hang or error. *)
  let eng = Engine.create ~seed:9 () in
  let link = gbit_link eng in
  let app api =
    Mongoose.run
      ~params:
        {
          Mongoose.default_params with
          workers = 8;
          page_bytes = 1024;
          accept_cost = Time.ms 5;
          listen_shards = 2;
        }
      api
  in
  let config =
    {
      Cluster.default_config with
      Cluster.topology = Topology.small;
      hb_period = Time.ms 5;
      hb_timeout = Time.ms 25;
    }
  in
  let cluster = Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app () in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 400);
  Engine.run ~until:(Time.ms 250) eng;
  let conns = 200 in
  let ol =
    Loadgen.ol_start client ~server:"10.0.0.1" ~port:80 ~target:"/"
      ~rate:4000.0 ~conns ~poisson:true ~seed:4 ()
  in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  let s = Loadgen.ol_stats ol in
  let ok = Metrics.Counter.value s.Loadgen.ol_ok in
  let shed = Metrics.Counter.value s.Loadgen.ol_shed in
  let errors = Metrics.Counter.value s.Loadgen.ol_errors in
  let requeues =
    Evlog.Query.filter ~comp:"net.tcp" ~name:"accept.requeue"
      (Evlog.events (Engine.evlog eng))
  in
  Alcotest.(check bool) "generator drained" true
    (Ivar.peek (Loadgen.ol_done ol) <> None);
  Alcotest.(check bool) "failover happened" true
    (Ivar.peek (Cluster.failover_done cluster) <> None);
  Alcotest.(check bool)
    (Printf.sprintf "unaccepted connections were requeued (%d)"
       (List.length requeues))
    true
    (requeues <> []);
  Alcotest.(check int) "every connection classified exactly once" conns
    (ok + shed + errors);
  Alcotest.(check bool)
    (Printf.sprintf "clients survived the failover (ok=%d shed=%d err=%d)" ok
       shed errors)
    true
    (errors = 0 && ok = conns)

(* {1 Scenario} *)

let test_drive_returns_when_drained () =
  (* The only event fires at 5 ms and [stop] never holds: the drive loop
     must return once nothing is left to fire, not spin at 5 ms until the
     cap. *)
  let eng = Engine.create () in
  Engine.schedule eng ~at:(Time.ms 5) ignore;
  Scenario.drive eng ~cap:(Time.sec 60) ~stop:(fun () -> false);
  Alcotest.(check int) "returns at the last event" (Time.ms 5) (Engine.now eng)

let () =
  Alcotest.run "apps"
    [
      ( "scenario",
        [
          Alcotest.test_case "drive returns when drained" `Quick
            test_drive_returns_when_drained;
        ] );
      ( "workqueue",
        [
          Alcotest.test_case "fifo and close" `Quick test_workqueue_fifo_close;
          Alcotest.test_case "capacity" `Quick test_workqueue_capacity;
        ] );
      ( "pbzip2",
        [
          Alcotest.test_case "completes in order" `Quick
            test_pbzip2_completes_in_order;
          Alcotest.test_case "parallel speedup" `Quick test_pbzip2_parallel_speedup;
          Alcotest.test_case "replicated both finish" `Quick
            test_pbzip2_replicated_both_finish;
        ] );
      ( "mongoose",
        [
          Alcotest.test_case "serves ab" `Quick test_mongoose_serves_ab;
          Alcotest.test_case "cpu loop throttles" `Quick
            test_mongoose_cpu_loop_reduces_throughput;
        ] );
      ("fileserver", [ Alcotest.test_case "wget" `Quick test_fileserver_wget ]);
      ( "memcached",
        [
          Alcotest.test_case "get/set" `Quick test_memcached_get_set;
          Alcotest.test_case "memory anchor (fig1 @180x)" `Quick
            test_memcached_memory_model_anchor;
          Alcotest.test_case "memory monotone" `Quick
            test_memcached_memory_model_monotone;
        ] );
      ("cpuhog", [ Alcotest.test_case "saturates" `Quick test_cpuhog_saturates ]);
      ( "slo",
        [
          Alcotest.test_case "phase split" `Quick test_slo_phase_split;
          Alcotest.test_case "deterministic" `Quick test_slo_deterministic;
        ] );
      ( "c10k",
        [
          Alcotest.test_case "sharded listeners serve ab" `Quick
            test_mongoose_sharded_serves_ab;
          Alcotest.test_case "admission sheds under overload" `Quick
            test_admission_sheds_under_overload;
          Alcotest.test_case "open-loop deterministic" `Quick
            test_ol_deterministic;
          Alcotest.test_case "oracle rides through sheds" `Quick
            test_oracle_allow_shed_exactly_once;
          Alcotest.test_case "failover requeues unaccepted conns" `Quick
            test_failover_requeues_unaccepted;
        ] );
    ]
