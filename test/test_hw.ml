(* Tests for the hardware model: topology, partitions, mailbox, IPI, faults. *)

open Ftsim_sim
open Ftsim_hw

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  ignore (Engine.spawn eng ~name:"test-main" (fun () -> result := Some (f eng)));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not complete"

(* {1 Topology} *)

let test_testbed_spec () =
  let s = Topology.opteron_testbed in
  Alcotest.(check int) "64 cores" 64 (Topology.total_cores s);
  Alcotest.(check int) "8 cores per node" 8 (Topology.cores_per_node s);
  Alcotest.(check int) "16 GiB per node" (16 * 1024 * 1024 * 1024)
    (Topology.ram_per_node s);
  match Topology.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_bad_spec_rejected () =
  let bad = { Topology.sockets = 1; cores_per_socket = 7; numa_nodes = 2; ram_bytes = 1024 } in
  match Topology.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "7 cores over 2 nodes should be invalid"

(* {1 Machine partitioning} *)

let test_split_symmetric () =
  let eng = Engine.create () in
  let m = Machine.create eng Topology.opteron_testbed in
  let a, b = Machine.split_symmetric m in
  Alcotest.(check int) "primary cores" 32 (Partition.cores a);
  Alcotest.(check int) "secondary cores" 32 (Partition.cores b);
  Alcotest.(check int) "primary nodes" 4 (List.length (Partition.numa_nodes a));
  Alcotest.(check bool) "disjoint nodes" true
    (List.for_all (fun n -> not (List.mem n (Partition.numa_nodes a))) (Partition.numa_nodes b));
  Alcotest.(check int) "no cores left" 0 (Machine.free_cores m)

let test_split_asymmetric () =
  let eng = Engine.create () in
  let m = Machine.create eng Topology.opteron_testbed in
  let a, b = Machine.split_asymmetric m ~primary_cores:32 in
  Alcotest.(check int) "primary cores" 32 (Partition.cores a);
  Alcotest.(check int) "secondary cores" 1 (Partition.cores b)

let test_overcommit_rejected () =
  let eng = Engine.create () in
  let m = Machine.create eng Topology.small in
  ignore (Machine.add_partition m ~name:"a" ~cores:8 ~ram_bytes:1024 ~numa_nodes:[ 0 ]);
  Alcotest.check_raises "no cores left"
    (Invalid_argument "Machine.add_partition: not enough cores") (fun () ->
      ignore (Machine.add_partition m ~name:"b" ~cores:1 ~ram_bytes:1024 ~numa_nodes:[ 1 ]))

let test_numa_node_exclusive () =
  let eng = Engine.create () in
  let m = Machine.create eng Topology.small in
  ignore (Machine.add_partition m ~name:"a" ~cores:2 ~ram_bytes:1024 ~numa_nodes:[ 0 ]);
  Alcotest.check_raises "node 0 already owned"
    (Invalid_argument "Machine.add_partition: NUMA node already assigned") (fun () ->
      ignore (Machine.add_partition m ~name:"b" ~cores:2 ~ram_bytes:1024 ~numa_nodes:[ 0 ]))

(* {1 Partition halt} *)

let test_halt_kills_procs () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, _b = Machine.split_symmetric m in
        let killed = ref 0 in
        for _ = 1 to 4 do
          let p = Partition.spawn a (fun () -> Engine.sleep (Time.sec 100)) in
          Engine.on_exit p (fun r -> if r = Engine.Killed then incr killed)
        done;
        Engine.sleep (Time.ms 1);
        Partition.halt a;
        Engine.sleep (Time.ms 1);
        (!killed, Partition.is_halted a, Partition.live_proc_count a))
  in
  Alcotest.(check (triple int bool int)) "all procs killed" (4, true, 0) v

let test_spawn_on_halted_raises () =
  run_sim (fun eng ->
      let m = Machine.create eng Topology.small in
      let a, _ = Machine.split_symmetric m in
      Partition.halt a;
      match Partition.spawn a (fun () -> ()) with
      | exception Partition.Halted _ -> ()
      | _ -> Alcotest.fail "expected Halted")

let test_halt_hook_fires_once () =
  run_sim (fun _eng ->
      ());
  let eng = Engine.create () in
  let m = Machine.create eng Topology.small in
  let a, _ = Machine.split_symmetric m in
  let fired = ref 0 in
  Partition.on_halt a (fun () -> incr fired);
  Partition.halt a;
  Partition.halt a;
  Alcotest.(check int) "hook once" 1 !fired;
  (* late subscription fires immediately *)
  Partition.on_halt a (fun () -> incr fired);
  Alcotest.(check int) "late hook immediate" 2 !fired

(* {1 Mailbox} *)

let two_partitions eng =
  let m = Machine.create eng Topology.small in
  Machine.split_symmetric m

let test_mailbox_delivery_delay () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        let t0 = Engine.now eng in
        Mailbox.send ch ~bytes:100 "hello";
        let msg = Mailbox.recv ch in
        (msg, Engine.now eng - t0))
  in
  Alcotest.(check (pair string int)) "0.55us propagation" ("hello", Time.ns 550) v

let test_mailbox_fifo () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        for i = 1 to 10 do
          Mailbox.send ch ~bytes:8 i
        done;
        List.init 10 (fun _ -> Mailbox.recv ch))
  in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] v

let test_mailbox_backpressure () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let cfg = { Mailbox.propagation_delay = Time.ns 550; capacity = 4 } in
        let ch = Mailbox.create eng ~config:cfg ~src:a ~dst:b () in
        let sent = ref 0 in
        ignore
          (Partition.spawn a (fun () ->
               for i = 1 to 10 do
                 Mailbox.send ch ~bytes:8 i;
                 sent := i
               done));
        Engine.sleep (Time.ms 1);
        let stalled = !sent in
        let received = List.init 10 (fun _ -> Mailbox.recv ch) in
        (stalled, received))
  in
  let stalled, received = v in
  Alcotest.(check int) "sender stalled at ring capacity" 4 stalled;
  Alcotest.(check (list int)) "all delivered in order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    received

let test_mailbox_metrics () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        Mailbox.send ch ~bytes:100 0;
        Mailbox.send ch ~bytes:28 0;
        (Mailbox.msgs_sent ch, Mailbox.bytes_sent ch))
  in
  Alcotest.(check (pair int int)) "msgs and bytes counted" (2, 128) v

let test_mailbox_survives_sender_halt () =
  (* Messages already in shared memory remain deliverable after the sender's
     partition dies (paper §3.5). *)
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        ignore
          (Partition.spawn a (fun () ->
               Mailbox.send ch ~bytes:10 "last-words";
               Engine.sleep (Time.sec 100)));
        Engine.sleep (Time.us 1);
        Partition.halt a;
        Mailbox.recv ch)
  in
  Alcotest.(check string) "in-flight message delivered" "last-words" v

let test_mailbox_send_from_halted_raises () =
  run_sim (fun eng ->
      let a, b = two_partitions eng in
      let ch = Mailbox.create eng ~src:a ~dst:b () in
      Partition.halt a;
      match Mailbox.send ch ~bytes:1 () with
      | exception Partition.Halted _ -> ()
      | () -> Alcotest.fail "expected Halted")

let test_mailbox_drop_in_flight () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        Mailbox.send ch ~bytes:10 1;
        Mailbox.send ch ~bytes:10 2;
        Engine.sleep (Time.us 10);
        let dropped = Mailbox.drop_in_flight ch in
        let after = Mailbox.poll ch in
        (dropped, after))
  in
  Alcotest.(check (pair int (option int))) "both lost" (2, None) v

(* A drop inside the propagation window: two messages sent and neither
   visible yet, so the drop cancels their delivery timers.  A message sent
   at the drop's instant is unaffected, and the ring's slots come back
   exactly: all of them, and no more. *)
let test_mailbox_drop_in_window () =
  let cancelled eng =
    Metrics.Counter.value
      (Metrics.Registry.counter (Engine.metrics eng) "engine.timers_cancelled")
  in
  let dropped, visible_before, third, latency, slots, after, n_cancelled =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let cfg = { Mailbox.propagation_delay = Time.ns 550; capacity = 2 } in
        let ch = Mailbox.create eng ~config:cfg ~src:a ~dst:b () in
        Mailbox.send ch ~bytes:10 1;
        Mailbox.send ch ~bytes:10 2;
        Engine.sleep (Time.ns 300);
        let visible_before = Mailbox.poll ch in
        let dropped = Mailbox.drop_in_flight ch in
        let t_drop = Engine.now eng in
        (* Blocks for good unless the drop gave the two slots back. *)
        Mailbox.send ch ~bytes:10 3;
        let third = Mailbox.recv ch in
        let latency = Engine.now eng - t_drop in
        Engine.sleep (Time.us 10);
        let after = Mailbox.poll ch in
        let slots = List.init 3 (fun i -> Mailbox.try_send ch ~bytes:10 (10 + i)) in
        (dropped, visible_before, third, latency, slots, after, cancelled eng))
  in
  Alcotest.(check (option int)) "nothing visible before the drop" None visible_before;
  Alcotest.(check int) "both dropped" 2 dropped;
  Alcotest.(check int) "the third arrives" 3 third;
  Alcotest.(check int) "at its own deadline" (Time.ns 550) latency;
  Alcotest.(check (option int)) "the dropped two never arrive" None after;
  Alcotest.(check (list bool)) "every slot free again, and no more"
    [ true; true; false ] slots;
  Alcotest.(check int) "two delivery timers cancelled" 2 n_cancelled

(* A message costs its trace span, its delivery timer (wheel handle and
   engine handle) and the receiver's park; the propagation window and the
   inbox keep it in rings.  OCaml 5.1 on 64 bits measures 22 words per
   message, where a closure, a pair and a [Queue] cell per message in the
   window and a cell and a [Some] in the inbox made it 57.3.  The bound
   sits less than a box (2 words) above the measurement, so a cell, box or
   closure added back per message fails. *)
let test_mailbox_allocation () =
  let eng = Engine.create ~evlog_cap:16 () in
  let a, b = two_partitions eng in
  let ch = Mailbox.create eng ~src:a ~dst:b () in
  let cycle () =
    Mailbox.send ch ~bytes:64 1;
    ignore (Sys.opaque_identity (Mailbox.recv ch))
  in
  let n = 20_000 and words = ref nan in
  ignore
    (Engine.spawn eng (fun () ->
         (* The first messages grow the rings and heaps; measure the rest. *)
         for _ = 1 to 100 do
           cycle ()
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           cycle ()
         done;
         words := Gc.minor_words () -. w0));
  Engine.run eng;
  let per = !words /. float_of_int n in
  if per > 23. then Alcotest.failf "%.2f words per message, bound 23" per

let test_mailbox_recv_timeout () =
  let v =
    run_sim (fun eng ->
        let a, b = two_partitions eng in
        let ch : unit Mailbox.chan = Mailbox.create eng ~src:a ~dst:b () in
        Mailbox.recv_timeout ch ~deadline:(Time.ms 2))
  in
  Alcotest.(check (option unit)) "timed out" None v

(* {1 IPI} *)

let test_ipi_halts_target () =
  let v =
    run_sim (fun eng ->
        let a, _b = two_partitions eng in
        Ipi.send_halt eng a;
        Engine.sleep (Time.us 2);
        Partition.is_halted a)
  in
  Alcotest.(check bool) "target halted" true v

(* {1 Fault injection} *)

let test_fault_failstop_halts () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, b = Machine.split_symmetric m in
        Machine.inject m
          (Fault.at (Time.ms 10) ~partition_id:(Partition.id a) Fault.Core_failstop);
        Engine.sleep (Time.ms 20);
        (Partition.is_halted a, Partition.is_halted b))
  in
  Alcotest.(check (pair bool bool)) "victim down, peer up" (true, false) v

let test_fault_mca_notifies_survivors () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, _b = Machine.split_symmetric m in
        let seen = ref [] in
        Machine.on_machine_check m (fun ev ->
            seen := (ev.Fault.partition_id, ev.Fault.fault_kind) :: !seen);
        Machine.inject m
          (Fault.at (Time.ms 5) ~partition_id:(Partition.id a) Fault.Memory_uncorrected);
        Engine.sleep (Time.ms 10);
        !seen)
  in
  match v with
  | [ (pid, Fault.Memory_uncorrected) ] ->
      Alcotest.(check int) "victim id reported" 1 pid
  | _ -> Alcotest.fail "expected one MCA event"

let test_fault_failstop_silent () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, _b = Machine.split_symmetric m in
        let mca_count = ref 0 in
        Machine.on_machine_check m (fun _ -> incr mca_count);
        Machine.inject m
          (Fault.at (Time.ms 5) ~partition_id:(Partition.id a) Fault.Core_failstop);
        Engine.sleep (Time.ms 10);
        !mca_count)
  in
  Alcotest.(check int) "no MCA for fail-stop" 0 v

let test_fault_log () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, b = Machine.split_symmetric m in
        Machine.inject_all m
          [
            Fault.at (Time.ms 5) ~partition_id:(Partition.id a) Fault.Bus_error;
            Fault.at (Time.ms 8) ~partition_id:(Partition.id b) Fault.Core_failstop;
          ];
        Engine.sleep (Time.ms 20);
        List.map (fun e -> (e.Fault.partition_id, e.Fault.fault_kind)) (Machine.fault_log m))
  in
  Alcotest.(check bool) "two events in order" true
    (v = [ (1, Fault.Bus_error); (2, Fault.Core_failstop) ])

let test_fault_coherency_hook () =
  let v =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, b = Machine.split_symmetric m in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        Machine.on_coherency_loss m ~partition_id:(Partition.id a) (fun () ->
            Mailbox.drop_in_flight ch);
        ignore
          (Partition.spawn a (fun () ->
               Mailbox.send ch ~bytes:10 "lost";
               Engine.sleep (Time.sec 100)));
        Engine.sleep (Time.us 10);
        Machine.inject m
          (Fault.at ~disrupts_coherency:true (Time.us 20)
             ~partition_id:(Partition.id a) Fault.Memory_uncorrected);
        Engine.sleep (Time.ms 1);
        Mailbox.poll ch)
  in
  Alcotest.(check (option string)) "message lost to coherency fault" None v

let test_fault_coherency_empty_ring_noop () =
  (* disrupts_coherency with nothing in flight must be a no-op: the hook
     reports zero lost messages and the mailbox keeps working. *)
  let lost, delivered, halted =
    run_sim (fun eng ->
        let m = Machine.create eng Topology.small in
        let a, b = Machine.split_symmetric m in
        let ch = Mailbox.create eng ~src:a ~dst:b () in
        ignore (Partition.spawn a (fun () -> Mailbox.send ch ~bytes:4 "pre"));
        Engine.sleep (Time.ms 1);
        (* drained: the only message was delivered and polled before the
           fault, so the ring is empty when coherency is disrupted *)
        let delivered = Mailbox.poll ch in
        let lost = ref (-1) in
        Machine.on_coherency_loss m ~partition_id:(Partition.id a) (fun () ->
            let n = Mailbox.drop_in_flight ch in
            lost := n;
            n);
        Machine.inject m
          (Fault.at ~disrupts_coherency:true (Time.ms 2)
             ~partition_id:(Partition.id a) Fault.Bus_error);
        Engine.sleep (Time.ms 2);
        (!lost, delivered, Partition.is_halted a))
  in
  Alcotest.(check int) "hook ran and lost nothing" 0 lost;
  Alcotest.(check (option string)) "ring drained before fault" (Some "pre")
    delivered;
  Alcotest.(check bool) "faulted partition still halts" true halted

let test_fault_pp_bus_error () =
  Alcotest.(check string) "pp_kind" "bus-error"
    (Format.asprintf "%a" Fault.pp_kind Fault.Bus_error);
  let e =
    {
      Fault.time = Time.ms 3;
      partition_id = 2;
      fault_kind = Fault.Bus_error;
      detected_by = Fault.Mca;
    }
  in
  let s = Format.asprintf "%a" Fault.pp_event e in
  Alcotest.(check bool) "pp_event names the kind and channel" true
    (let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains "bus-error" s && contains "MCA" s && contains "partition 2" s)

let () =
  Alcotest.run "hw"
    [
      ( "topology",
        [
          Alcotest.test_case "testbed spec" `Quick test_testbed_spec;
          Alcotest.test_case "bad spec rejected" `Quick test_bad_spec_rejected;
        ] );
      ( "machine",
        [
          Alcotest.test_case "split symmetric" `Quick test_split_symmetric;
          Alcotest.test_case "split asymmetric" `Quick test_split_asymmetric;
          Alcotest.test_case "overcommit rejected" `Quick test_overcommit_rejected;
          Alcotest.test_case "numa exclusive" `Quick test_numa_node_exclusive;
        ] );
      ( "partition",
        [
          Alcotest.test_case "halt kills procs" `Quick test_halt_kills_procs;
          Alcotest.test_case "spawn on halted" `Quick test_spawn_on_halted_raises;
          Alcotest.test_case "halt hooks" `Quick test_halt_hook_fires_once;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "delivery delay" `Quick test_mailbox_delivery_delay;
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "backpressure" `Quick test_mailbox_backpressure;
          Alcotest.test_case "metrics" `Quick test_mailbox_metrics;
          Alcotest.test_case "survives sender halt" `Quick
            test_mailbox_survives_sender_halt;
          Alcotest.test_case "send from halted" `Quick
            test_mailbox_send_from_halted_raises;
          Alcotest.test_case "drop in flight" `Quick test_mailbox_drop_in_flight;
          Alcotest.test_case "drop in the propagation window" `Quick
            test_mailbox_drop_in_window;
          Alcotest.test_case "allocation per message" `Quick
            test_mailbox_allocation;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
        ] );
      ("ipi", [ Alcotest.test_case "halts target" `Quick test_ipi_halts_target ]);
      ( "fault",
        [
          Alcotest.test_case "failstop halts" `Quick test_fault_failstop_halts;
          Alcotest.test_case "mca notifies" `Quick test_fault_mca_notifies_survivors;
          Alcotest.test_case "failstop silent" `Quick test_fault_failstop_silent;
          Alcotest.test_case "empty-ring coherency no-op" `Quick
            test_fault_coherency_empty_ring_noop;
          Alcotest.test_case "bus-error pp" `Quick test_fault_pp_bus_error;
          Alcotest.test_case "fault log" `Quick test_fault_log;
          Alcotest.test_case "coherency hook" `Quick test_fault_coherency_hook;
        ] );
    ]
