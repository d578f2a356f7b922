(* One primary and two backups (paper §6's configurable replica count):
   replication to both, arbitrated takeover, sequential double failures,
   determinism, the failover timeline, and the shapes [Cluster.create]
   refuses. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_netstack
open Ftsim_ftlinux

let small4 =
  { Topology.sockets = 4; cores_per_socket = 2; numa_nodes = 4;
    ram_bytes = 8 * 1024 * 1024 * 1024 }

let test_config =
  {
    Cluster.default_config with
    topology = small4;
    replicas = 3;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 150;
  }

let gbit_link eng = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

let echo_app (api : Api.t) =
  let l = api.Api.net.listen ~port:80 in
  let rec serve () =
    match api.Api.net.accept l with
    | Error _ -> ()
    | Ok s ->
        let rec echo () =
          match api.Api.net.recv s ~max:4096 with
          | Error _ -> api.Api.net.close s
          | Ok cs ->
              List.iter (fun c -> ignore (api.Api.net.send s c)) cs;
              echo ()
        in
        echo ();
        serve ()
  in
  serve ()

(* A paced client: sends [messages] one at a time, awaiting each echo. *)
let spawn_client _eng client messages =
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 64 in
         List.iter
           (fun msg ->
             Tcp.send c (Payload.of_string msg);
             let want = String.length msg in
             let got = ref 0 in
             while !got < want do
               match Tcp.recv c ~max:4096 with
               | [] -> failwith "eof"
               | cs ->
                   got := !got + Payload.total_len cs;
                   Buffer.add_string out (Payload.concat_to_string cs)
             done;
             Engine.sleep (Time.ms 4))
           messages;
         Tcp.close c;
         Ivar.fill result (Buffer.contents out)));
  result

let test_triple_replicates_to_both () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result = spawn_client eng client [ "one "; "two "; "three" ] in
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "echo works" (Some "one two three")
    (Ivar.peek result);
  Alcotest.(check bool) "both backups received the log" true
    (Cluster.backup_received_lsn t 0 > 5
    && Cluster.backup_received_lsn t 1 > 5);
  Alcotest.(check bool) "logs in step" true
    (Cluster.backup_received_lsn t 0 = Cluster.backup_received_lsn t 1)

let test_triple_primary_failover () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 25 (fun i -> Printf.sprintf "m%02d|" i) in
  let result = spawn_client eng client messages in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "stream exactly once across failover"
    (Some (String.concat "" messages))
    (Ivar.peek result);
  (match Cluster.winner t with
  | Some w -> Alcotest.(check bool) "a backup won" true (w = 0 || w = 1)
  | None -> Alcotest.fail "no winner");
  Alcotest.(check bool) "failover completed" true
    (Ivar.is_filled (Cluster.failover_done t));
  Alcotest.(check int) "one takeover" 1 (Cluster.failover_count t)

let test_triple_double_sequential_failure () =
  (* Backup 0 dies first; the primary continues replicated to backup 1;
     later the primary dies too and backup 1 takes over alone. *)
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Backup ~at:(Time.ms 40);
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 160);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 30 (fun i -> Printf.sprintf "d%02d|" i) in
  let result = spawn_client eng client messages in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  Alcotest.(check (option string)) "stream survives two failures"
    (Some (String.concat "" messages))
    (Ivar.peek result);
  Alcotest.(check (option int)) "the surviving backup won" (Some 1)
    (Cluster.winner t);
  Alcotest.(check bool) "backup 0 is down" true
    (Partition.is_halted (Cluster.backup_partition t 0));
  Alcotest.(check int) "one takeover" 1 (Cluster.failover_count t)

let test_triple_deterministic () =
  let run () =
    let eng = Engine.create ~seed:99 () in
    let link = gbit_link eng in
    let t =
      Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
        ~app:echo_app ()
    in
    Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
    let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
    let result =
      spawn_client eng client (List.init 10 (fun i -> Printf.sprintf "x%d." i))
    in
    Engine.run ~until:(Time.sec 15) eng;
    Cluster.shutdown t;
    (Ivar.peek result, Cluster.winner t,
     Cluster.backup_received_lsn t 0, Cluster.backup_received_lsn t 1)
  in
  Alcotest.(check bool) "two runs bit-identical" true (run () = run ())

(* The four pinned failover.* spans cover the three-replica takeover
   end to end: detect opens at the primary's halt, each phase ends where
   the next begins, and golive closes at completion. *)
let test_triple_failover_spans () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let t =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 60);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let _result =
    spawn_client eng client (List.init 20 (fun i -> Printf.sprintf "s%02d|" i))
  in
  Engine.run ~until:(Time.sec 20) eng;
  Cluster.shutdown t;
  let evs = Evlog.events (Engine.evlog eng) in
  let phase name =
    match Evlog.Query.span_of ~comp:"ft.cluster" ~name evs with
    | Some be -> be
    | None -> Alcotest.failf "phase span %s missing from trace" name
  in
  let d0, d1 = phase "failover.detect" in
  let r0, r1 = phase "failover.drain_replay" in
  let v0, v1 = phase "failover.driver_reload" in
  let g0, g1 = phase "failover.golive" in
  Alcotest.(check bool) "phases are contiguous" true
    (d1 = r0 && r1 = v0 && v1 = g0);
  match (Cluster.primary_halted_at t, Cluster.failover_completed_at t) with
  | Some halt, Some live ->
      Alcotest.(check int) "detect begins at the halt" halt d0;
      Alcotest.(check int) "golive ends at completion" live g1;
      Alcotest.(check int) "phase durations sum to the recovery time"
        (live - halt)
        (d1 - d0 + (r1 - r0) + (v1 - v0) + (g1 - g0))
  | _ -> Alcotest.fail "failover did not run"

let test_create_rejects_unsupported_shapes () =
  let rejects what config =
    Alcotest.(check bool) (what ^ ": check_config") true
      (Result.is_error (Cluster.check_config config));
    let eng = Engine.create () in
    match Cluster.create eng ~config ~app:echo_app () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "one replica" { test_config with replicas = 1 };
  rejects "re-protection with three" { test_config with reprotect = true };
  rejects "asymmetric split with three"
    { test_config with split = `Asymmetric 4 };
  rejects "NUMA nodes that do not divide"
    { test_config with topology = Topology.small }

(* Without re-protection, at two and three replicas: the set reads
   [Degraded] once the last backup is gone or a backup took over, and
   [Outage] exactly when every member is halted. *)
let test_lifecycle_table () =
  let open Replica_set in
  let scenario (replicas, kills, want) =
    let eng = Engine.create () in
    let link = gbit_link eng in
    let config =
      if replicas = 2 then { test_config with replicas; topology = Topology.small }
      else test_config
    in
    let t =
      Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app:echo_app ()
    in
    List.iter (fun (role, ms) -> Cluster.kill t ~role ~at:(Time.ms ms)) kills;
    Engine.run ~until:(Time.sec 1) eng;
    Cluster.shutdown t;
    let what =
      Printf.sprintf "%d replicas, kills [%s]" replicas
        (String.concat "; "
           (List.map (fun (r, ms) -> Printf.sprintf "%s@%d" (role_label r) ms) kills))
    in
    Alcotest.(check string) what (lifecycle_label want)
      (lifecycle_label (Cluster.state t));
    Alcotest.(check bool) (what ^ ": outage iff every member halted")
      (Cluster.all_halted t)
      (Cluster.state t = Cluster.Outage)
  in
  List.iter scenario
    [
      (2, [], Protected);
      (2, [ (Backup, 40) ], Degraded);
      (2, [ (Backup, 40); (Primary, 100) ], Outage);
      (2, [ (Primary, 40) ], Degraded);
      (2, [ (Primary, 40); (Backup, 400) ], Outage);
      (3, [], Protected);
      (3, [ (Backup, 40) ], Protected);
      (3, [ (Backup, 40); (Backup, 60) ], Degraded);
      (3, [ (Backup, 40); (Backup, 60); (Primary, 100) ], Outage);
      (3, [ (Primary, 40) ], Degraded);
      (3, [ (Primary, 40); (Backup, 400) ], Outage);
    ]

let () =
  Alcotest.run "tricluster"
    [
      ( "tricluster",
        [
          Alcotest.test_case "replicates to both" `Quick
            test_triple_replicates_to_both;
          Alcotest.test_case "primary failover" `Quick test_triple_primary_failover;
          Alcotest.test_case "double sequential failure" `Quick
            test_triple_double_sequential_failure;
          Alcotest.test_case "deterministic" `Quick test_triple_deterministic;
          Alcotest.test_case "three-replica failover spans" `Quick
            test_triple_failover_spans;
          Alcotest.test_case "create rejects unsupported shapes" `Quick
            test_create_rejects_unsupported_shapes;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "degraded and outage without re-protection"
            `Quick test_lifecycle_table;
        ] );
    ]
