(* Tests for the FT-Linux replication runtime: deterministic replay, TCP
   logical-state replication, output commit, failure detection, failover. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

(* A small machine and tight timers keep the simulations fast. *)
let test_config =
  {
    Cluster.default_config with
    topology = Topology.small;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 200;
  }

let gbit_link eng = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

(* {1 Deterministic replication of a racy pthread application} *)

(* Workers contend on a mutex-protected counter; each appends (worker, value)
   observations.  Any interleaving is a correct execution, but primary and
   secondary must observe the *same* one. *)
let racy_app ~iters ~workers trace_out =
  fun (api : Api.t) ->
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let counter = ref 0 in
    let trace = ref [] in
    let threads =
      List.init workers (fun w ->
          api.Api.thread.spawn (Printf.sprintf "worker-%d" w) (fun () ->
              for _ = 1 to iters do
                api.Api.thread.compute (Time.us 10);
                Pthread.mutex_lock pt m;
                incr counter;
                trace := (w, !counter) :: !trace;
                Pthread.mutex_unlock pt m
              done))
    in
    List.iter api.Api.thread.join threads;
    trace_out := Some (List.rev !trace)

let test_replay_matches_primary () =
  let eng = Engine.create () in
  let tp = ref None and ts = ref None in
  let seen = ref 0 in
  let app api =
    (* The same closure must not share state across replicas: dispatch the
       trace cell by kernel name. *)
    let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
    racy_app ~iters:50 ~workers:4 out api;
    incr seen
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  (match (!tp, !ts) with
  | Some p, Some s ->
      Alcotest.(check int) "same observation count" (List.length p) (List.length s);
      Alcotest.(check bool) "secondary observed the primary's interleaving" true
        (p = s);
      Alcotest.(check int) "counter fully incremented" 200 (List.length p)
  | None, _ -> Alcotest.fail "primary app did not finish"
  | _, None -> Alcotest.fail "secondary app did not finish");
  Alcotest.(check int) "both replicas ran the app" 2 !seen

let test_nontrivial_interleaving_replayed () =
  (* With staggered start times the interleaving is not round-robin; the
     secondary must still match it exactly. *)
  let eng = Engine.create ~seed:7 () in
  let tp = ref None and ts = ref None in
  let app api =
    let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let trace = ref [] in
    let threads =
      List.init 3 (fun w ->
          api.Api.thread.spawn (Printf.sprintf "w%d" w) (fun () ->
              for i = 1 to 30 do
                api.Api.thread.compute (Time.us (10 + (w * 7) + (i mod 5)));
                Pthread.mutex_lock pt m;
                trace := w :: !trace;
                Pthread.mutex_unlock pt m
              done))
    in
    List.iter api.Api.thread.join threads;
    out := Some (List.rev !trace)
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  match (!tp, !ts) with
  | Some p, Some s ->
      Alcotest.(check bool) "interleavings identical" true (p = s);
      (* Sanity: the interleaving must not be trivially sorted. *)
      Alcotest.(check bool) "interleaving is non-trivial" true
        (p <> List.sort compare p)
  | _ -> Alcotest.fail "apps did not finish"

let test_gettimeofday_synchronized () =
  let eng = Engine.create () in
  let vp = ref [] and vs = ref [] in
  let app api =
    let out = if Kernel.name api.Api.kernel = "primary" then vp else vs in
    for _ = 1 to 5 do
      api.Api.thread.compute (Time.ms 1);
      out := api.Api.thread.gettimeofday () :: !out
    done
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;
  Alcotest.(check (list int)) "secondary sees primary clock values" !vp !vs;
  Alcotest.(check int) "five readings" 5 (List.length !vp)

let test_cond_timedwait_outcome_replicated () =
  (* One thread timedwaits with a deadline that races a signal; both
     replicas must agree on the outcome. *)
  let eng = Engine.create () in
  let op = ref None and os = ref None in
  let app api =
    let out = if Kernel.name api.Api.kernel = "primary" then op else os in
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let c = Pthread.cond_create pt in
    let waiter =
      api.Api.thread.spawn "waiter" (fun () ->
          Pthread.mutex_lock pt m;
          let r = Pthread.cond_timedwait pt c m ~deadline:(Time.ms 50) in
          Pthread.mutex_unlock pt m;
          out := Some (r = `Timeout))
    in
    ignore
      (api.Api.thread.spawn "signaler" (fun () ->
           api.Api.thread.compute (Time.ms 10);
           Pthread.mutex_lock pt m;
           Pthread.cond_signal pt c;
           Pthread.mutex_unlock pt m));
    api.Api.thread.join waiter
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;
  match (!op, !os) with
  | Some p, Some s ->
      Alcotest.(check bool) "outcomes agree" true (p = s);
      Alcotest.(check bool) "signal won the race" false p
  | _ -> Alcotest.fail "apps did not finish"

(* {1 TCP replication} *)

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

let run_echo_scenario ?(config = test_config) ?pace ~fail_primary_at ~messages
    eng =
  let link = gbit_link eng in
  let cluster =
    Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app:echo_app ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  (match fail_primary_at with
  | Some at -> Cluster.kill cluster ~role:Replica_set.Primary ~at
  | None -> ());
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 64 in
         List.iteri
           (fun i msg ->
             (match pace with
             | Some gap when i > 0 -> Engine.sleep gap
             | _ -> ());
             Tcp.send c (Payload.of_string msg);
             let want = String.length msg in
             let got = ref 0 in
             while !got < want do
               match Tcp.recv c ~max:4096 with
               | [] -> failwith "eof from server"
               | cs ->
                   got := !got + Payload.total_len cs;
                   Buffer.add_string out (Payload.concat_to_string cs)
             done;
             ignore i)
           messages;
         Tcp.close c;
         Ivar.fill result (Buffer.contents out)));
  (cluster, result)

let test_replicated_echo () =
  let eng = Engine.create () in
  let messages = [ "alpha "; "beta "; "gamma" ] in
  let cluster, result = run_echo_scenario ~fail_primary_at:None ~messages eng in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  match Ivar.peek result with
  | Some s -> Alcotest.(check string) "echo through replication" "alpha beta gamma" s
  | None -> Alcotest.fail "client did not finish"

let test_replication_traffic_flows () =
  let eng = Engine.create () in
  let cluster, result =
    run_echo_scenario ~fail_primary_at:None ~messages:[ "ping" ] eng
  in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "client done" true (Ivar.peek result <> None);
  Alcotest.(check bool) "records streamed" true (Cluster.records_sent cluster > 5);
  Alcotest.(check bool) "mailbox traffic counted" true
    (Cluster.traffic_bytes cluster > 0)

let test_failover_echo_continues () =
  (* Kill the primary mid-session; the established connection must survive
     and subsequent echos must come from the promoted secondary. *)
  let eng = Engine.create () in
  let messages = List.init 30 (fun i -> Printf.sprintf "msg-%02d|" i) in
  let cluster, result =
    run_echo_scenario ~fail_primary_at:(Some (Time.ms 120)) ~messages eng
  in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "complete, unduplicated stream"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish after failover");
  Alcotest.(check bool) "failover actually happened" true
    (Ivar.peek (Cluster.failover_done cluster) <> None);
  Alcotest.(check bool) "primary is down" true
    (Partition.is_halted (Cluster.primary_partition cluster))

let test_failover_duration_dominated_by_driver () =
  let eng = Engine.create () in
  let messages = List.init 20 (fun i -> Printf.sprintf "m%d." i) in
  let cluster, _result =
    run_echo_scenario ~fail_primary_at:(Some (Time.ms 100)) ~messages eng
  in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  match
    (Cluster.failover_started_at cluster, Cluster.failover_completed_at cluster)
  with
  | Some t0, Some t1 ->
      let d = t1 - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "duration %s >= driver load" (Time.to_string d))
        true
        (d >= Time.ms 200);
      Alcotest.(check bool)
        (Printf.sprintf "duration %s < driver load + 1s" (Time.to_string d))
        true
        (d < Time.ms 1200)
  | _ -> Alcotest.fail "failover did not run"

let test_secondary_failure_primary_solo () =
  let eng = Engine.create () in
  let messages = List.init 10 (fun i -> Printf.sprintf "x%d." i) in
  let link = gbit_link eng in
  let cluster =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Machine.inject (Cluster.machine cluster)
    (Fault.at (Time.ms 100)
       ~partition_id:(Partition.id (Cluster.backup_partition cluster 0))
       Fault.Memory_uncorrected);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         (* Start after the secondary is already gone. *)
         Engine.sleep (Time.ms 300);
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
             done)
           messages;
         Ivar.fill result (Buffer.contents out)));
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "primary serves solo" (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish against solo primary"

let test_compute_only_failover () =
  (* No network: a replicated compute application keeps making progress on
     the secondary after the primary dies. *)
  let eng = Engine.create () in
  let progress_p = ref 0 and progress_s = ref 0 in
  let app api =
    let cell =
      if Kernel.name api.Api.kernel = "primary" then progress_p else progress_s
    in
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    for _ = 1 to 1000 do
      api.Api.thread.compute (Time.ms 1);
      Pthread.mutex_lock pt m;
      incr cell;
      Pthread.mutex_unlock pt m
    done
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 200);
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "primary died early" true (!progress_p < 1000);
  Alcotest.(check int) "secondary finished the job" 1000 !progress_s

let test_failover_with_coherency_loss () =
  (* A memory fault that disrupts cache coherency loses the in-flight
     mailbox messages (3.5's rare worst case).  Output commit guarantees
     the client still observes an exactly-once stream: nothing the client
     saw depended on a record that was lost. *)
  let eng = Engine.create () in
  let link = gbit_link eng in
  let cluster =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:echo_app ()
  in
  Machine.inject (Cluster.machine cluster)
    (Fault.at ~disrupts_coherency:true (Time.ms 120)
       ~partition_id:(Partition.id (Cluster.primary_partition cluster))
       Fault.Memory_uncorrected);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 25 (fun i -> Printf.sprintf "c%02d|" i) in
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
             done)
           messages;
         Ivar.fill result (Buffer.contents out)));
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "exactly-once despite lost log suffix"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish"

(* {1 Property: arbitrary programs replay identically} *)

(* A random multi-threaded program over the replicated pthread API: each
   thread interleaves compute delays with critical sections appending to a
   shared trace.  Whatever interleaving the primary exhibits, the secondary
   must reproduce it exactly. *)
let prop_random_program_replays =
  QCheck.Test.make ~name:"random programs replay identically" ~count:15
    QCheck.(
      pair (int_range 2 4)
        (list_of_size (Gen.int_range 5 25) (int_range 1 400)))
    (fun (nthreads, delays) ->
      QCheck.assume (delays <> []);
      let eng = Engine.create ~seed:(Hashtbl.hash (nthreads, delays)) () in
      let tp = ref None and ts = ref None in
      let delay_arr = Array.of_list delays in
      let app api =
        let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
        let pt = api.Api.pt in
        let m = Pthread.mutex_create pt in
        let c = Pthread.cond_create pt in
        let trace = ref [] in
        let turn = ref 0 in
        let threads =
          List.init nthreads (fun w ->
              api.Api.thread.spawn (Printf.sprintf "t%d" w) (fun () ->
                  Array.iteri
                    (fun i d ->
                      api.Api.thread.compute (Time.us ((d + (w * 37) + i) mod 500));
                      Pthread.mutex_lock pt m;
                      trace := ((w * 1000) + i) :: !trace;
                      (* Occasionally bounce through the condvar. *)
                      if (d + w) mod 7 = 0 then begin
                        turn := w;
                        Pthread.cond_signal pt c
                      end;
                      Pthread.mutex_unlock pt m)
                    delay_arr))
        in
        List.iter api.Api.thread.join threads;
        out := Some (List.rev !trace)
      in
      let cluster = Cluster.create eng ~config:test_config ~app () in
      Engine.run ~until:(Time.sec 60) eng;
      Cluster.shutdown cluster;
      match (!tp, !ts) with
      | Some p, Some s -> p = s && List.length p = nthreads * Array.length delay_arr
      | _ -> false)

(* {1 Determinism of the whole simulation} *)

let test_whole_sim_deterministic () =
  let run () =
    let eng = Engine.create ~seed:123 () in
    let cluster, result =
      run_echo_scenario ~fail_primary_at:(Some (Time.ms 120))
        ~messages:(List.init 10 (fun i -> Printf.sprintf "d%d." i))
        eng
    in
    Engine.run ~until:(Time.sec 20) eng;
    Cluster.shutdown cluster;
    (Ivar.peek result, Cluster.traffic_msgs cluster, Cluster.det_ops cluster)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_barrier_sem_app_replays () =
  (* A bulk-synchronous app: phases separated by barriers, admission
     bounded by a semaphore.  The per-phase serial thread and the admission
     order must replicate. *)
  let eng = Engine.create () in
  let tp = ref None and ts = ref None in
  let app (api : Api.t) =
    let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
    let pt = api.Api.pt in
    let b = Pthread.barrier_create pt ~count:3 in
    let s = Pthread.sem_create pt 1 in
    let trace = ref [] in
    let ths =
      List.init 3 (fun w ->
          api.Api.thread.spawn (Printf.sprintf "bsp-%d" w) (fun () ->
              for phase = 1 to 4 do
                api.Api.thread.compute (Time.us ((w * 17) + phase));
                Pthread.sem_wait pt s;
                trace := (phase, w) :: !trace;
                Pthread.sem_post pt s;
                match Pthread.barrier_wait pt b with
                | `Serial -> trace := (phase, 100 + w) :: !trace
                | `Normal -> ()
              done))
    in
    List.iter api.Api.thread.join ths;
    out := Some (List.rev !trace)
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  match (!tp, !ts) with
  | Some p, Some s ->
      Alcotest.(check bool) "traces identical" true (p = s);
      Alcotest.(check int) "3 threads x 4 phases + 4 serials" 16 (List.length p)
  | _ -> Alcotest.fail "apps did not finish"

let test_env_replicated_to_namespace () =
  let eng = Engine.create () in
  let seen = ref [] in
  let app (api : Api.t) =
    seen :=
      (Kernel.name api.Api.kernel, api.Api.env.getenv "MODE", api.Api.env.getenv "NOPE")
      :: !seen
  in
  let config =
    { test_config with Cluster.app_env = [ ("MODE", "prod"); ("PORT", "80") ] }
  in
  let cluster = Cluster.create eng ~config ~app () in
  Engine.run ~until:(Time.sec 1) eng;
  Cluster.shutdown cluster;
  let find k = List.find_opt (fun (n, _, _) -> n = k) !seen in
  match (find "primary", find "secondary") with
  | Some (_, mp, np), Some (_, ms, ns) ->
      Alcotest.(check (option string)) "primary sees MODE" (Some "prod") mp;
      Alcotest.(check bool) "replica environment identical" true
        (mp = ms && np = ns && np = None)
  | _ -> Alcotest.fail "apps did not run on both replicas"

(* {1 Replicated file system (6 extension)} *)

let test_fs_replicas_converge () =
  (* Threads append interleaved records to a shared log file; both
     replicas' local file systems must end up byte-identical. *)
  let eng = Engine.create () in
  let done_count = ref 0 in
  let app (api : Api.t) =
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let fd = api.Api.fs.open_ ~path:"/var/log/app" ~create:true in
    let ths =
      List.init 3 (fun w ->
          api.Api.thread.spawn (Printf.sprintf "logger-%d" w) (fun () ->
              for i = 1 to 20 do
                api.Api.thread.compute (Time.us ((w * 31) + i));
                Pthread.mutex_lock pt m;
                api.Api.fs.append fd
                  (Payload.of_string (Printf.sprintf "[w%d:%03d]" w i));
                Pthread.mutex_unlock pt m
              done))
    in
    List.iter api.Api.thread.join ths;
    api.Api.fs.close fd;
    incr done_count
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check int) "both replicas ran" 2 !done_count;
  let vp = Namespace.vfs_of (Cluster.primary_namespace cluster) in
  let vs = Namespace.vfs_of (Cluster.backup_namespace cluster 0) in
  Alcotest.(check (option int)) "sizes equal" (Vfs.size vp ~path:"/var/log/app")
    (Vfs.size vs ~path:"/var/log/app");
  Alcotest.(check bool) "contents byte-identical" true
    (Vfs.checksum vp ~path:"/var/log/app" = Vfs.checksum vs ~path:"/var/log/app"
    && Vfs.checksum vp ~path:"/var/log/app" <> None);
  Alcotest.(check (option int)) "all 60 records present" (Some (60 * 8))
    (Vfs.size vp ~path:"/var/log/app")

let test_fs_read_lengths_replicated () =
  (* A reader observes short reads at page-cluster boundaries; the replica
     must observe the same byte counts (logged, not re-derived). *)
  let eng = Engine.create () in
  let rp = ref None and rs = ref None in
  let app (api : Api.t) =
    let out = if Kernel.name api.Api.kernel = "primary" then rp else rs in
    let fd = api.Api.fs.open_ ~path:"/f" ~create:true in
    api.Api.fs.append fd (Payload.zeroes 200_000);
    api.Api.fs.close fd;
    let fd = api.Api.fs.open_ ~path:"/f" ~create:false in
    let lens = ref [] in
    let rec loop () =
      match api.Api.fs.read fd ~max:150_000 with
      | Error _ -> ()
      | Ok cs ->
          lens := Payload.total_len cs :: !lens;
          loop ()
    in
    loop ();
    api.Api.fs.close fd;
    out := Some (List.rev !lens)
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;
  match (!rp, !rs) with
  | Some p, Some s ->
      Alcotest.(check bool) "read lengths identical" true (p = s);
      Alcotest.(check int) "total bytes" 200_000 (List.fold_left ( + ) 0 p);
      Alcotest.(check bool) "short reads actually occurred" true
        (List.length p > 1)
  | _ -> Alcotest.fail "apps did not finish"

let test_fs_survives_failover () =
  (* The primary dies mid-logging; the secondary's replica file system
     carries the prefix and the app finishes the log after going live. *)
  let eng = Engine.create () in
  let secondary_done = ref false in
  let app (api : Api.t) =
    let fd = api.Api.fs.open_ ~path:"/journal" ~create:true in
    for i = 1 to 400 do
      api.Api.thread.compute (Time.us 500);
      api.Api.fs.append fd (Payload.of_string (Printf.sprintf "%04d\n" i))
    done;
    api.Api.fs.close fd;
    if Kernel.name api.Api.kernel = "secondary" then secondary_done := true
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 50);
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "secondary finished the journal" true !secondary_done;
  let vs = Namespace.vfs_of (Cluster.backup_namespace cluster 0) in
  Alcotest.(check (option int)) "complete journal, no gaps or dups"
    (Some (400 * 5))
    (Vfs.size vs ~path:"/journal")

(* {1 Replicated poll (epoll interposition)} *)

(* A single-threaded poll-based echo server: one thread multiplexes all
   connections with net_poll — the paper's epoll interposition path. *)
let poll_echo_app (api : Api.t) =
  let l = api.Api.net.listen ~port:80 in
  let socks = ref [] in
  (* Accept two connections up front, then serve both from one thread. *)
  for _ = 1 to 2 do
    match api.Api.net.accept l with
    | Ok s -> socks := s :: !socks
    | Error _ -> ()
  done;
  let socks = List.rev !socks in
  let open_count = ref (List.length socks) in
  while !open_count > 0 do
    let ready = api.Api.net.poll socks ~timeout:(Time.sec 10) in
    List.iter
      (fun s ->
        match api.Api.net.recv s ~max:4096 with
        | Error _ ->
            api.Api.net.close s;
            decr open_count
        | Ok cs -> List.iter (fun c -> ignore (api.Api.net.send s c)) cs)
      ready
  done

(* Two clients of [poll_echo_app], connecting at 1 and 2 ms; each slot
   holds the bytes its client got back. *)
let poll_clients eng link =
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let results = [| None; None |] in
  List.iteri
    (fun i msgs ->
      ignore
        (Host.spawn client (Printf.sprintf "client-%d" i) (fun () ->
             Engine.sleep (Time.ms (1 + i));
             let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
             let out = Buffer.create 32 in
             List.iter
               (fun m ->
                 Tcp.send c (Payload.of_string m);
                 let want = String.length m in
                 let got = ref 0 in
                 while !got < want do
                   match Tcp.recv c ~max:4096 with
                   | [] -> failwith "eof"
                   | cs ->
                       got := !got + Payload.total_len cs;
                       Buffer.add_string out (Payload.concat_to_string cs)
                 done)
               msgs;
             Tcp.close c;
             results.(i) <- Some (Buffer.contents out))))
    [ [ "a1 "; "a2 "; "a3" ]; [ "b1 "; "b2" ] ];
  results

let test_replicated_poll_server () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let cluster =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
      ~app:poll_echo_app ()
  in
  let results = poll_clients eng link in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check (option string)) "client 0 echoed" (Some "a1 a2 a3") results.(0);
  Alcotest.(check (option string)) "client 1 echoed" (Some "b1 b2") results.(1)

(* {1 One syscall table for every role} *)

(* Threads, the file system, the clock and a poll echo server, run the same
   way standalone, as primary and as replaying secondary.  Each writer
   thread fills its own file, so the contents do not depend on scheduling;
   [out] collects, per kernel, every file's size and read chunks. *)
let parity_app out (api : Api.t) =
  let path w = Printf.sprintf "/log-%d" w in
  let writers =
    List.init 2 (fun w ->
        api.Api.thread.spawn (Printf.sprintf "writer-%d" w) (fun () ->
            let fd = api.Api.fs.open_ ~path:(path w) ~create:true in
            for i = 1 to 10 do
              api.Api.fs.append fd
                (Payload.of_string (Printf.sprintf "[w%d:%02d]" w i))
            done;
            api.Api.fs.close fd))
  in
  List.iter api.Api.thread.join writers;
  let t0 = api.Api.thread.gettimeofday () in
  let files =
    List.init 2 (fun w ->
        let fd = api.Api.fs.open_ ~path:(path w) ~create:false in
        let rec read acc =
          match api.Api.fs.read fd ~max:32 with
          | Error _ -> List.rev acc
          | Ok cs -> read (Payload.concat_to_string cs :: acc)
        in
        let chunks = read [] in
        api.Api.fs.close fd;
        (api.Api.fs.size ~path:(path w), chunks))
  in
  let t1 = api.Api.thread.gettimeofday () in
  out := (Kernel.name api.Api.kernel, (files, t1 >= t0)) :: !out;
  poll_echo_app api

let test_standalone_matches_replicated () =
  let run replicated =
    let eng = Engine.create () in
    let link = gbit_link eng in
    let out = ref [] in
    let app = parity_app out in
    let det_ops, shutdown =
      if replicated then
        let c =
          Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
            ~app ()
        in
        ((fun () -> Cluster.det_ops c), fun () -> Cluster.shutdown c)
      else
        let sa =
          Cluster.create_standalone eng ~topology:Topology.small
            ~link:(Link.endpoint_a link) ~app ()
        in
        ((fun () -> Namespace.det_ops (Cluster.standalone_namespace sa)), ignore)
    in
    let echoed = poll_clients eng link in
    Engine.run ~until:(Time.sec 10) eng;
    shutdown ();
    (!out, Array.to_list echoed, det_ops ())
  in
  let sa_out, sa_echoed, sa_ops = run false in
  let ft_out, ft_echoed, ft_ops = run true in
  let files = function
    | [ (_, (files, clock_ok)) ] ->
        Alcotest.(check bool) "clock monotonic" true clock_ok;
        files
    | _ -> Alcotest.fail "app did not finish once per kernel"
  in
  let sa_files = files sa_out in
  let expected =
    List.init 2 (fun w ->
        String.concat ""
          (List.init 10 (fun i -> Printf.sprintf "[w%d:%02d]" w (i + 1))))
  in
  Alcotest.(check (list string)) "standalone file contents" expected
    (List.map (fun (_, chunks) -> String.concat "" chunks) sa_files);
  Alcotest.(check (list (list int))) "standalone read lengths"
    [ [ 32; 32; 6 ]; [ 32; 32; 6 ] ]
    (List.map (fun (_, chunks) -> List.map String.length chunks) sa_files);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " reads what standalone reads") true
        (files (List.filter (fun (k, _) -> k = name) ft_out) = sa_files))
    [ "primary"; "secondary" ];
  Alcotest.(check (list (option string))) "standalone echoes"
    [ Some "a1 a2 a3"; Some "b1 b2" ] sa_echoed;
  Alcotest.(check (list (option string))) "replicated echoes the same bytes"
    sa_echoed ft_echoed;
  Alcotest.(check int) "standalone runs no det sections" 0 sa_ops;
  Alcotest.(check bool) "replicated runs det sections" true (ft_ops > 0)

(* An app that closes its listener at 600 ms and listens on the same port
   again; a client connecting at 700 ms must be accepted and echoed.
   [accepted] collects each kernel's accept outcome. *)
let relisten_app accepted (api : Api.t) =
  let l = api.Api.net.listen ~port:80 in
  api.Api.thread.compute (Time.ms 600);
  api.Api.net.close_listener l;
  let l = api.Api.net.listen ~port:80 in
  let name = Kernel.name api.Api.kernel in
  match api.Api.net.accept l with
  | Error e -> accepted := (name, Api.err_to_string e) :: !accepted
  | Ok s ->
      accepted := (name, "ok") :: !accepted;
      (match api.Api.net.recv s ~max:4096 with
      | Ok cs -> List.iter (fun c -> ignore (api.Api.net.send s c)) cs
      | Error _ -> ());
      api.Api.net.close s

let test_relisten_after_close role () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let accepted = ref [] in
  let app = relisten_app accepted in
  let server, shutdown =
    match role with
    | `Standalone ->
        ignore
          (Cluster.create_standalone eng ~topology:Topology.small
             ~link:(Link.endpoint_a link) ~app ());
        ("ubuntu", ignore)
    | `Primary | `Live_secondary ->
        let c =
          Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link)
            ~app ()
        in
        if role = `Live_secondary then
          (* The failover completes long before the re-listen. *)
          Cluster.kill c ~role:Replica_set.Primary ~at:(Time.ms 50);
        ((if role = `Primary then "primary" else "secondary"), fun () ->
          Cluster.shutdown c)
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let echoed = ref None in
  ignore
    (Host.spawn client "client" (fun () ->
         Engine.sleep (Time.ms 700);
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         Tcp.send c (Payload.of_string "again");
         echoed := Some (Payload.concat_to_string (Tcp.recv c ~max:4096));
         Tcp.close c));
  Engine.run ~until:(Time.sec 2) eng;
  shutdown ();
  Alcotest.(check (option string)) "accept after re-listen" (Some "ok")
    (List.assoc_opt server !accepted);
  Alcotest.(check (option string)) "client echoed" (Some "again") !echoed

(* {1 Voter (3-replica extension, paper 6)} *)

let test_voter_majority () =
  let v = Voter.create ~replicas:3 in
  Voter.submit v ~replica:0 ~seq:0 42;
  Alcotest.(check bool) "pending with one vote" true (Voter.verdict v ~seq:0 = Voter.Pending);
  Voter.submit v ~replica:1 ~seq:0 42;
  Alcotest.(check bool) "agreed at majority" true
    (Voter.verdict v ~seq:0 = Voter.Agreed 42);
  (* The laggard disagrees: flagged, decision unchanged. *)
  Voter.submit v ~replica:2 ~seq:0 99;
  Alcotest.(check bool) "decision stable" true (Voter.verdict v ~seq:0 = Voter.Agreed 42);
  Alcotest.(check (list int)) "divergent replica flagged" [ 2 ] (Voter.divergent v)

let test_voter_detects_corruption_mid_stream () =
  let v = Voter.create ~replicas:3 in
  (* Replica 1 silently corrupts from seq 5 on. *)
  for seq = 0 to 9 do
    for r = 0 to 2 do
      let d = if r = 1 && seq >= 5 then 1000 + seq else 7 * seq in
      Voter.submit v ~replica:r ~seq d
    done
  done;
  Alcotest.(check int) "all outputs decided" 10 (Voter.decided_prefix v);
  Alcotest.(check bool) "corrupt replica flagged" true (Voter.is_faulty v ~replica:1);
  Alcotest.(check bool) "healthy replicas clean" true
    ((not (Voter.is_faulty v ~replica:0)) && not (Voter.is_faulty v ~replica:2))

let test_voter_inconsistent () =
  let v = Voter.create ~replicas:3 in
  Voter.submit v ~replica:0 ~seq:0 1;
  Voter.submit v ~replica:1 ~seq:0 2;
  Voter.submit v ~replica:2 ~seq:0 3;
  Alcotest.(check bool) "three-way split has no majority" true
    (Voter.verdict v ~seq:0 = Voter.Inconsistent)

let test_voter_on_three_replica_outputs () =
  (* Three standalone replicas of the same deterministic app; one gets a
     bit flipped in its output stream.  The voter pins it. *)
  let run_replica corrupt =
    let eng = Engine.create ~seed:5 () in
    let outputs = ref [] in
    let app api =
      let pt = api.Api.pt in
      let m = Ftsim_kernel.Pthread.mutex_create pt in
      let acc = ref 0 in
      let ths =
        List.init 3 (fun w ->
            api.Api.thread.spawn (Printf.sprintf "w%d" w) (fun () ->
                for i = 1 to 20 do
                  api.Api.thread.compute (Time.us ((w * 13) + i));
                  Ftsim_kernel.Pthread.mutex_lock pt m;
                  acc := !acc + (w + 1);
                  outputs := !acc :: !outputs;
                  Ftsim_kernel.Pthread.mutex_unlock pt m
                done))
      in
      List.iter api.Api.thread.join ths
    in
    let _sa =
      Cluster.create_standalone eng ~topology:Topology.small ~app ()
    in
    Engine.run eng;
    let outs = List.rev !outputs in
    if corrupt then List.mapi (fun i x -> if i = 30 then x + 1 else x) outs
    else outs
  in
  let streams = [ run_replica false; run_replica true; run_replica false ] in
  let v = Voter.create ~replicas:3 in
  List.iteri
    (fun r stream -> List.iteri (fun seq d -> Voter.submit v ~replica:r ~seq d) stream)
    streams;
  Alcotest.(check int) "all 60 outputs decided" 60 (Voter.decided_prefix v);
  Alcotest.(check (list int)) "corrupted replica excluded" [ 1 ] (Voter.divergent v)

(* {1 Property: failover at an arbitrary moment is transparent} *)

let prop_failover_any_time_exactly_once =
  QCheck.Test.make ~name:"failover at any instant preserves exactly-once" ~count:10
    QCheck.(int_range 10 400)
    (fun fail_ms ->
      let eng = Engine.create ~seed:fail_ms () in
      let messages = List.init 20 (fun i -> Printf.sprintf "p%02d|" i) in
      let cluster, result =
        run_echo_scenario ~fail_primary_at:(Some (Time.ms fail_ms)) ~messages eng
      in
      Engine.run ~until:(Time.sec 30) eng;
      Cluster.shutdown cluster;
      Ivar.peek result = Some (String.concat "" messages))

let prop_fs_random_programs_converge =
  QCheck.Test.make ~name:"replica file systems converge on random programs"
    ~count:10
    QCheck.(list_of_size (Gen.int_range 5 30) (pair (int_range 0 2) (int_range 1 2000)))
    (fun ops ->
      QCheck.assume (ops <> []);
      let eng = Engine.create ~seed:(Hashtbl.hash ops) () in
      let app (api : Api.t) =
        let pt = api.Api.pt in
        let m = Pthread.mutex_create pt in
        let fd = api.Api.fs.open_ ~path:"/r" ~create:true in
        let ths =
          List.init 2 (fun w ->
              api.Api.thread.spawn (Printf.sprintf "fsw-%d" w) (fun () ->
                  List.iteri
                    (fun i (kind, n) ->
                      api.Api.thread.compute (Time.us (((w * 53) + (i * 7) + n) mod 900));
                      Pthread.mutex_lock pt m;
                      (match kind with
                      | 0 -> api.Api.fs.append fd (Payload.zeroes (n mod 500))
                      | 1 ->
                          api.Api.fs.append fd
                            (Payload.of_string (Printf.sprintf "<%d:%d>" w i))
                      | _ -> ignore (api.Api.fs.read fd ~max:(1 + (n mod 300))));
                      Pthread.mutex_unlock pt m)
                    ops))
        in
        List.iter api.Api.thread.join ths
      in
      let cluster = Cluster.create eng ~config:test_config ~app () in
      Engine.run ~until:(Time.sec 30) eng;
      Cluster.shutdown cluster;
      let vp = Namespace.vfs_of (Cluster.primary_namespace cluster) in
      let vs = Namespace.vfs_of (Cluster.backup_namespace cluster 0) in
      Vfs.checksum vp ~path:"/r" <> None
      && Vfs.checksum vp ~path:"/r" = Vfs.checksum vs ~path:"/r")

(* {1 Msglayer unit tests} *)

let two_parts eng =
  let m = Machine.create eng Topology.small in
  Machine.split_symmetric m

(* A fresh group and a log's primary end, its only member. *)
let solo_member ?batch eng duplex =
  let g = Msglayer.create_group () in
  ( g,
    Msglayer.create_member ?batch eng g ~out:duplex.Mailbox.a_to_b
      ~inb:duplex.Mailbox.b_to_a )

let test_msglayer_stability () =
  let eng = Engine.create () in
  let done_ = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let duplex = Mailbox.duplex eng ~a ~b () in
         let g, ml_p = solo_member eng duplex in
         let ml_s =
           Msglayer.create_secondary eng ~inb:duplex.Mailbox.a_to_b
             ~out:duplex.Mailbox.b_to_a ~replay_cost:(Time.us 10)
             ~delta_cost:(Time.us 2)
             ~handler:(fun _ -> ())
         in
         Msglayer.spawn_primary_rx ml_p (fun n f -> Engine.spawn eng ~name:n f);
         Msglayer.spawn_secondary_rx ml_s (fun n f -> Engine.spawn eng ~name:n f);
         let lsn = ref 0 in
         for _ = 1 to 100 do
           lsn :=
             Msglayer.group_append g
               (Wire.Syscall_result
                  { ft_pid = 0; sseq = 0; result = Wire.R_accept 0 })
         done;
         Msglayer.group_wait_stable g ~lsn:!lsn;
         Alcotest.(check bool) "acked reached lsn" true (Msglayer.acked ml_p >= !lsn);
         done_ := true));
  Engine.run ~until:(Time.sec 1) eng;
  Alcotest.(check bool) "completed" true !done_

let test_msglayer_disable_releases_waiters () =
  let eng = Engine.create () in
  let released = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let duplex = Mailbox.duplex eng ~a ~b () in
         let g, ml_p = solo_member eng duplex in
         (* No secondary: the wait can only be released by [disable]. *)
         let lsn =
           Msglayer.group_append g
             (Wire.Syscall_result { ft_pid = 0; sseq = 0; result = Wire.R_accept 0 })
         in
         ignore
           (Engine.spawn eng (fun () ->
                Engine.sleep (Time.ms 5);
                Msglayer.disable ml_p));
         Msglayer.group_wait_stable g ~lsn;
         released := true));
  Engine.run ~until:(Time.sec 1) eng;
  Alcotest.(check bool) "waiter released on disable" true !released

let test_msglayer_backpressure () =
  let eng = Engine.create () in
  let appended = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let cfg = { Mailbox.propagation_delay = Time.ns 550; capacity = 8 } in
         let duplex = Mailbox.duplex eng ~config:cfg ~a ~b () in
         let g, _ = solo_member eng duplex in
         (* No consumer: appends beyond the ring must block. *)
         for i = 1 to 20 do
           ignore
             (Msglayer.group_append g
                (Wire.Syscall_result
                   { ft_pid = 0; sseq = i; result = Wire.R_accept 0 }));
           appended := i
         done));
  Engine.run ~until:(Time.ms 100) eng;
  Alcotest.(check int) "producer stalled at ring size" 8 !appended

(* The batching layer is where [Wire.max_frame_bytes] is enforced: a record
   that would push the staged frame past it flushes the frame first, and a
   record too large for any batch travels alone as a [Record]. *)
let test_msglayer_frame_cap () =
  let eng = Engine.create () in
  let frames = ref [] and bytes_sent = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let duplex = Mailbox.duplex eng ~a ~b () in
         let batch =
           {
             Msglayer.default_batch with
             batch_records = 64;
             batch_bytes = Wire.max_frame_bytes;
           }
         in
         let g, _ = solo_member ~batch eng duplex in
         List.iter
           (fun len ->
             ignore
               (Msglayer.group_append g
                  (Wire.Tcp_delta
                     (Wire.D_in_data { cid = 1; data = [ Payload.zeroes len ] }))))
           [ 30_000; 30_000; 30_000; 70_000 ];
         let out = duplex.Mailbox.a_to_b in
         frames := List.init (Mailbox.in_flight out) (fun _ -> Mailbox.recv out);
         bytes_sent := Mailbox.bytes_sent out));
  Engine.run ~until:(Time.ms 100) eng;
  let shape = function
    | Wire.Batch { records; _ } -> Printf.sprintf "batch of %d" (List.length records)
    | Wire.Record _ -> "record"
    | Wire.Ack _ | Wire.Heartbeat _ -> "control"
  in
  Alcotest.(check (list (pair string int)))
    "frames off the mailbox"
    [ ("batch of 2", 60_036); ("record", 30_028); ("record", 70_028) ]
    (List.map (fun m -> (shape m, Wire.message_bytes m)) !frames);
  List.iter
    (function
      | Wire.Batch _ as m ->
          Alcotest.(check bool) "batch within the cap" true
            (Wire.message_bytes m <= Wire.max_frame_bytes)
      | _ -> ())
    !frames;
  Alcotest.(check int) "bytes_sent sums the frames"
    (List.fold_left (fun acc m -> acc + Wire.message_bytes m) 0 !frames)
    !bytes_sent

(* {2 The recording group} *)

let syscall_record i =
  Wire.Syscall_result { ft_pid = 0; sseq = i; result = Wire.R_accept i }

let record_sseq = function
  | Wire.Syscall_result { sseq; _ } -> sseq
  | _ -> -1

(* A log pair between two fresh partitions, the primary's end born a
   member of [g] at its next LSN.  The secondary starts replaying and
   acking [acks_after] from now (default: at once); [None] means it never
   does. *)
let group_log eng g ?(acks_after = Some 0) ?(handler = ignore) () =
  let a, b = two_parts eng in
  let duplex = Mailbox.duplex eng ~a ~b () in
  let ml_p =
    Msglayer.create_member eng g ~out:duplex.Mailbox.a_to_b
      ~inb:duplex.Mailbox.b_to_a
  in
  let base_lsn = Msglayer.last_lsn ml_p + 1 in
  Msglayer.spawn_primary_rx ml_p (fun n f -> Engine.spawn eng ~name:n f);
  Option.iter
    (fun after ->
      let ml_s =
        Msglayer.create_secondary ~base_lsn eng ~inb:duplex.Mailbox.a_to_b
          ~out:duplex.Mailbox.b_to_a ~replay_cost:(Time.us 10)
          ~delta_cost:(Time.us 2) ~handler
      in
      Engine.schedule eng ~at:(Engine.now eng + after) (fun () ->
          Msglayer.spawn_secondary_rx ml_s (fun n f -> Engine.spawn eng ~name:n f)))
    acks_after;
  ml_p

(* A journaling group whose only member dies after ten records keeps
   assigning gapless LSNs and journals alone; [test_group_member_continues]
   goes on from here. *)
let group_journals_alone eng =
  let journal = ref [] in
  let g = Msglayer.create_group ~journal:(fun r -> journal := r :: !journal) () in
  let ml_p = group_log eng g () in
  let lsns = ref [] in
  for i = 0 to 19 do
    if i = 10 then Msglayer.disable ml_p;
    lsns := Msglayer.group_append g (syscall_record i) :: !lsns
  done;
  Alcotest.(check (list int)) "LSNs run 0-19 without gaps" (List.init 20 Fun.id)
    (List.rev !lsns);
  Alcotest.(check (list int)) "the journal holds every record in order"
    (List.init 20 Fun.id)
    (List.rev_map record_sseq !journal);
  Alcotest.(check int) "the dead member stopped after ten records" 9
    (Msglayer.last_lsn ml_p);
  let t0 = Engine.now eng in
  Msglayer.group_wait_stable g ~lsn:19;
  Alcotest.(check int) "stable at once with no live member" t0 (Engine.now eng);
  g

let in_process eng f =
  let finished = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         f ();
         finished := true));
  Engine.run ~until:(Time.sec 1) eng;
  Alcotest.(check bool) "completed" true !finished

let test_group_journals_alone () =
  let eng = Engine.create () in
  in_process eng (fun () -> ignore (group_journals_alone eng))

let test_group_member_continues () =
  let eng = Engine.create () in
  in_process eng (fun () ->
      let g = group_journals_alone eng in
      let base_lsn = Msglayer.group_last_lsn g + 1 in
      let received = ref [] in
      let ml_p =
        group_log eng g ~acks_after:(Some (Time.ms 5))
          ~handler:(fun r -> received := record_sseq r :: !received)
          ()
      in
      let lsn = Msglayer.group_append g (syscall_record 20) in
      Alcotest.(check int) "the fresh log takes the next LSN" base_lsn lsn;
      let t0 = Engine.now eng in
      Msglayer.group_wait_stable g ~lsn;
      Alcotest.(check bool) "the wait parked until the secondary acked" true
        (Engine.now eng >= t0 + Time.ms 5 && Msglayer.acked ml_p >= lsn);
      Alcotest.(check (list int)) "the secondary got exactly that record" [ 20 ]
        !received)

let test_group_disabled_member_never_blocks () =
  let eng = Engine.create () in
  in_process eng (fun () ->
      let g = Msglayer.create_group () in
      let silent = group_log eng g ~acks_after:None () in
      let acker = group_log eng g ~acks_after:(Some (Time.ms 5)) () in
      let lsn = Msglayer.group_append g (syscall_record 0) in
      Engine.schedule eng ~at:(Time.ms 1) (fun () -> Msglayer.disable silent);
      Msglayer.group_wait_stable g ~lsn;
      Alcotest.(check bool) "stable only once the live member acked" true
        (Engine.now eng >= Time.ms 5 && Msglayer.acked acker >= lsn);
      (* Disabled before the next append: that record waits on the live
         member alone. *)
      let lsn = Msglayer.group_append g (syscall_record 1) in
      Msglayer.group_wait_stable g ~lsn;
      Alcotest.(check bool) "the next record is stable on the live member's ack"
        true
        (Msglayer.acked acker >= lsn))

(* {1 Trace invariants (Evlog.Query)}

   The structured event trace is itself a checkable artifact: the sync-tuple
   lifecycle and the output-commit rule leave evidence in the ring, and the
   invariants below must hold on any run. *)

let test_trace_tuple_lifecycle_invariants () =
  (* The racy pthread app drives deterministic sections, so the trace holds
     the full tuple lifecycle: emit (primary) -> deliver -> consume
     (secondary replay). *)
  let eng = Engine.create () in
  let tp = ref None and ts = ref None in
  let app api =
    let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
    racy_app ~iters:25 ~workers:3 out api
  in
  let cluster = Cluster.create eng ~config:test_config ~app () in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "both replicas finished" true
    (!tp <> None && !ts <> None);
  let evs = Evlog.events (Engine.evlog eng) in
  (* Each lifecycle event carries the tuple header (ft_pid, thread_seq) and
     its (channel, chan_seq) claims as channel/chan_seq, channel2/chan_seq2,
     ... args. *)
  let tuples name =
    List.filter_map
      (fun e ->
        match
          (Evlog.Query.int_arg e "ft_pid", Evlog.Query.int_arg e "thread_seq")
        with
        | Some p, Some t ->
            let rec chans i =
              let suf = if i = 0 then "" else string_of_int (i + 1) in
              match
                ( Evlog.Query.int_arg e ("channel" ^ suf),
                  Evlog.Query.int_arg e ("chan_seq" ^ suf) )
              with
              | Some c, Some s -> (c, s) :: chans (i + 1)
              | _ -> []
            in
            Some ((p, t), chans 0)
        | _ -> None)
      (Evlog.Query.filter ~comp:"ft.det" ~name evs)
  in
  let emits = tuples "tuple.emit" in
  let delivers = tuples "tuple.deliver" in
  let consumes = tuples "tuple.consume" in
  Alcotest.(check bool) "tuples actually flowed" true
    (List.length consumes > 0);
  (* Slot uniqueness: a (channel, chan_seq) pair names exactly one section. *)
  let claims = List.concat_map snd emits in
  Alcotest.(check bool) "no channel slot emitted twice" true
    (List.length (List.sort_uniq compare claims) = List.length claims);
  List.iter
    (fun (((p, t), _) as tup) ->
      Alcotest.(check int)
        (Printf.sprintf "consumed tuple (%d,%d) was emitted exactly once" p t)
        1
        (List.length (List.filter (fun e -> e = tup) emits)))
    consumes;
  (* Per-channel FIFO: within one channel, chan_seqs appear in order at
     delivery and at consumption; across channels the interleaving is free
     (the partial order that replaced the old global_seq total order). *)
  let chan_fifo what tups =
    let by_chan = Hashtbl.create 8 in
    List.iter
      (fun (_, chans) ->
        List.iter
          (fun (c, s) ->
            let prev = try Hashtbl.find by_chan c with Not_found -> [] in
            Hashtbl.replace by_chan c (s :: prev))
          chans)
      tups;
    Hashtbl.iter
      (fun c seqs ->
        let seqs = List.rev seqs in
        Alcotest.(check (list int))
          (Printf.sprintf "%s on channel %d in chan_seq order" what c)
          (List.sort compare seqs) seqs)
      by_chan
  in
  chan_fifo "delivery" delivers;
  chan_fifo "replay consume" consumes;
  (* Per-thread FIFO: each thread's sections replay in thread_seq order. *)
  let by_thread = Hashtbl.create 8 in
  List.iter
    (fun ((p, t), _) ->
      let prev = try Hashtbl.find by_thread p with Not_found -> [] in
      Hashtbl.replace by_thread p (t :: prev))
    consumes;
  Hashtbl.iter
    (fun p seqs ->
      let seqs = List.rev seqs in
      Alcotest.(check (list int))
        (Printf.sprintf "thread %d consumes in thread_seq order" p)
        (List.sort compare seqs) seqs)
    by_thread;
  (* Sharding is on by default: the mutex rides its own channel while
     spawn/join sections ride the misc channel. *)
  Alcotest.(check bool) "sharded run spreads tuples over several channels"
    true
    (List.length (List.sort_uniq compare (List.map fst claims)) > 1)

let test_trace_output_commit_after_ack () =
  let eng = Engine.create () in
  let messages = List.init 8 (fun i -> Printf.sprintf "o%d." i) in
  let cluster, result = run_echo_scenario ~fail_primary_at:None ~messages eng in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "client finished" true (Ivar.peek result <> None);
  let evs = Evlog.events (Engine.evlog eng) in
  let commits =
    List.filter
      (fun e ->
        match Evlog.Query.int_arg e "lsn" with Some l -> l >= 0 | None -> false)
      (Evlog.Query.filter ~comp:"ft.namespace" ~name:"output.commit" evs)
  in
  Alcotest.(check bool) "output commits happened" true (commits <> []);
  (* Walk the trace in emission order tracking the highest acked LSN: no
     commit may precede the ack that covers it. *)
  let acked = ref (-1) in
  List.iter
    (fun e ->
      (if e.Evlog.comp = "ft.msglayer" && e.Evlog.name = "record.acked" then
         match Evlog.Query.int_arg e "upto" with
         | Some u -> acked := max !acked u
         | None -> ());
      if e.Evlog.comp = "ft.namespace" && e.Evlog.name = "output.commit" then
        match Evlog.Query.int_arg e "lsn" with
        | Some lsn when lsn >= 0 ->
            if !acked < lsn then
              Alcotest.failf
                "output commit of lsn %d at seq %d precedes its ack (acked %d)"
                lsn e.Evlog.seq !acked
        | _ -> ())
    evs

let test_batch_boundary_failover () =
  (* Kill the primary after a batch frame is emitted but before its
     cumulative ack.  Commit-triggered flushes carry [ack_now] and are
     acked within a mailbox round trip, so the outstanding window lives
     after each exchange: messages big enough to cross the 16 KiB
     [D_ack_progress] coalescing threshold stage a delta that no commit
     covers, the window flusher sends it ack-later 2 ms after the
     exchange, and with an extreme ack config (ack_every far beyond the
     workload, a 50 ms delayed-ack timer) it stays unacked until the
     next exchange's quickack.  A 10 ms client pace keeps that
     flushed-but-unacked window open for most of every period, so the
     kill lands on a batch boundary.  The promoted
     secondary must report no digest divergence, the client stream must
     be exactly-once, and no committed output may precede its covering
     ack. *)
  let eng = Engine.create () in
  let config =
    {
      test_config with
      Cluster.batch =
        {
          Msglayer.batch_records = 64;
          batch_bytes = 32_768;
          batch_window = Time.ms 2;
          ack_every = 100_000;
          ack_delay = Time.ms 50;
        };
    }
  in
  let messages =
    List.init 30 (fun i ->
        Printf.sprintf "bb-%02d|%s" i (String.make 17_000 (Char.chr (97 + (i mod 26)))))
  in
  let cluster, result =
    run_echo_scenario ~config ~pace:(Time.ms 10)
      ~fail_primary_at:(Some (Time.ms 124)) ~messages eng
  in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "complete, unduplicated stream"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish after failover");
  Alcotest.(check bool) "failover happened" true
    (Ivar.peek (Cluster.failover_done cluster) <> None);
  (* Batching was actually exercised: fewer frames than records. *)
  let v n = Metrics.Counter.value (Metrics.Registry.counter (Engine.metrics eng) n) in
  Alcotest.(check bool) "frames were sent" true (v "msglayer.frames_sent" > 0);
  Alcotest.(check bool) "coalescing happened" true
    (v "msglayer.frames_sent" < v "msglayer.records_appended");
  (* The kill really landed between a frame emission and its covering ack:
     at the halt instant some flushed LSN had no ack yet. *)
  let evs = Evlog.events (Engine.evlog eng) in
  let t_halt =
    match Cluster.primary_halted_at cluster with
    | Some t -> t
    | None -> Alcotest.fail "primary did not halt"
  in
  let flushed_max = ref (-1) and acked_at_halt = ref (-1) in
  List.iter
    (fun e ->
      if e.Evlog.at <= t_halt && e.Evlog.comp = "ft.msglayer" then begin
        (if e.Evlog.name = "frame.flush" then
           match
             (Evlog.Query.int_arg e "base_lsn", Evlog.Query.int_arg e "count")
           with
           | Some base, Some count -> flushed_max := max !flushed_max (base + count - 1)
           | _ -> ());
        if e.Evlog.name = "record.acked" then
          match Evlog.Query.int_arg e "upto" with
          | Some u -> acked_at_halt := max !acked_at_halt u
          | None -> ()
      end)
    evs;
  Alcotest.(check bool)
    (Printf.sprintf "batch outstanding at the kill (flushed %d, acked %d)"
       !flushed_max !acked_at_halt)
    true
    (!flushed_max > !acked_at_halt);
  (* No replica divergence relative to the committed prefix. *)
  Alcotest.(check bool) "digests agree" true (Cluster.compare_digests cluster = None);
  Alcotest.(check bool) "no replay divergence" true
    (Cluster.replay_divergence cluster = None);
  (* No committed output precedes its covering ack, batching or not. *)
  let acked = ref (-1) in
  List.iter
    (fun e ->
      (if e.Evlog.comp = "ft.msglayer" && e.Evlog.name = "record.acked" then
         match Evlog.Query.int_arg e "upto" with
         | Some u -> acked := max !acked u
         | None -> ());
      if e.Evlog.comp = "ft.namespace" && e.Evlog.name = "output.commit" then
        match Evlog.Query.int_arg e "lsn" with
        | Some lsn when lsn >= 0 ->
            if !acked < lsn then
              Alcotest.failf
                "output commit of lsn %d at seq %d precedes its ack (acked %d)"
                lsn e.Evlog.seq !acked
        | _ -> ())
    evs

let test_trace_failover_phases () =
  let eng = Engine.create () in
  let messages = List.init 30 (fun i -> Printf.sprintf "f%02d|" i) in
  let cluster, _result =
    run_echo_scenario ~fail_primary_at:(Some (Time.ms 120)) ~messages eng
  in
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
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
  match
    (Cluster.primary_halted_at cluster, Cluster.failover_completed_at cluster)
  with
  | Some halt, Some live ->
      Alcotest.(check int) "detect begins at the halt" halt d0;
      Alcotest.(check int) "golive ends at completion" live g1;
      let sum = d1 - d0 + (r1 - r0) + (v1 - v0) + (g1 - g0) in
      Alcotest.(check bool) "phase durations sum to measured recovery" true
        (abs (live - halt - sum) <= Time.ms 1)
  | _ -> Alcotest.fail "failover did not run"

(* {1 Failover at a channel boundary}

   Two mutexes hammered at very different rates keep their channels at
   different replay depths, so when the primary dies mid-run the
   secondary's per-channel cursors are unequal — the failure case the old
   total order could not have: go-live must happen from a frontier that is
   a gapless prefix of {e each} channel stream, not of one global
   sequence. *)
(* Shared body for the channel-boundary failover scenarios: two hammer
   threads keep their mutex channels at very different depths, the primary
   is killed mid-stream, and the survivor must hold the per-channel gapless
   prefix, digest, and exactly-once client guarantees.  [replay_workers]
   sizes the executor pool: 1 has no executor process (the serial drain). *)
let run_channel_boundary_failover ~replay_workers () =
  let eng = Engine.create () in
  let link = gbit_link eng in
  let app (api : Api.t) =
    let pt = api.Api.pt in
    let fast = Pthread.mutex_create pt and slow = Pthread.mutex_create pt in
    let hammer name m ~iters ~pause =
      api.Api.thread.spawn name (fun () ->
          for _ = 1 to iters do
            api.Api.thread.compute pause;
            Pthread.mutex_lock pt m;
            Pthread.mutex_unlock pt m
          done)
    in
    ignore (hammer "fast-hammer" fast ~iters:2000 ~pause:(Time.us 200));
    ignore (hammer "slow-hammer" slow ~iters:50 ~pause:(Time.ms 2));
    echo_app api
  in
  let cluster =
    Cluster.create eng
      ~config:{ test_config with Cluster.replay_workers }
      ~link:(Link.endpoint_a link) ~app ()
  in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 150);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 25 (fun i -> Printf.sprintf "cb-%02d|" i) in
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 64 in
         List.iteri
           (fun i msg ->
             if i > 0 then Engine.sleep (Time.ms 10);
             Tcp.send c (Payload.of_string msg);
             let want = String.length msg in
             let got = ref 0 in
             while !got < want do
               match Tcp.recv c ~max:4096 with
               | [] -> failwith "eof from server"
               | cs ->
                   got := !got + Payload.total_len cs;
                   Buffer.add_string out (Payload.concat_to_string cs)
             done)
           messages;
         Tcp.close c;
         Ivar.fill result (Buffer.contents out)));
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  (* The consistency oracle across the failover. *)
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "complete, unduplicated stream"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish after failover");
  Alcotest.(check bool) "failover happened" true
    (Ivar.peek (Cluster.failover_done cluster) <> None);
  Alcotest.(check bool) "digests agree" true
    (Cluster.compare_digests cluster = None);
  Alcotest.(check bool) "no replay divergence" true
    (Cluster.replay_divergence cluster = None);
  let evs = Evlog.events (Engine.evlog eng) in
  let t_halt =
    match Cluster.primary_halted_at cluster with
    | Some t -> t
    | None -> Alcotest.fail "primary did not halt"
  in
  let chans_of e =
    let rec go i =
      let suf = if i = 0 then "" else string_of_int (i + 1) in
      match
        ( Evlog.Query.int_arg e ("channel" ^ suf),
          Evlog.Query.int_arg e ("chan_seq" ^ suf) )
      with
      | Some c, Some s -> (c, s) :: go (i + 1)
      | _ -> []
    in
    go 0
  in
  let max_seq_by_chan name ~upto =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if e.Evlog.at <= upto then
          List.iter
            (fun (c, s) ->
              let prev = try Hashtbl.find tbl c with Not_found -> -1 in
              Hashtbl.replace tbl c (max prev s))
            (chans_of e))
      (Evlog.Query.filter ~comp:"ft.det" ~name evs);
    tbl
  in
  (* The kill really landed with the channels at different depths: the two
     hammer channels' consumed cursors differ at the halt instant. *)
  let depths = max_seq_by_chan "tuple.consume" ~upto:t_halt in
  let obj_depths =
    Hashtbl.fold (fun c s acc -> if c >= 2 then s :: acc else acc) depths []
  in
  Alcotest.(check bool)
    (Printf.sprintf "object channels at distinct depths at the kill (%s)"
       (String.concat "," (List.map string_of_int obj_depths)))
    true
    (List.length (List.sort_uniq compare obj_depths) >= 2);
  (* Go-live frontier: every channel's consumed stream is a gapless prefix
     — chan_seqs 0..k with no holes — even though the channels stopped at
     different k. *)
  let by_chan = Hashtbl.create 8 in
  List.iter
    (fun e ->
      List.iter
        (fun (c, s) ->
          let prev = try Hashtbl.find by_chan c with Not_found -> [] in
          Hashtbl.replace by_chan c (s :: prev))
        (chans_of e))
    (Evlog.Query.filter ~comp:"ft.det" ~name:"tuple.consume" evs);
  Alcotest.(check bool) "replay consumed tuples" true
    (Hashtbl.length by_chan > 0);
  Hashtbl.iter
    (fun c seqs ->
      let sorted = List.sort compare seqs in
      let rec contiguous expect = function
        | [] -> ()
        | s :: rest ->
            if s <> expect then
              Alcotest.failf
                "channel %d consumed seq %d where %d was expected: not a \
                 gapless prefix"
                c s expect;
            contiguous (expect + 1) rest
      in
      contiguous 0 sorted)
    by_chan;
  (eng, evs)

let test_channel_boundary_failover () =
  ignore (run_channel_boundary_failover ~replay_workers:1 ())

let test_parallel_replay_failover () =
  (* Same kill, but four replay executors are mid-flight at the halt: the
     drain must wait on every executor queue and the survivor must still
     satisfy the gapless-prefix / digest / exactly-once oracle. *)
  let _eng, evs = run_channel_boundary_failover ~replay_workers:4 () in
  (* More than one executor actually consumed records before the kill. *)
  let execs =
    List.filter_map
      (fun e -> Evlog.Query.int_arg e "executor")
      (Evlog.Query.filter ~comp:"ft.msglayer" ~name:"replay" evs)
  in
  Alcotest.(check bool) "several executors consumed records" true
    (List.length (List.sort_uniq compare execs) > 1)

let test_parallel_replay_trace_partial_order () =
  (* Rebuild the replay partial order from the trace of a run with four
     executors: consumption must still respect per-channel FIFO and
     per-thread FIFO even though delivery fans out, and the application
     interleaving must match the primary's exactly. *)
  let eng = Engine.create () in
  let tp = ref None and ts = ref None in
  let app api =
    let out = if Kernel.name api.Api.kernel = "primary" then tp else ts in
    racy_app ~iters:25 ~workers:3 out api
  in
  let cluster =
    Cluster.create eng
      ~config:{ test_config with Cluster.replay_workers = 4 }
      ~app ()
  in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  (match (!tp, !ts) with
  | Some p, Some s ->
      Alcotest.(check bool) "secondary observed the primary's interleaving"
        true (p = s)
  | _ -> Alcotest.fail "apps did not finish");
  let evs = Evlog.events (Engine.evlog eng) in
  let execs =
    List.filter_map
      (fun e -> Evlog.Query.int_arg e "executor")
      (Evlog.Query.filter ~comp:"ft.msglayer" ~name:"replay" evs)
  in
  Alcotest.(check bool) "records fanned out to several executors" true
    (List.length (List.sort_uniq compare execs) > 1);
  let tuples name =
    List.filter_map
      (fun e ->
        match
          (Evlog.Query.int_arg e "ft_pid", Evlog.Query.int_arg e "thread_seq")
        with
        | Some p, Some t ->
            let rec chans i =
              let suf = if i = 0 then "" else string_of_int (i + 1) in
              match
                ( Evlog.Query.int_arg e ("channel" ^ suf),
                  Evlog.Query.int_arg e ("chan_seq" ^ suf) )
              with
              | Some c, Some s -> (c, s) :: chans (i + 1)
              | _ -> []
            in
            Some ((p, t), chans 0)
        | _ -> None)
      (Evlog.Query.filter ~comp:"ft.det" ~name evs)
  in
  let consumes = tuples "tuple.consume" in
  Alcotest.(check bool) "tuples consumed under parallel replay" true
    (List.length consumes > 0);
  (* Per-channel FIFO at consumption: the admission gate is the only
     serializer left, and it must still deliver every channel's stream in
     chan_seq order.  (Delivery order may legally break under fan-out;
     consumption may not.) *)
  let by_chan = Hashtbl.create 8 in
  List.iter
    (fun (_, chans) ->
      List.iter
        (fun (c, s) ->
          let prev = try Hashtbl.find by_chan c with Not_found -> [] in
          Hashtbl.replace by_chan c (s :: prev))
        chans)
    consumes;
  Hashtbl.iter
    (fun c seqs ->
      let seqs = List.rev seqs in
      Alcotest.(check (list int))
        (Printf.sprintf "channel %d consumed in chan_seq order" c)
        (List.sort compare seqs) seqs)
    by_chan;
  (* Per-thread FIFO: ft_pid routing keeps each thread's sections in
     thread_seq order. *)
  let by_thread = Hashtbl.create 8 in
  List.iter
    (fun ((p, t), _) ->
      let prev = try Hashtbl.find by_thread p with Not_found -> [] in
      Hashtbl.replace by_thread p (t :: prev))
    consumes;
  Hashtbl.iter
    (fun p seqs ->
      let seqs = List.rev seqs in
      Alcotest.(check (list int))
        (Printf.sprintf "thread %d consumes in thread_seq order" p)
        (List.sort compare seqs) seqs)
    by_thread;
  Alcotest.(check bool) "several channels in flight" true
    (Hashtbl.length by_chan > 1)

let test_msglayer_parallel_executors () =
  (* Unit-level executor pool: records for seven threads fan out over four
     executors, with a TCP delta replayed inline every third LSN, so inline
     completions and executor completions interleave within frames.  Each
     thread's stream must stay FIFO, every ack must cover a gapless
     replayed prefix, and the last ack must cover the tail.  Record [i] is
     LSN [i] and carries [i] as its sseq or snd_una. *)
  let n = 120 in
  let run batch =
    let eng = Engine.create () in
    let done_ = ref false and handled = ref [] and last_ack = ref (-1) in
    let replayed = Array.make n false and gap = ref None in
    ignore
      (Evlog.subscribe (Engine.evlog eng) (fun e ->
           if e.Evlog.comp = "ft.msglayer" && e.Evlog.name = "record.ack" then
             match Evlog.Query.int_arg e "upto" with
             | Some upto ->
                 for lsn = 0 to upto do
                   if (not replayed.(lsn)) && !gap = None then
                     gap := Some (upto, lsn)
                 done;
                 last_ack := upto
             | None -> ()));
    ignore
      (Engine.spawn eng (fun () ->
           let a, b = two_parts eng in
           let duplex = Mailbox.duplex eng ~a ~b () in
           let g, ml_p = solo_member ~batch eng duplex in
           let ml_s =
             Msglayer.create_secondary ~batch ~workers:4 eng
               ~inb:duplex.Mailbox.a_to_b ~out:duplex.Mailbox.b_to_a
               ~replay_cost:(Time.us 10) ~delta_cost:(Time.us 2)
               ~handler:(fun r ->
                 match r with
                 | Wire.Syscall_result { ft_pid; sseq; _ } ->
                     replayed.(sseq) <- true;
                     handled := (ft_pid, sseq) :: !handled
                 | Wire.Tcp_delta (Wire.D_ack_progress { snd_una; _ }) ->
                     replayed.(snd_una) <- true
                 | _ -> ())
           in
           Msglayer.spawn_primary_rx ml_p (fun n f -> Engine.spawn eng ~name:n f);
           Msglayer.spawn_secondary_rx ml_s (fun n f -> Engine.spawn eng ~name:n f);
           for i = 0 to n - 1 do
             let record =
               if i mod 3 = 2 then
                 Wire.Tcp_delta (Wire.D_ack_progress { cid = 0; snd_una = i })
               else
                 Wire.Syscall_result
                   { ft_pid = i mod 7; sseq = i; result = Wire.R_accept i }
             in
             Alcotest.(check int) "record i is lsn i" i (Msglayer.group_append g record)
           done;
           Msglayer.group_wait_stable g ~lsn:(n - 1);
           Alcotest.(check int) "watermark gapless at the tail" (n - 1)
             (Msglayer.received_lsn ml_s);
           done_ := true));
    Engine.run ~until:(Time.sec 1) eng;
    Alcotest.(check (option (pair int int)))
      "no ack (upto, lsn) covers an unreplayed lsn" None !gap;
    Alcotest.(check bool) "completed" true !done_;
    Alcotest.(check int) "the last ack covers the tail" (n - 1) !last_ack;
    Alcotest.(check bool) "every record replayed" true
      (Array.for_all Fun.id replayed);
    let handled = List.rev !handled in
    Alcotest.(check int) "every syscall result replayed exactly once"
      (n - (n / 3)) (List.length handled);
    for p = 0 to 6 do
      let seqs =
        List.filter_map (fun (q, s) -> if q = p then Some s else None) handled
      in
      Alcotest.(check (list int))
        (Printf.sprintf "ft_pid %d stream stays FIFO across executors" p)
        (List.sort compare seqs) seqs
    done
  in
  run Msglayer.unbatched;
  run Msglayer.default_batch

(* The backup's ack points with one replayer, as [(at, upto)] of each
   [record.ack], for a scripted stream: a burst longer than [ack_every], an
   idle gap longer than [ack_delay], a stability wait whose staged records
   leave as an [ack_now] flush, and one whose records already left, so it
   sends the empty [ack_now] poke (with a record staged behind it when
   batched). *)
let ack_points batch =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let duplex = Mailbox.duplex eng ~a ~b () in
         let g, ml_p = solo_member ~batch eng duplex in
         let ml_s =
           Msglayer.create_secondary ~batch eng ~inb:duplex.Mailbox.a_to_b
             ~out:duplex.Mailbox.b_to_a ~replay_cost:(Time.us 10)
             ~delta_cost:(Time.us 2) ~handler:ignore
         in
         Msglayer.spawn_primary_rx ml_p (fun n f -> Engine.spawn eng ~name:n f);
         Msglayer.spawn_secondary_rx ml_s (fun n f -> Engine.spawn eng ~name:n f);
         let append i = Msglayer.group_append g (syscall_record i) in
         for i = 0 to 39 do
           ignore (append i)
         done;
         Engine.sleep (Time.ms 1);
         for i = 40 to 42 do
           ignore (append i)
         done;
         Msglayer.group_wait_stable g ~lsn:42;
         Engine.sleep (Time.ms 1);
         let lsn = append 43 in
         (* Past the batch window, so 43 is on the wire, not yet acked. *)
         Engine.sleep (Time.us 25);
         ignore (append 44);
         Msglayer.group_wait_stable g ~lsn));
  Engine.run ~until:(Time.ms 10) eng;
  List.filter_map
    (fun e ->
      Option.map (fun upto -> (e.Evlog.at, upto)) (Evlog.Query.int_arg e "upto"))
    (Evlog.Query.filter ~comp:"ft.msglayer" ~name:"record.ack"
       (Evlog.events (Engine.evlog eng)))

let test_msglayer_ack_points () =
  let pin name expect batch =
    Alcotest.(check (list (pair int int))) name expect (ack_points batch)
  in
  pin "default_batch"
    [ (320_550, 31); (410_550, 39); (1_030_550, 42); (2_061_650, 43); (2_096_650, 44) ]
    Msglayer.default_batch;
  pin "unbatched"
    [ (320_550, 31); (400_550, 39); (1_030_550, 42); (2_041_650, 43); (2_066_650, 44) ]
    Msglayer.unbatched

(* Backpressure through a replaying backup: with one replayer, no record
   leaves the ring ahead of its replay, so at any instant the primary has
   appended the ring's capacity, plus the records replayed, plus the one
   replaying. *)
let test_msglayer_backpressure_through_backup () =
  let eng = Engine.create () in
  let appended = ref 0 and received = ref (-2) in
  ignore
    (Engine.spawn eng (fun () ->
         let a, b = two_parts eng in
         let cfg = { Mailbox.propagation_delay = Time.ns 550; capacity = 8 } in
         let duplex = Mailbox.duplex eng ~config:cfg ~a ~b () in
         let g, ml_p = solo_member eng duplex in
         let ml_s =
           Msglayer.create_secondary eng ~inb:duplex.Mailbox.a_to_b
             ~out:duplex.Mailbox.b_to_a ~replay_cost:(Time.ms 1)
             ~delta_cost:(Time.us 2) ~handler:ignore
         in
         Msglayer.spawn_primary_rx ml_p (fun n f -> Engine.spawn eng ~name:n f);
         Msglayer.spawn_secondary_rx ml_s (fun n f -> Engine.spawn eng ~name:n f);
         Engine.schedule eng ~at:(Time.us 5_500) (fun () ->
             received := Msglayer.received_lsn ml_s);
         for i = 1 to 100 do
           ignore (Msglayer.group_append g (syscall_record i));
           appended := i
         done));
  Engine.run ~until:(Time.us 5_500) eng;
  Alcotest.(check int) "records replayed by the instant" 5 (!received + 1);
  Alcotest.(check int) "ring + replayed + replaying" (8 + 5 + 1) !appended

(* {1 Replication-lag monitor} *)

let test_lagmon_verdict_cycle () =
  (* Synthetic LSN sources driven on a schedule: a gap that opens and sits
     still must go ok -> lagging -> stalled; partial watermark progress
     demotes the stall back to lagging; closing the gap restores ok. *)
  let eng = Engine.create () in
  let appended = ref 0 and acked = ref 0 in
  let src =
    {
      Lagmon.appended = (fun () -> !appended);
      acked = (fun () -> !acked);
      replayed = (fun () -> !acked);
      queue_depth = (fun () -> !appended - !acked);
      rtt = (fun () -> None);
      channels = (fun () -> [ (0, !appended, !acked) ]);
      alive = (fun () -> true);
    }
  in
  let config =
    {
      Lagmon.period = Time.ms 1;
      lag_records = 4;
      stall_after = Time.ms 10;
      quiet = false;
    }
  in
  let lm = Lagmon.start ~config eng ~name:"lagtest" src in
  Engine.schedule eng ~at:(Time.us 2_500) (fun () -> appended := 10);
  Engine.schedule eng ~at:(Time.us 13_500) (fun () -> acked := 3);
  Engine.schedule eng ~at:(Time.us 14_500) (fun () -> acked := 10);
  Engine.run ~until:(Time.ms 20) eng;
  Lagmon.stop lm;
  Alcotest.(check (list (pair int string)))
    "verdict transitions in order"
    [
      (Time.ms 3, "lagging");
      (Time.ms 12, "stalled");
      (Time.ms 14, "lagging");
      (Time.ms 15, "ok");
    ]
    (List.map
       (fun (at, v) -> (at, Lagmon.verdict_label v))
       (Lagmon.transitions lm));
  Alcotest.(check string) "worst retained" "stalled"
    (Lagmon.verdict_label (Lagmon.worst lm));
  Alcotest.(check string) "current healthy" "ok"
    (Lagmon.verdict_label (Lagmon.verdict lm));
  let reg = Engine.metrics eng in
  Alcotest.(check (float 0.001)) "gap gauge closed" 0.0
    (Metrics.Gauge.value (Metrics.Registry.gauge reg "lagtest.lsn"));
  Alcotest.(check (float 0.001)) "per-channel cursor published" 10.0
    (Metrics.Gauge.value (Metrics.Registry.gauge reg "lagtest.chan0.acked"));
  Alcotest.(check bool) "gap histogram sampled" true
    (Metrics.Hist.count (Metrics.Registry.hist reg "lagtest.lsn_hist") > 0)

let test_lagmon_quiet_invisible () =
  (* The telemetry determinism contract: a quiet monitor may update gauges
     but the event log — the byte-diffed repro artifact — and the client
     result must match a monitor-off run exactly, including through a
     failover. *)
  let run lagmon =
    let eng = Engine.create ~seed:123 () in
    let cluster, result =
      run_echo_scenario
        ~config:{ test_config with Cluster.lagmon }
        ~fail_primary_at:(Some (Time.ms 120))
        ~messages:(List.init 10 (fun i -> Printf.sprintf "d%d." i))
        eng
    in
    Engine.run ~until:(Time.sec 20) eng;
    Cluster.shutdown cluster;
    ( Ivar.peek result,
      Cluster.traffic_msgs cluster,
      Cluster.det_ops cluster,
      Evlog.to_jsonl (Engine.evlog eng) )
  in
  let r_off, m_off, d_off, trace_off = run None in
  let r_on, m_on, d_on, trace_on =
    run (Some { Lagmon.default_config with Lagmon.quiet = true })
  in
  Alcotest.(check bool) "client result unchanged" true (r_off = r_on);
  Alcotest.(check int) "replication traffic unchanged" m_off m_on;
  Alcotest.(check int) "det ops unchanged" d_off d_on;
  Alcotest.(check string) "trace byte-identical with quiet monitor" trace_off
    trace_on

(* The replay gate evaluates a parked thread's guard on every broadcast, so
   the guard must allocate nothing: thousands of evaluations, not one word.
   The tuple claims two channels, the first admissible and the second not,
   so each evaluation walks the whole claim list before it says no. *)
let test_gate_guard_allocation () =
  let eng = Engine.create () in
  let det = Det.create_secondary eng in
  Det.deliver_tuple det ~ft_pid:0 ~thread_seq:0 ~chans:[ (2, 0); (3, 1) ]
    ~payload:Wire.P_plain;
  let ready = Det.gate_guard det ~ft_pid:0 in
  Alcotest.(check bool) "channel 3 has not reached chan_seq 1" false (ready ());
  let evaluations = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to evaluations do
    ignore (Sys.opaque_identity (ready ()))
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "words allocated" 0 (int_of_float (w1 -. w0));
  Det.go_live det;
  Alcotest.(check bool) "live opens the gate" true (ready ())

let () =
  Alcotest.run "ftlinux"
    [
      ( "det-replay",
        [
          Alcotest.test_case "replay matches primary" `Quick
            test_replay_matches_primary;
          Alcotest.test_case "non-trivial interleaving" `Quick
            test_nontrivial_interleaving_replayed;
          Alcotest.test_case "gettimeofday synchronized" `Quick
            test_gettimeofday_synchronized;
          Alcotest.test_case "timedwait outcome replicated" `Quick
            test_cond_timedwait_outcome_replicated;
          Alcotest.test_case "gate guard allocates nothing" `Quick
            test_gate_guard_allocation;
        ] );
      ( "tcp-replication",
        [
          Alcotest.test_case "replicated echo" `Quick test_replicated_echo;
          Alcotest.test_case "replication traffic flows" `Quick
            test_replication_traffic_flows;
        ] );
      ( "failover",
        [
          Alcotest.test_case "echo continues across failover" `Quick
            test_failover_echo_continues;
          Alcotest.test_case "duration dominated by driver" `Quick
            test_failover_duration_dominated_by_driver;
          Alcotest.test_case "secondary failure: solo" `Quick
            test_secondary_failure_primary_solo;
          Alcotest.test_case "compute-only failover" `Quick
            test_compute_only_failover;
          Alcotest.test_case "failover with coherency loss" `Quick
            test_failover_with_coherency_loss;
          Alcotest.test_case "failover at a channel boundary" `Quick
            test_channel_boundary_failover;
          Alcotest.test_case "failover mid-parallel-replay" `Quick
            test_parallel_replay_failover;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "whole sim deterministic" `Quick
            test_whole_sim_deterministic;
          QCheck_alcotest.to_alcotest prop_random_program_replays;
          QCheck_alcotest.to_alcotest prop_failover_any_time_exactly_once;
          QCheck_alcotest.to_alcotest prop_fs_random_programs_converge;
        ] );
      ( "env",
        [
          Alcotest.test_case "environment replicated" `Quick
            test_env_replicated_to_namespace;
        ] );
      ( "barrier-sem",
        [
          Alcotest.test_case "BSP app replays" `Quick test_barrier_sem_app_replays;
        ] );
      ( "fs",
        [
          Alcotest.test_case "replicas converge" `Quick test_fs_replicas_converge;
          Alcotest.test_case "read lengths replicated" `Quick
            test_fs_read_lengths_replicated;
          Alcotest.test_case "survives failover" `Quick test_fs_survives_failover;
        ] );
      ( "poll",
        [
          Alcotest.test_case "replicated poll server" `Quick
            test_replicated_poll_server;
        ] );
      ( "roles",
        [
          Alcotest.test_case "standalone matches replicated" `Quick
            test_standalone_matches_replicated;
          Alcotest.test_case "re-listen after close: standalone" `Quick
            (test_relisten_after_close `Standalone);
          Alcotest.test_case "re-listen after close: primary" `Quick
            (test_relisten_after_close `Primary);
          Alcotest.test_case "re-listen after close: live secondary" `Quick
            (test_relisten_after_close `Live_secondary);
        ] );
      ( "voter",
        [
          Alcotest.test_case "majority" `Quick test_voter_majority;
          Alcotest.test_case "corruption mid-stream" `Quick
            test_voter_detects_corruption_mid_stream;
          Alcotest.test_case "inconsistent" `Quick test_voter_inconsistent;
          Alcotest.test_case "three replica outputs" `Quick
            test_voter_on_three_replica_outputs;
        ] );
      ( "trace-invariants",
        [
          Alcotest.test_case "tuple lifecycle" `Quick
            test_trace_tuple_lifecycle_invariants;
          Alcotest.test_case "parallel replay partial order" `Quick
            test_parallel_replay_trace_partial_order;
          Alcotest.test_case "output commit after ack" `Quick
            test_trace_output_commit_after_ack;
          Alcotest.test_case "batch-boundary failover" `Quick
            test_batch_boundary_failover;
          Alcotest.test_case "failover phases" `Quick test_trace_failover_phases;
        ] );
      ( "lagmon",
        [
          Alcotest.test_case "verdict cycle" `Quick test_lagmon_verdict_cycle;
          Alcotest.test_case "quiet monitor invisible" `Quick
            test_lagmon_quiet_invisible;
        ] );
      ( "msglayer",
        [
          Alcotest.test_case "stability" `Quick test_msglayer_stability;
          Alcotest.test_case "disable releases waiters" `Quick
            test_msglayer_disable_releases_waiters;
          Alcotest.test_case "backpressure" `Quick test_msglayer_backpressure;
          Alcotest.test_case "frame cap" `Quick test_msglayer_frame_cap;
          Alcotest.test_case "group journals alone" `Quick
            test_group_journals_alone;
          Alcotest.test_case "group attach continues" `Quick
            test_group_member_continues;
          Alcotest.test_case "group disabled member never blocks" `Quick
            test_group_disabled_member_never_blocks;
          Alcotest.test_case "parallel executors" `Quick
            test_msglayer_parallel_executors;
          Alcotest.test_case "ack points at one worker" `Quick
            test_msglayer_ack_points;
          Alcotest.test_case "backpressure through a backup" `Quick
            test_msglayer_backpressure_through_backup;
        ] );
    ]
