(* Tests for the kernel layer: CPU resource, FIFO futexes, pthread over
   futex, memory-layout classification. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  ignore (Engine.spawn eng ~name:"test-main" (fun () -> result := Some (f eng)));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not complete"

let boot_kernel eng =
  let m = Machine.create eng Topology.small in
  let a, _ = Machine.split_symmetric m in
  Kernel.boot a ()

(* {1 Cpu} *)

let test_cpu_serializes_beyond_cores () =
  (* 4 threads, 2 cores, 10ms each: total wall time 20ms, not 10. *)
  let v =
    run_sim (fun eng ->
        let cpu = Cpu.create eng ~cores:2 () in
        let done_at = ref [] in
        let ps =
          List.init 4 (fun i ->
              Engine.spawn eng (fun () ->
                  Cpu.consume cpu (Time.ms 10);
                  done_at := (i, Engine.now eng) :: !done_at))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        Engine.now eng)
  in
  Alcotest.(check int) "wall time doubled" (Time.ms 20) v

let test_cpu_parallel_within_cores () =
  let v =
    run_sim (fun eng ->
        let cpu = Cpu.create eng ~cores:4 () in
        let ps =
          List.init 4 (fun _ ->
              Engine.spawn eng (fun () -> Cpu.consume cpu (Time.ms 10)))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        Engine.now eng)
  in
  Alcotest.(check int) "fully parallel" (Time.ms 10) v

let test_cpu_quantum_fairness () =
  (* With slicing, a short job submitted after a long one still finishes
     well before the long one completes. *)
  let v =
    run_sim (fun eng ->
        let cpu = Cpu.create eng ~cores:1 ~quantum:(Time.ms 1) () in
        let short_done = ref 0 in
        let long_p = Engine.spawn eng (fun () -> Cpu.consume cpu (Time.ms 100)) in
        let short_p =
          Engine.spawn eng (fun () ->
              Cpu.consume cpu (Time.ms 2);
              short_done := Engine.now eng)
        in
        ignore (Engine.join short_p);
        ignore (Engine.join long_p);
        (!short_done, Engine.now eng))
  in
  let short_done, total = v in
  Alcotest.(check int) "everything took 102ms" (Time.ms 102) total;
  Alcotest.(check bool) "short job finished early (round-robin)" true
    (short_done <= Time.ms 10)

let test_cpu_utilization () =
  let v =
    run_sim (fun eng ->
        let cpu = Cpu.create eng ~cores:2 () in
        let p1 = Engine.spawn eng (fun () -> Cpu.consume cpu (Time.ms 10)) in
        let p2 = Engine.spawn eng (fun () -> Cpu.consume cpu (Time.ms 10)) in
        ignore (Engine.join p1);
        ignore (Engine.join p2);
        Cpu.utilization cpu ~elapsed:(Engine.now eng))
  in
  Alcotest.(check (float 0.01)) "both cores busy" 1.0 v

(* {1 Futex} *)

let test_futex_wait_wake_fifo () =
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let order = ref [] in
        for i = 1 to 4 do
          ignore
            (Engine.spawn eng (fun () ->
                 (match Futex.wait tbl a ~expected:0 with
                 | `Woken -> order := i :: !order
                 | `Value_mismatch -> Alcotest.fail "expected sleep");
                 ()));
          (* A sleep between spawns fixes distinct arrival times. *)
          Engine.sleep (Time.us 1)
        done;
        for _ = 1 to 4 do
          ignore (Futex.wake tbl a ~count:1);
          Engine.sleep (Time.us 1)
        done;
        List.rev !order)
  in
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3; 4 ] v

let test_futex_value_mismatch () =
  run_sim (fun eng ->
      let k = boot_kernel eng in
      let tbl = Kernel.futexes k in
      let a = Futex.alloc tbl in
      Futex.set tbl a 7;
      match Futex.wait tbl a ~expected:0 with
      | `Value_mismatch -> ()
      | `Woken -> Alcotest.fail "should not sleep on changed value")

let test_futex_wake_count () =
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let woken = ref 0 in
        for _ = 1 to 5 do
          ignore
            (Engine.spawn eng (fun () ->
                 ignore (Futex.wait tbl a ~expected:0);
                 incr woken))
        done;
        Engine.sleep (Time.us 1);
        let n = Futex.wake tbl a ~count:3 in
        Engine.sleep (Time.us 1);
        (n, !woken, Futex.waiters tbl a))
  in
  Alcotest.(check (triple int int int)) "3 of 5 woken" (3, 3, 2) v

let test_futex_two_phase_deadline () =
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let w = Futex.prepare_wait tbl a in
        let r = Futex.commit_wait_deadline w ~deadline:(Time.ms 5) in
        (* A wake after the timeout must not be consumed by the dead slot. *)
        let consumed = Futex.wake tbl a ~count:1 in
        (r, consumed, Engine.now eng))
  in
  match v with
  | `Timeout, 0, t -> Alcotest.(check int) "timed out at deadline" (Time.ms 5) t
  | `Woken, _, _ -> Alcotest.fail "expected timeout"
  | `Timeout, n, _ -> Alcotest.failf "stale slot consumed %d wakes" n

let test_futex_deferred_wakes () =
  (* The defer window the sharded det core opens around primary-side
     sections: wakes issued inside it stay synchronous (FIFO dequeue, wake
     count) but the woken processes do not run until the flush — and wakes
     from processes outside the window are never deferred. *)
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let resumed = ref [] in
        for i = 1 to 2 do
          ignore
            (Engine.spawn eng (fun () ->
                 (* The two-phase path is the one the det core routes
                    through the defer window. *)
                 let w = Futex.prepare_wait tbl a in
                 Futex.commit_wait w;
                 resumed := i :: !resumed));
          Engine.sleep (Time.us 1)
        done;
        let inside = ref None in
        let p =
          Engine.spawn eng (fun () ->
              Futex.defer_begin tbl;
              let n = Futex.wake tbl a ~count:2 in
              (* Yield: the buffered resumes must not run yet. *)
              Engine.sleep (Time.us 5);
              inside := Some (n, Futex.waiters tbl a, List.length !resumed);
              Futex.defer_flush tbl;
              Engine.sleep (Time.us 1))
        in
        ignore (Engine.join p);
        let first = (!inside, List.rev !resumed) in
        (* A waiter woken by some *other* process while this one's window
           is open resumes immediately. *)
        let other = ref false in
        ignore
          (Engine.spawn eng (fun () ->
               let w = Futex.prepare_wait tbl a in
               Futex.commit_wait w;
               other := true));
        Engine.sleep (Time.us 1);
        let cross = ref false in
        let p2 =
          Engine.spawn eng (fun () ->
              Futex.defer_begin tbl;
              let q =
                Engine.spawn eng (fun () -> ignore (Futex.wake tbl a ~count:1))
              in
              ignore (Engine.join q);
              Engine.sleep (Time.us 5);
              cross := !other;
              Futex.defer_flush tbl)
        in
        ignore (Engine.join p2);
        (first, !cross))
  in
  (match v with
  | ((Some (n, waiters, resumed_inside), order), _) ->
      Alcotest.(check int) "wake count synchronous" 2 n;
      Alcotest.(check int) "queue drained synchronously" 0 waiters;
      Alcotest.(check int) "no resume inside the window" 0 resumed_inside;
      Alcotest.(check (list int)) "flush runs resumes in wake order" [ 1; 2 ]
        order
  | ((None, _), _) -> Alcotest.fail "window observation missing");
  match v with
  | (_, cross) ->
      Alcotest.(check bool) "other processes' wakes are not deferred" true cross

let test_futex_cross_process_wakes_without_windows () =
  (* The parallel-replay shape: several windowless processes (replay
     executors) wake each other's waiters with no defer window open
     anywhere on the secondary.  Every resume must run immediately and in
     FIFO order regardless of which process performs the wake — the wake
     path has no cross-process state when the defers table is empty. *)
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let resumed = ref [] in
        for i = 1 to 4 do
          ignore
            (Engine.spawn eng (fun () ->
                 let w = Futex.prepare_wait tbl a in
                 Futex.commit_wait w;
                 resumed := i :: !resumed));
          Engine.sleep (Time.us 1)
        done;
        (* Four distinct waker processes, one wake each, staggered. *)
        for _ = 1 to 4 do
          let p =
            Engine.spawn eng (fun () -> ignore (Futex.wake tbl a ~count:1))
          in
          ignore (Engine.join p);
          Engine.sleep (Time.us 1)
        done;
        (List.rev !resumed, Futex.waiters tbl a))
  in
  Alcotest.(check (pair (list int) int))
    "wakes from distinct processes resume immediately, FIFO"
    ([ 1; 2; 3; 4 ], 0)
    v

let test_futex_prepare_then_wake_before_commit () =
  let v =
    run_sim (fun eng ->
        let k = boot_kernel eng in
        let tbl = Kernel.futexes k in
        let a = Futex.alloc tbl in
        let w = Futex.prepare_wait tbl a in
        let n = Futex.wake tbl a ~count:1 in
        (* Wake landed before commit: commit returns immediately. *)
        Futex.commit_wait w;
        (n, Engine.now eng))
  in
  Alcotest.(check (pair int int)) "no sleep needed" (1, 0) v

(* {1 Pthread} *)

let boot_pthread eng =
  let k = boot_kernel eng in
  (k, Pthread.create k)

let test_pthread_mutex_exclusion () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let in_cs = ref 0 and peak = ref 0 in
        let ps =
          List.init 6 (fun _ ->
              Kernel.spawn_thread k (fun () ->
                  Pthread.mutex_lock pt m;
                  incr in_cs;
                  if !in_cs > !peak then peak := !in_cs;
                  Engine.sleep (Time.us 50);
                  decr in_cs;
                  Pthread.mutex_unlock pt m))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        !peak)
  in
  Alcotest.(check int) "mutual exclusion" 1 v

let test_pthread_mutex_fifo_handoff () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let order = ref [] in
        Pthread.mutex_lock pt m;
        for i = 1 to 4 do
          ignore
            (Kernel.spawn_thread k (fun () ->
                 Pthread.mutex_lock pt m;
                 order := i :: !order;
                 Pthread.mutex_unlock pt m));
          Engine.sleep (Time.us 10)
        done;
        Engine.sleep (Time.us 10);
        Pthread.mutex_unlock pt m;
        Engine.sleep (Time.ms 1);
        List.rev !order)
  in
  Alcotest.(check (list int)) "acquisition = arrival order" [ 1; 2; 3; 4 ] v

let test_pthread_trylock () =
  run_sim (fun eng ->
      let _k, pt = boot_pthread (ignore eng; eng) in
      let m = Pthread.mutex_create pt in
      Alcotest.(check bool) "first trylock wins" true (Pthread.mutex_trylock pt m);
      Alcotest.(check bool) "second fails" false (Pthread.mutex_trylock pt m);
      Pthread.mutex_unlock pt m;
      Alcotest.(check bool) "after unlock wins" true (Pthread.mutex_trylock pt m);
      Pthread.mutex_unlock pt m)

let test_pthread_cond_producer_consumer () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let c = Pthread.cond_create pt in
        let q = Queue.create () in
        let consumed = ref [] in
        let consumer =
          Kernel.spawn_thread k (fun () ->
              for _ = 1 to 5 do
                Pthread.mutex_lock pt m;
                while Queue.is_empty q do
                  Pthread.cond_wait pt c m
                done;
                consumed := Queue.pop q :: !consumed;
                Pthread.mutex_unlock pt m
              done)
        in
        ignore
          (Kernel.spawn_thread k (fun () ->
               for i = 1 to 5 do
                 Engine.sleep (Time.us 100);
                 Pthread.mutex_lock pt m;
                 Queue.push i q;
                 Pthread.cond_signal pt c;
                 Pthread.mutex_unlock pt m
               done));
        ignore (Engine.join consumer);
        List.rev !consumed)
  in
  Alcotest.(check (list int)) "all items consumed in order" [ 1; 2; 3; 4; 5 ] v

let test_pthread_cond_timedwait_timeout () =
  let v =
    run_sim (fun eng ->
        let _k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let c = Pthread.cond_create pt in
        Pthread.mutex_lock pt m;
        let r = Pthread.cond_timedwait pt c m ~deadline:(Time.ms 3) in
        let relocked = Pthread.mutex_locked pt m in
        Pthread.mutex_unlock pt m;
        (r, relocked))
  in
  Alcotest.(check bool) "timeout and mutex re-held" true (v = (`Timeout, true))

let test_pthread_cond_timedwait_signaled () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let c = Pthread.cond_create pt in
        ignore
          (Kernel.spawn_thread k (fun () ->
               Engine.sleep (Time.ms 1);
               Pthread.mutex_lock pt m;
               Pthread.cond_signal pt c;
               Pthread.mutex_unlock pt m));
        Pthread.mutex_lock pt m;
        let r = Pthread.cond_timedwait pt c m ~deadline:(Time.sec 1) in
        Pthread.mutex_unlock pt m;
        r)
  in
  Alcotest.(check bool) "signaled before deadline" true (v = `Signaled)

let test_pthread_timedout_waiter_eats_no_signal () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let m = Pthread.mutex_create pt in
        let c = Pthread.cond_create pt in
        let live_woken = ref false in
        ignore
          (Kernel.spawn_thread k (fun () ->
               Pthread.mutex_lock pt m;
               ignore (Pthread.cond_timedwait pt c m ~deadline:(Time.ms 2));
               Pthread.mutex_unlock pt m));
        Engine.sleep (Time.us 10);
        ignore
          (Kernel.spawn_thread k (fun () ->
               Pthread.mutex_lock pt m;
               Pthread.cond_wait pt c m;
               live_woken := true;
               Pthread.mutex_unlock pt m));
        Engine.sleep (Time.ms 5);
        Pthread.mutex_lock pt m;
        Pthread.cond_signal pt c;
        Pthread.mutex_unlock pt m;
        Engine.sleep (Time.ms 1);
        !live_woken)
  in
  Alcotest.(check bool) "signal reached live waiter" true v

let test_pthread_rwlock_readers_share () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let l = Pthread.rwlock_create pt in
        let active = ref 0 and peak = ref 0 in
        let ps =
          List.init 4 (fun _ ->
              Kernel.spawn_thread k (fun () ->
                  Pthread.rwlock_rdlock pt l;
                  incr active;
                  if !active > !peak then peak := !active;
                  Engine.sleep (Time.us 100);
                  decr active;
                  Pthread.rwlock_unlock pt l))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        !peak)
  in
  Alcotest.(check int) "readers run concurrently" 4 v

let test_pthread_rwlock_writer_exclusive () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let l = Pthread.rwlock_create pt in
        let writer_active = ref false in
        let violation = ref false in
        let w =
          Kernel.spawn_thread k (fun () ->
              Pthread.rwlock_wrlock pt l;
              writer_active := true;
              Engine.sleep (Time.us 200);
              writer_active := false;
              Pthread.rwlock_unlock pt l)
        in
        Engine.sleep (Time.us 10);
        let rs =
          List.init 3 (fun _ ->
              Kernel.spawn_thread k (fun () ->
                  Pthread.rwlock_rdlock pt l;
                  if !writer_active then violation := true;
                  Pthread.rwlock_unlock pt l))
        in
        ignore (Engine.join w);
        List.iter (fun p -> ignore (Engine.join p)) rs;
        !violation)
  in
  Alcotest.(check bool) "no reader overlapped the writer" false v

let test_pthread_rwlock_writer_preference () =
  (* A waiting writer blocks newly arriving readers. *)
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let l = Pthread.rwlock_create pt in
        let log = ref [] in
        Pthread.rwlock_rdlock pt l;
        ignore
          (Kernel.spawn_thread k (fun () ->
               Pthread.rwlock_wrlock pt l;
               log := "writer" :: !log;
               Pthread.rwlock_unlock pt l));
        Engine.sleep (Time.us 10);
        ignore
          (Kernel.spawn_thread k (fun () ->
               Pthread.rwlock_rdlock pt l;
               log := "late-reader" :: !log;
               Pthread.rwlock_unlock pt l));
        Engine.sleep (Time.us 10);
        Pthread.rwlock_unlock pt l;
        Engine.sleep (Time.ms 1);
        List.rev !log)
  in
  Alcotest.(check (list string)) "writer admitted first" [ "writer"; "late-reader" ] v

let test_pthread_try_rw () =
  run_sim (fun eng ->
      let _k, pt = boot_pthread eng in
      let l = Pthread.rwlock_create pt in
      Alcotest.(check bool) "tryrd on free" true (Pthread.rwlock_tryrdlock pt l);
      Alcotest.(check bool) "trywr under reader" false (Pthread.rwlock_trywrlock pt l);
      Pthread.rwlock_unlock pt l;
      Alcotest.(check bool) "trywr on free" true (Pthread.rwlock_trywrlock pt l);
      Alcotest.(check bool) "tryrd under writer" false (Pthread.rwlock_tryrdlock pt l);
      Pthread.rwlock_unlock pt l)

(* {1 Memlayout} *)

let gib n = n * 1024 * 1024 * 1024

let test_memlayout_boot_state () =
  let m = Memlayout.create ~ram_bytes:(gib 96) in
  let c = Memlayout.classify m in
  Alcotest.(check int) "sums to RAM" (gib 96)
    (c.Memlayout.ignored + c.Memlayout.delayed + c.Memlayout.user);
  Alcotest.(check int) "no user yet" 0 c.Memlayout.user;
  Alcotest.(check bool) "boot kernel footprint ~2GB" true
    (c.Memlayout.ignored > gib 1 && c.Memlayout.ignored < gib 3)

let test_memlayout_user_growth () =
  let m = Memlayout.create ~ram_bytes:(gib 96) in
  Memlayout.alloc_user m (gib 60);
  let i0, _, u0 = Memlayout.fractions m in
  Alcotest.(check bool) "user ~62%" true (u0 > 0.60 && u0 < 0.65);
  Alcotest.(check bool) "page tables grew ignored" true
    (i0 > 0.02);
  Memlayout.free_user m (gib 60);
  let c = Memlayout.classify m in
  Alcotest.(check int) "user freed" 0 c.Memlayout.user

let test_memlayout_oom () =
  let m = Memlayout.create ~ram_bytes:(gib 8) in
  Alcotest.check_raises "cannot overcommit anon memory" Memlayout.Out_of_memory
    (fun () -> Memlayout.alloc_user m (gib 9))

let test_memlayout_page_cache_capped () =
  let m = Memlayout.create ~ram_bytes:(gib 8) in
  Memlayout.alloc_page_cache m (gib 100);
  let c = Memlayout.classify m in
  Alcotest.(check int) "sums to RAM despite overshoot" (gib 8)
    (c.Memlayout.ignored + c.Memlayout.delayed + c.Memlayout.user)

let prop_memlayout_conserves_ram =
  QCheck.Test.make ~name:"Memlayout classes always sum to RAM" ~count:200
    QCheck.(list (pair (int_range 0 4) (int_range 0 (64 * 1024 * 1024))))
    (fun ops ->
      let ram = 2 * 1024 * 1024 * 1024 in
      let m = Memlayout.create ~ram_bytes:ram in
      List.iter
        (fun (op, n) ->
          try
            match op with
            | 0 -> Memlayout.alloc_user m n
            | 1 -> Memlayout.free_user m n
            | 2 -> Memlayout.alloc_slab m n
            | 3 -> Memlayout.alloc_page_cache m n
            | _ -> Memlayout.free_page_cache m n
          with Memlayout.Out_of_memory -> ())
        ops;
      let c = Memlayout.classify m in
      c.Memlayout.ignored + c.Memlayout.delayed + c.Memlayout.user = ram
      && c.Memlayout.ignored >= 0 && c.Memlayout.delayed >= 0
      && c.Memlayout.user >= 0)

let test_memlayout_hit_outcomes () =
  let m = Memlayout.create ~ram_bytes:(gib 96) in
  Memlayout.alloc_user m (gib 60);
  let prng = Prng.create ~seed:1 in
  let fatal = ref 0 and rec_ = ref 0 and killed = ref 0 in
  for _ = 1 to 10_000 do
    match Memlayout.hit_random_page m prng with
    | Memlayout.Kernel_fatal -> incr fatal
    | Memlayout.Recovered -> incr rec_
    | Memlayout.App_killed -> incr killed
  done;
  let i, d, u = Memlayout.fractions m in
  let close a b = Float.abs (a -. b) < 0.02 in
  Alcotest.(check bool) "sampled fractions track classes" true
    (close (float_of_int !fatal /. 10_000.) i
    && close (float_of_int !rec_ /. 10_000.) d
    && close (float_of_int !killed /. 10_000.) u)

let test_pthread_barrier_releases_together () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let b = Pthread.barrier_create pt ~count:4 in
        let released_at = ref [] in
        let serials = ref 0 in
        let ps =
          List.init 4 (fun i ->
              Kernel.spawn_thread k (fun () ->
                  Engine.sleep (Time.ms (1 + i));
                  (match Pthread.barrier_wait pt b with
                  | `Serial -> incr serials
                  | `Normal -> ());
                  released_at := Engine.now eng :: !released_at))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        (!serials, !released_at))
  in
  let serials, times = v in
  Alcotest.(check int) "exactly one serial thread" 1 serials;
  match times with
  | t :: rest ->
      Alcotest.(check bool) "all released at the last arrival" true
        (List.for_all (fun x -> abs (x - t) < Time.us 50) rest)
  | [] -> Alcotest.fail "no releases"

let test_pthread_barrier_generations () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let b = Pthread.barrier_create pt ~count:2 in
        let phases = ref [] in
        let ps =
          List.init 2 (fun i ->
              Kernel.spawn_thread k (fun () ->
                  for phase = 1 to 3 do
                    Engine.sleep (Time.us (10 * (i + 1)));
                    ignore (Pthread.barrier_wait pt b);
                    phases := (i, phase) :: !phases
                  done))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        List.length !phases)
  in
  Alcotest.(check int) "three generations, both threads" 6 v

let test_pthread_sem_bounds () =
  let v =
    run_sim (fun eng ->
        let k, pt = boot_pthread eng in
        let s = Pthread.sem_create pt 2 in
        let active = ref 0 and peak = ref 0 in
        let ps =
          List.init 6 (fun _ ->
              Kernel.spawn_thread k (fun () ->
                  Pthread.sem_wait pt s;
                  incr active;
                  if !active > !peak then peak := !active;
                  Engine.sleep (Time.us 100);
                  decr active;
                  Pthread.sem_post pt s))
        in
        List.iter (fun p -> ignore (Engine.join p)) ps;
        !peak)
  in
  Alcotest.(check int) "at most 2 inside" 2 v

let test_pthread_sem_trywait () =
  run_sim (fun eng ->
      let _k, pt = boot_pthread (ignore eng; eng) in
      let s = Pthread.sem_create pt 1 in
      Alcotest.(check bool) "first succeeds" true (Pthread.sem_trywait pt s);
      Alcotest.(check bool) "second fails" false (Pthread.sem_trywait pt s);
      Pthread.sem_post pt s;
      Alcotest.(check int) "value restored" 1 (Pthread.sem_value pt s))

(* {1 Vfs} *)

module Payload = Ftsim_sim.Payload

let test_vfs_basic_rw () =
  let fs = Vfs.create () in
  let fd = Vfs.open_file fs ~path:"/data/log" ~create:true in
  Vfs.append fs fd (Payload.of_string "hello ");
  Vfs.append fs fd (Payload.of_string "world");
  Alcotest.(check (option int)) "size" (Some 11) (Vfs.size fs ~path:"/data/log");
  let fd2 = Vfs.open_file fs ~path:"/data/log" ~create:false in
  let all = Vfs.read fs fd2 ~max:100 in
  Alcotest.(check string) "contents" "hello world" (Payload.concat_to_string all);
  Alcotest.(check (list string)) "listing" [ "/data/log" ] (Vfs.list_paths fs)

let test_vfs_missing_file () =
  let fs = Vfs.create () in
  Alcotest.check_raises "no such file" (Vfs.Not_found_file "/nope") (fun () ->
      ignore (Vfs.open_file fs ~path:"/nope" ~create:false))

let test_vfs_short_reads_at_cluster_boundary () =
  let fs = Vfs.create ~page_cluster:1024 () in
  let fd = Vfs.open_file fs ~path:"/f" ~create:true in
  Vfs.append fs fd (Payload.zeroes 3000);
  let fd2 = Vfs.open_file fs ~path:"/f" ~create:false in
  let r1 = Payload.total_len (Vfs.read fs fd2 ~max:5000) in
  let r2 = Payload.total_len (Vfs.read fs fd2 ~max:5000) in
  let r3 = Payload.total_len (Vfs.read fs fd2 ~max:5000) in
  let r4 = Vfs.read fs fd2 ~max:5000 in
  Alcotest.(check (list int)) "cluster-bounded short reads" [ 1024; 1024; 952 ]
    [ r1; r2; r3 ];
  Alcotest.(check bool) "EOF" true (r4 = [])

let test_vfs_read_exact_and_cursor () =
  let fs = Vfs.create () in
  let fd = Vfs.open_file fs ~path:"/f" ~create:true in
  Vfs.append fs fd (Payload.of_string "0123456789");
  let fd2 = Vfs.open_file fs ~path:"/f" ~create:false in
  let a = Vfs.read_exact fs fd2 4 in
  let b = Vfs.read_exact fs fd2 6 in
  Alcotest.(check (pair string string)) "split reads" ("0123", "456789")
    (Payload.concat_to_string a, Payload.concat_to_string b);
  Alcotest.check_raises "over-read rejected"
    (Invalid_argument "Vfs.read_exact: 1 requested, 0 available (replay divergence?)")
    (fun () -> ignore (Vfs.read_exact fs fd2 1))

let test_vfs_truncate_and_checksum () =
  let fs = Vfs.create () in
  let fd = Vfs.open_file fs ~path:"/f" ~create:true in
  Vfs.append fs fd (Payload.of_string "abc");
  let c1 = Vfs.checksum fs ~path:"/f" in
  Vfs.truncate fs ~path:"/f";
  Alcotest.(check (option int)) "empty after truncate" (Some 0) (Vfs.size fs ~path:"/f");
  let fd2 = Vfs.open_file fs ~path:"/f" ~create:false in
  Vfs.append fs fd2 (Payload.of_string "abc");
  Alcotest.(check bool) "checksum content-deterministic" true
    (Vfs.checksum fs ~path:"/f" = c1)

let test_vfs_closed_fd () =
  let fs = Vfs.create () in
  let fd = Vfs.open_file fs ~path:"/f" ~create:true in
  Vfs.close fs fd;
  Alcotest.check_raises "use after close" Vfs.Bad_fd (fun () ->
      ignore (Vfs.read fs fd ~max:1))

let () =
  Alcotest.run "kernel"
    [
      ( "cpu",
        [
          Alcotest.test_case "serializes beyond cores" `Quick
            test_cpu_serializes_beyond_cores;
          Alcotest.test_case "parallel within cores" `Quick
            test_cpu_parallel_within_cores;
          Alcotest.test_case "quantum fairness" `Quick test_cpu_quantum_fairness;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        ] );
      ( "futex",
        [
          Alcotest.test_case "FIFO wake order" `Quick test_futex_wait_wake_fifo;
          Alcotest.test_case "value mismatch" `Quick test_futex_value_mismatch;
          Alcotest.test_case "wake count" `Quick test_futex_wake_count;
          Alcotest.test_case "two-phase deadline" `Quick test_futex_two_phase_deadline;
          Alcotest.test_case "wake before commit" `Quick
            test_futex_prepare_then_wake_before_commit;
          Alcotest.test_case "deferred wake delivery" `Quick
            test_futex_deferred_wakes;
          Alcotest.test_case "cross-process wakes without windows" `Quick
            test_futex_cross_process_wakes_without_windows;
        ] );
      ( "pthread",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_pthread_mutex_exclusion;
          Alcotest.test_case "mutex FIFO hand-off" `Quick
            test_pthread_mutex_fifo_handoff;
          Alcotest.test_case "trylock" `Quick test_pthread_trylock;
          Alcotest.test_case "cond producer/consumer" `Quick
            test_pthread_cond_producer_consumer;
          Alcotest.test_case "cond timedwait timeout" `Quick
            test_pthread_cond_timedwait_timeout;
          Alcotest.test_case "cond timedwait signaled" `Quick
            test_pthread_cond_timedwait_signaled;
          Alcotest.test_case "timed-out waiter eats no signal" `Quick
            test_pthread_timedout_waiter_eats_no_signal;
          Alcotest.test_case "rwlock readers share" `Quick
            test_pthread_rwlock_readers_share;
          Alcotest.test_case "rwlock writer exclusive" `Quick
            test_pthread_rwlock_writer_exclusive;
          Alcotest.test_case "rwlock writer preference" `Quick
            test_pthread_rwlock_writer_preference;
          Alcotest.test_case "try rd/wr" `Quick test_pthread_try_rw;
          Alcotest.test_case "barrier releases together" `Quick
            test_pthread_barrier_releases_together;
          Alcotest.test_case "barrier generations" `Quick
            test_pthread_barrier_generations;
          Alcotest.test_case "sem bounds" `Quick test_pthread_sem_bounds;
          Alcotest.test_case "sem trywait" `Quick test_pthread_sem_trywait;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "basic rw" `Quick test_vfs_basic_rw;
          Alcotest.test_case "missing file" `Quick test_vfs_missing_file;
          Alcotest.test_case "short reads" `Quick
            test_vfs_short_reads_at_cluster_boundary;
          Alcotest.test_case "read_exact cursor" `Quick
            test_vfs_read_exact_and_cursor;
          Alcotest.test_case "truncate+checksum" `Quick
            test_vfs_truncate_and_checksum;
          Alcotest.test_case "closed fd" `Quick test_vfs_closed_fd;
        ] );
      ( "memlayout",
        [
          Alcotest.test_case "boot state" `Quick test_memlayout_boot_state;
          Alcotest.test_case "user growth" `Quick test_memlayout_user_growth;
          Alcotest.test_case "out of memory" `Quick test_memlayout_oom;
          Alcotest.test_case "page cache capped" `Quick
            test_memlayout_page_cache_capped;
          Alcotest.test_case "hit outcomes" `Quick test_memlayout_hit_outcomes;
          QCheck_alcotest.to_alcotest prop_memlayout_conserves_ram;
        ] );
    ]
