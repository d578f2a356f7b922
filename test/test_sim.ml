(* Tests for the discrete-event engine and its blocking primitives. *)

open Ftsim_sim

let run_sim f =
  let eng = Engine.create () in
  let result = ref None in
  let _p = Engine.spawn eng ~name:"test-main" (fun () -> result := Some (f eng)) in
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test process did not complete"

(* {1 Engine basics} *)

let test_clock_advances () =
  let v =
    run_sim (fun eng ->
        let t0 = Engine.now eng in
        Engine.sleep (Time.ms 5);
        Engine.now eng - t0)
  in
  Alcotest.(check int) "5ms elapsed" (Time.ms 5) v

let test_spawn_ordering () =
  (* Processes scheduled at the same instant run in spawn order. *)
  let log = ref [] in
  let eng = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.spawn eng (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO at same time" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sleep_interleaving () =
  let log = ref [] in
  let eng = Engine.create () in
  let note tag = log := tag :: !log in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep (Time.ms 2);
         note "a2";
         Engine.sleep (Time.ms 2);
         note "a4"));
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep (Time.ms 1);
         note "b1";
         Engine.sleep (Time.ms 2);
         note "b3"));
  Engine.run eng;
  Alcotest.(check (list string))
    "time-ordered interleaving"
    [ "b1"; "a2"; "b3"; "a4" ]
    (List.rev !log)

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 10 do
           Engine.sleep (Time.ms 10);
           incr hits
         done));
  Engine.run ~until:(Time.ms 35) eng;
  Alcotest.(check int) "three sleeps fit in 35ms" 3 !hits;
  Alcotest.(check int) "clock parked at until" (Time.ms 35) (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "remaining sleeps run" 10 !hits

let test_join () =
  let v =
    run_sim (fun eng ->
        let p =
          Engine.spawn eng ~name:"child" (fun () -> Engine.sleep (Time.ms 3))
        in
        let r = Engine.join p in
        (r, Engine.now eng))
  in
  (match v with
  | Engine.Normal, t -> Alcotest.(check int) "joined after child" (Time.ms 3) t
  | _ -> Alcotest.fail "expected Normal exit")

let test_join_exn () =
  let r =
    run_sim (fun eng ->
        let p = Engine.spawn eng (fun () -> failwith "boom") in
        Engine.join p)
  in
  match r with
  | Engine.Exn (Failure m) -> Alcotest.(check string) "exn carried" "boom" m
  | _ -> Alcotest.fail "expected Exn exit"

let test_kill_blocked () =
  let finalized = ref false in
  let r =
    run_sim (fun eng ->
        let p =
          Engine.spawn eng (fun () ->
              Fun.protect
                ~finally:(fun () -> finalized := true)
                (fun () -> Engine.sleep (Time.sec 1000)))
        in
        Engine.sleep (Time.ms 1);
        Engine.kill p;
        Engine.join p)
  in
  Alcotest.(check bool) "finalizer ran" true !finalized;
  match r with
  | Engine.Killed -> ()
  | _ -> Alcotest.fail "expected Killed exit"

let test_kill_idempotent () =
  run_sim (fun eng ->
      let p = Engine.spawn eng (fun () -> Engine.sleep (Time.sec 10)) in
      Engine.sleep (Time.ms 1);
      Engine.kill p;
      Engine.kill p;
      match Engine.join p with
      | Engine.Killed -> ()
      | _ -> Alcotest.fail "expected Killed")

let test_kill_before_start () =
  let ran = ref false in
  let eng = Engine.create () in
  let p = Engine.spawn eng ~at:(Time.ms 5) (fun () -> ran := true) in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.kill p;
         match Engine.join p with
         | Engine.Killed -> ()
         | _ -> Alcotest.fail "expected Killed"));
  Engine.run eng;
  Alcotest.(check bool) "body never ran" false !ran

let test_deadlock_detectable () =
  let eng = Engine.create () in
  let iv : unit Ivar.t = Ivar.create () in
  ignore (Engine.spawn eng (fun () -> Ivar.read iv));
  Engine.run eng;
  Alcotest.(check int) "one live (deadlocked) proc" 1 (Engine.live_procs eng);
  Alcotest.(check int) "no pending events" 0 (Engine.pending_events eng)

let test_kill_self_at_suspension () =
  (* A process killed while running dies at its next suspension point,
     running its finalizers. *)
  let finalized = ref false in
  let progressed = ref false in
  let eng = Engine.create () in
  let victim = ref None in
  let p =
    Engine.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> finalized := true)
          (fun () ->
            (match !victim with Some self -> Engine.kill self | None -> ());
            (* Still running: the kill takes effect below. *)
            Engine.sleep (Time.ms 1);
            progressed := true))
  in
  victim := Some p;
  Engine.run eng;
  Alcotest.(check bool) "died at suspension" false !progressed;
  Alcotest.(check bool) "finalizer ran" true !finalized;
  Alcotest.(check bool) "reason is Killed" true (Engine.status p = Some Engine.Killed)

let test_schedule_in_past_rejected () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep (Time.ms 5);
         Alcotest.check_raises "past schedule"
           (Invalid_argument "Engine.schedule: time in the past") (fun () ->
             Engine.schedule eng ~at:(Time.ms 1) (fun () -> ()))));
  Engine.run eng

let test_negative_sleep_rejected () =
  let eng = Engine.create () in
  let got = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         try Engine.sleep (-1)
         with Invalid_argument _ -> got := true));
  Engine.run eng;
  Alcotest.(check bool) "negative sleep rejected" true !got

let test_exception_does_not_poison_engine () =
  (* One process raising must not prevent others from running. *)
  let eng = Engine.create () in
  let survived = ref false in
  ignore (Engine.spawn eng (fun () -> failwith "bang"));
  ignore
    (Engine.spawn eng (fun () ->
         Engine.sleep (Time.ms 1);
         survived := true));
  Engine.run eng;
  Alcotest.(check bool) "other procs unaffected" true !survived

let prop_sleep_ordering =
  QCheck.Test.make ~name:"events fire in timestamp order" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 10_000))
    (fun delays ->
      let eng = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.spawn eng (fun () ->
                 Engine.sleep (Time.us d);
                 fired := Engine.now eng :: !fired)))
        delays;
      Engine.run eng;
      let ts = List.rev !fired in
      List.sort compare ts = ts
      && List.length ts = List.length delays)

(* {1 Ivar} *)

let test_ivar_order () =
  let v =
    run_sim (fun eng ->
        let iv = Ivar.create () in
        let sum = ref 0 in
        for _ = 1 to 3 do
          ignore
            (Engine.spawn eng (fun () ->
                 let x = Ivar.read iv in
                 sum := !sum + x))
        done;
        Engine.sleep (Time.ms 1);
        Ivar.fill iv 7;
        Engine.sleep (Time.ms 1);
        !sum)
  in
  Alcotest.(check int) "all readers woke" 21 v

let test_ivar_double_fill () =
  run_sim (fun _eng ->
      let iv = Ivar.create () in
      Ivar.fill iv 1;
      Alcotest.(check bool) "second fill rejected" false (Ivar.try_fill iv 2);
      Alcotest.(check (option int)) "value preserved" (Some 1) (Ivar.peek iv))

(* {1 Mutex / timed wait / Semaphore} *)

let test_mutex_mutual_exclusion () =
  let v =
    run_sim (fun eng ->
        let m = Sync.Mutex.create () in
        let in_cs = ref 0 and max_in_cs = ref 0 and done_ = ref 0 in
        for _ = 1 to 8 do
          ignore
            (Engine.spawn eng (fun () ->
                 Sync.Mutex.with_lock m (fun () ->
                     incr in_cs;
                     if !in_cs > !max_in_cs then max_in_cs := !in_cs;
                     Engine.sleep (Time.us 10);
                     decr in_cs);
                 incr done_))
        done;
        Engine.sleep (Time.ms 10);
        (!max_in_cs, !done_))
  in
  Alcotest.(check (pair int int)) "one at a time, all done" (1, 8) v

let test_mutex_fifo () =
  let order =
    run_sim (fun eng ->
        let m = Sync.Mutex.create () in
        let order = ref [] in
        Sync.Mutex.lock m;
        for i = 1 to 4 do
          ignore
            (Engine.spawn eng (fun () ->
                 Sync.Mutex.lock m;
                 order := i :: !order;
                 Sync.Mutex.unlock m))
        done;
        Engine.sleep (Time.ms 1);
        Sync.Mutex.unlock m;
        Engine.sleep (Time.ms 1);
        List.rev !order)
  in
  Alcotest.(check (list int)) "FIFO hand-off" [ 1; 2; 3; 4 ] order

let test_timed_out_waiter_eats_no_wake () =
  (* A timed-out waiter must not eat a later wake meant for a live one. *)
  let v =
    run_sim (fun eng ->
        let q = Waitq.create () in
        let timed_out = ref None and live_woken = ref false in
        ignore
          (Engine.spawn eng (fun () ->
               timed_out := Some (Sync.wait_on q ~deadline:(Time.ms 2))));
        ignore
          (Engine.spawn eng (fun () ->
               ignore (Sync.wait_on q);
               live_woken := true));
        Engine.sleep (Time.ms 5);
        let taken = Waitq.wake_one q in
        Engine.sleep (Time.ms 1);
        (!timed_out = Some `Timeout, taken, !live_woken))
  in
  Alcotest.(check (triple bool bool bool))
    "first waiter timed out, the live one took the wake" (true, true, true) v

let test_semaphore_bounds () =
  let v =
    run_sim (fun eng ->
        let s = Sync.Semaphore.create 2 in
        let active = ref 0 and peak = ref 0 in
        for _ = 1 to 6 do
          ignore
            (Engine.spawn eng (fun () ->
                 Sync.Semaphore.acquire s;
                 incr active;
                 if !active > !peak then peak := !active;
                 Engine.sleep (Time.ms 1);
                 decr active;
                 Sync.Semaphore.release s))
        done;
        Engine.sleep (Time.ms 10);
        !peak)
  in
  Alcotest.(check int) "at most 2 concurrent" 2 v

(* {1 Blocking queue} *)

let test_bqueue_fifo () =
  let v =
    run_sim (fun eng ->
        let q = Bqueue.create () in
        ignore
          (Engine.spawn eng (fun () ->
               for i = 1 to 5 do
                 Bqueue.put q i
               done));
        let out = ref [] in
        for _ = 1 to 5 do
          out := Bqueue.get q :: !out
        done;
        List.rev !out)
  in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3; 4; 5 ] v

let test_bqueue_get_timeout () =
  let v =
    run_sim (fun eng ->
        let q : int Bqueue.t = Bqueue.create () in
        let r = Bqueue.get_timeout q ~deadline:(Time.ms 3) in
        (r, Engine.now eng))
  in
  Alcotest.(check (pair (option int) int)) "timed out empty" (None, Time.ms 3) v

(* A ring's slots hold [Obj.t]: floats go in boxed and come back intact,
   across growth and wrap-around, and an empty ring refuses a pop. *)
let test_ring_floats () =
  let r = Ring.create () and popped = ref [] in
  for i = 1 to 40 do
    Ring.push r (float_of_int i +. 0.5);
    if i mod 3 = 0 then popped := Ring.pop r :: !popped
  done;
  while not (Ring.is_empty r) do
    popped := Ring.pop r :: !popped
  done;
  Alcotest.(check (list (float 0.))) "FIFO"
    (List.init 40 (fun i -> float_of_int (i + 1) +. 0.5))
    (List.rev !popped);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ring.pop: empty ring")
    (fun () -> ignore (Ring.pop r : float))

(* Random puts, in bursts that grow the ring past its first 8 slots, and
   gets, interleaved so that the ring wraps, against [Stdlib.Queue].  A
   [get] on an empty queue would block, so the script skips it. *)
type bq_op = Bq_put of int | Bq_get | Bq_try_get | Bq_length

let bq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Bq_put n) (int_range 1 20));
        (3, return Bq_get);
        (2, return Bq_try_get);
        (1, return Bq_length);
      ])

let bq_show = function
  | Bq_put n -> Printf.sprintf "put x%d" n
  | Bq_get -> "get"
  | Bq_try_get -> "try_get"
  | Bq_length -> "length"

let prop_bqueue_matches_queue =
  QCheck.Test.make ~name:"Bqueue matches Stdlib.Queue" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map bq_show ops))
       QCheck.Gen.(list_size (int_range 0 200) bq_op_gen))
    (fun ops ->
      run_sim (fun _ ->
          let q = Bqueue.create () and model = Queue.create () and next = ref 0 in
          let step = function
            | Bq_put n ->
                for _ = 1 to n do
                  incr next;
                  Bqueue.put q !next;
                  Queue.push !next model
                done;
                true
            | Bq_get -> Queue.is_empty model || Bqueue.get q = Queue.take model
            | Bq_try_get -> Bqueue.try_get q = Queue.take_opt model
            | Bq_length -> Bqueue.is_empty q = Queue.is_empty model
          in
          List.for_all
            (fun op -> step op && Bqueue.length q = Queue.length model)
            ops))

(* {1 Wait queues}

   Random [add], [push], [cancel], [wake_one] and [wake_all] on two
   queues, against a list of each queue's live waiters, oldest first.  An
   entry woken out of one queue may be pushed onto either, as the engine
   relinks a process's own entry; pushing one that still waits must
   raise.  A cancelled entry is not pushed again: whether it is still
   linked depends on whether a wake has walked past it. *)
type wq_op =
  | Wq_add of int
  | Wq_push of int * int
  | Wq_cancel of int
  | Wq_wake_one of int
  | Wq_wake_all of int

let wq_op_gen =
  QCheck.Gen.(
    let q = int_bound 1 and k = int_bound 1000 in
    frequency
      [
        (4, map (fun q -> Wq_add q) q);
        (2, map2 (fun k q -> Wq_push (k, q)) k q);
        (2, map (fun k -> Wq_cancel k) k);
        (3, map (fun q -> Wq_wake_one q) q);
        (1, map (fun q -> Wq_wake_all q) q);
      ])

let wq_show = function
  | Wq_add q -> Printf.sprintf "add %d" q
  | Wq_push (k, q) -> Printf.sprintf "push #%d %d" k q
  | Wq_cancel k -> Printf.sprintf "cancel #%d" k
  | Wq_wake_one q -> Printf.sprintf "wake_one %d" q
  | Wq_wake_all q -> Printf.sprintf "wake_all %d" q

type wq_model_state = Wq_idle | Wq_waiting of int | Wq_cancelled

let prop_waitq_matches_fifo =
  QCheck.Test.make ~name:"Waitq matches a reference FIFO" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map wq_show ops))
       QCheck.Gen.(list_size (int_range 0 150) wq_op_gen))
    (fun ops ->
      let qs = [| Waitq.create (); Waitq.create () |] in
      let live = [| []; [] |] in
      let entries = Hashtbl.create 16 and states = Hashtbl.create 16 in
      let woken = ref [] in
      let added = ref 0 in
      let pick k f = if !added > 0 then f (k mod !added) else true in
      (* Wake the model's head of queue [q], returning its id. *)
      let model_wake q =
        match live.(q) with
        | [] -> None
        | id :: rest ->
            live.(q) <- rest;
            Hashtbl.replace states id Wq_idle;
            Some id
      in
      (* [f ()] must wake exactly the ids [expect], in order. *)
      let woke expect f =
        woken := [];
        let r = f () in
        (r, List.rev !woken = expect)
      in
      let enqueue id q =
        live.(q) <- live.(q) @ [ id ];
        Hashtbl.replace states id (Wq_waiting q)
      in
      let step = function
        | Wq_add q ->
            let id = !added in
            incr added;
            Hashtbl.replace entries id
              (Waitq.add qs.(q) (fun () -> woken := id :: !woken));
            enqueue id q;
            true
        | Wq_push (k, q) ->
            pick k (fun id ->
                let e = Hashtbl.find entries id in
                match Hashtbl.find states id with
                | Wq_idle ->
                    Waitq.push qs.(q) e;
                    enqueue id q;
                    true
                | Wq_waiting _ -> (
                    match Waitq.push qs.(q) e with
                    | () -> false
                    | exception Invalid_argument _ -> true)
                | Wq_cancelled -> true)
        | Wq_cancel k ->
            pick k (fun id ->
                Waitq.cancel (Hashtbl.find entries id);
                (match Hashtbl.find states id with
                | Wq_waiting q ->
                    live.(q) <- List.filter (( <> ) id) live.(q);
                    Hashtbl.replace states id Wq_cancelled
                | Wq_idle | Wq_cancelled -> ());
                true)
        | Wq_wake_one q ->
            let expect = model_wake q in
            let r, ok = woke (Option.to_list expect) (fun () -> Waitq.wake_one qs.(q)) in
            ok && r = (expect <> None)
        | Wq_wake_all q ->
            let rec all acc = match model_wake q with None -> List.rev acc | Some id -> all (id :: acc) in
            let expect = all [] in
            let r, ok = woke expect (fun () -> Waitq.wake_all qs.(q)) in
            ok && r = List.length expect
      in
      List.for_all
        (fun op ->
          step op
          && Array.for_all2
               (fun q l -> Waitq.length q = List.length l && Waitq.is_empty q = (l = []))
               qs live)
        ops)

(* A process killed while parked in [Sync.wait_on] has left its park, but
   its entry stays queued: the next [wake_one] takes it (returns true) and
   resumes nothing, and the waiter behind gets the wake after.  Hand-off
   structures (a mutex, a semaphore) lose that hand-off, as they always
   have; a parked process re-queues its entry on each wait. *)
let test_killed_waiter_takes_a_wake () =
  let eng = Engine.create () in
  let q = Waitq.create () and other = Waitq.create () in
  let resumed = ref [] in
  let a =
    Engine.spawn eng ~name:"a" (fun () ->
        ignore (Sync.wait_on q);
        resumed := "a" :: !resumed)
  in
  ignore
    (Engine.spawn eng ~name:"b" (fun () ->
         ignore (Sync.wait_on q);
         resumed := "b" :: !resumed;
         ignore (Sync.wait_on other);
         resumed := "b again" :: !resumed));
  Engine.run eng;
  Alcotest.(check int) "both parked" 2 (Waitq.length q);
  Engine.kill a;
  Engine.run eng;
  Alcotest.(check bool) "a killed" true (Engine.status a = Some Engine.Killed);
  Alcotest.(check int) "a's entry still queued" 2 (Waitq.length q);
  Alcotest.(check bool) "the first wake is taken" true (Waitq.wake_one q);
  Engine.run eng;
  Alcotest.(check (list string)) "and resumes nothing" [] !resumed;
  Alcotest.(check bool) "the second wake is taken" true (Waitq.wake_one q);
  Engine.run eng;
  Alcotest.(check (list string)) "by b" [ "b" ] !resumed;
  Alcotest.(check bool) "q is empty" false (Waitq.wake_one q);
  Alcotest.(check bool) "b waits on the other queue" true (Waitq.wake_one other);
  Engine.run eng;
  Alcotest.(check (list string)) "b resumed again" [ "b again"; "b" ] !resumed

(* {1 Metrics} *)

let test_hist_quantiles () =
  let h = Metrics.Hist.create () in
  for i = 1 to 1000 do
    Metrics.Hist.record h (float_of_int i)
  done;
  let p50 = Metrics.Hist.quantile h 0.5 in
  let p99 = Metrics.Hist.quantile h 0.99 in
  Alcotest.(check bool) "p50 within 10%" true (Float.abs (p50 -. 500.) /. 500. < 0.1);
  Alcotest.(check bool) "p99 within 10%" true (Float.abs (p99 -. 990.) /. 990. < 0.1);
  Alcotest.(check int) "count" 1000 (Metrics.Hist.count h)

let test_series_rate () =
  let s = Metrics.Series.create ~bucket:(Time.sec 1) in
  Metrics.Series.add s ~at:(Time.ms 100) 10.0;
  Metrics.Series.add s ~at:(Time.ms 900) 20.0;
  Metrics.Series.add s ~at:(Time.ms 2500) 5.0;
  match Metrics.Series.buckets s with
  | [ (0, a); (t1, b); (t2, c) ] ->
      Alcotest.(check (float 0.001)) "bucket 0 sum" 30.0 a;
      Alcotest.(check int) "gap bucket at 1s" (Time.sec 1) t1;
      Alcotest.(check (float 0.001)) "gap bucket empty" 0.0 b;
      Alcotest.(check int) "bucket at 2s" (Time.sec 2) t2;
      Alcotest.(check (float 0.001)) "bucket 2 sum" 5.0 c
  | l -> Alcotest.failf "expected 3 buckets, got %d" (List.length l)

(* The HDR estimate must land in the same log bucket as the exact order
   statistic: the walk over sorted buckets stops exactly where the rank-q
   element lives, and value_of_bucket round-trips through bucket_of.  This
   pins the documented ≈9 % (one-bucket) error bound for any data set. *)
let prop_hist_quantile_bucket_exact =
  QCheck.Test.make ~name:"Hist.quantile lands in the exact rank's bucket"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 120) (int_range 1 5_000_000))
        (int_range 0 1000))
    (fun (xs, qi) ->
      let q = float_of_int qi /. 1000.0 in
      let h = Metrics.Hist.create () in
      List.iter (fun x -> Metrics.Hist.record h (float_of_int x)) xs;
      let n = List.length xs in
      let rank =
        Stdlib.max 1
          (Stdlib.min n
             (Float.to_int (Float.round (q *. float_of_int n))))
      in
      let exact =
        List.nth (List.sort compare (List.map float_of_int xs)) (rank - 1)
      in
      Metrics.Hist.bucket_of (Metrics.Hist.quantile h q)
      = Metrics.Hist.bucket_of exact)

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_split_independent () =
  let a = Prng.create ~seed:7 in
  let c = Prng.split a in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int c 1000) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      List.for_all
        (fun _ ->
          let v = Prng.int g bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_prng_float_in_bounds =
  QCheck.Test.make ~name:"Prng.float stays in bounds" ~count:200
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed in
      List.for_all
        (fun _ ->
          let v = Prng.float g 1.0 in
          v >= 0.0 && v < 1.0)
        (List.init 50 Fun.id))

(* {1 Heap} *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Heap pops in priority order" ~count:100
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~filler:0 () in
      List.iteri (fun i x -> Heap.push h ~prio:x ~seq:i x) xs;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc else drain (Heap.pop h :: acc)
      in
      drain [] = List.sort compare xs)

let prop_heap_fifo_ties =
  QCheck.Test.make ~name:"Heap breaks ties by sequence" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let h = Heap.create ~filler:0 () in
      for i = 0 to n - 1 do
        Heap.push h ~prio:5 ~seq:i i
      done;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else begin
          assert (Heap.top_prio h = 5 && Heap.top_seq h = List.length acc);
          drain (Heap.pop h :: acc)
        end
      in
      drain [] = List.init n Fun.id && Heap.top_prio h = max_int)

(* Regression: a popped entry must not stay reachable through a vacated
   slot of the heap's storage, or every fired event's closure (and whatever
   it captures) outlives its firing. *)
let fill_heap h n finalised =
  for i = 1 to n do
    let v = ref i in
    Gc.finalise (fun _ -> incr finalised) v;
    Heap.push h ~prio:(i * 7919 mod n) ~seq:i v
  done

let pop_n h n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Heap.pop h))
  done

let test_heap_pop_releases () =
  let h = Heap.create ~filler:(ref 0) () in
  let finalised = ref 0 in
  fill_heap h 1000 finalised;
  pop_n h 600;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "every popped value collected" 600 !finalised;
  pop_n h 400;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "the rest once popped" 1000 !finalised;
  Alcotest.(check bool) "heap still alive" true (Heap.is_empty (Sys.opaque_identity h))

(* {1 Cancellable timers} *)

let test_timer_fires () =
  let eng = Engine.create () in
  let fired_at = ref None in
  ignore
    (Engine.timer eng ~at:(Time.ms 10) (fun () ->
         fired_at := Some (Engine.now eng)));
  Engine.run eng;
  Alcotest.(check (option int)) "fires at its deadline" (Some (Time.ms 10))
    !fired_at

let test_timer_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.timer eng ~at:(Time.ms 10) (fun () -> fired := true) in
  Engine.schedule eng ~at:(Time.ms 1) (fun () -> Engine.cancel h);
  Engine.run eng;
  Alcotest.(check bool) "cancelled timer never fires" false !fired;
  Alcotest.(check bool) "no longer armed" false (Engine.timer_armed h);
  Alcotest.(check int) "no dead event lingers" 0 (Engine.pending_events eng)

let test_timer_rearm () =
  let eng = Engine.create () in
  let fires = ref [] in
  let h =
    ref (Engine.timer eng ~at:(Time.ms 10) (fun () -> fires := 1 :: !fires))
  in
  Engine.schedule eng ~at:(Time.ms 1) (fun () ->
      Engine.cancel !h;
      h := Engine.timer eng ~at:(Time.ms 20) (fun () -> fires := 2 :: !fires));
  Engine.run eng;
  Alcotest.(check (list int)) "only the re-armed timer fires" [ 2 ] !fires;
  Alcotest.(check int) "clock at the re-armed deadline" (Time.ms 20)
    (Engine.now eng)

let test_timer_heap_interleave () =
  (* Timers and one-shot events at the same instant fire in arming order:
     both sources share one [(at, seq)] key space. *)
  let eng = Engine.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  let at = Time.ms 5 in
  Engine.schedule eng ~at (note "h1");
  ignore (Engine.timer eng ~at (note "t1"));
  Engine.schedule eng ~at (note "h2");
  ignore (Engine.timer eng ~at (note "t2"));
  Engine.run eng;
  Alcotest.(check (list string))
    "same-instant events fire in arming order"
    [ "h1"; "t1"; "h2"; "t2" ]
    (List.rev !log)

let test_timer_overflow_horizon () =
  (* A deadline beyond the wheel's 32^10 ns horizon parks in the overflow
     list and still fires, after nearer timers. *)
  let eng = Engine.create () in
  let log = ref [] in
  let far = Time.sec 20_000_000 in
  ignore (Engine.timer eng ~at:far (fun () -> log := "far" :: !log));
  ignore (Engine.timer eng ~at:(Time.ms 1) (fun () -> log := "near" :: !log));
  Engine.run eng;
  Alcotest.(check (list string)) "order" [ "near"; "far" ] (List.rev !log);
  Alcotest.(check int) "clock at far deadline" far (Engine.now eng)

let test_sleep_until () =
  let a, b =
    run_sim (fun eng ->
        Engine.sleep_until (Time.ms 7);
        let a = Engine.now eng in
        Engine.sleep_until (Time.ms 3);
        (a, Engine.now eng))
  in
  Alcotest.(check int) "wakes at the absolute time" (Time.ms 7) a;
  Alcotest.(check int) "past deadline does not travel back" (Time.ms 7) b

let test_kill_cancels_sleep () =
  (* Regression: killing a sleeping process must cancel its wake-up timer,
     not leave a dead event pending until the sleep would have expired. *)
  let eng = Engine.create () in
  let p =
    Engine.spawn eng ~name:"sleeper" (fun () -> Engine.sleep (Time.sec 3600))
  in
  Engine.run ~until:(Time.ms 1) eng;
  Alcotest.(check bool) "sleep timer pending" true (Engine.pending_events eng > 0);
  Engine.kill p;
  Engine.run ~until:(Time.ms 2) eng;
  Alcotest.(check int) "no dead timer lingers" 0 (Engine.pending_events eng);
  Alcotest.(check bool) "killed" true (Engine.status p = Some Engine.Killed)

let test_with_timeout_timeout () =
  let withdrawn = ref false in
  let o, t =
    run_sim (fun eng ->
        let o =
          Engine.with_timeout ~at:(Time.ms 5) (fun _p _wake () ->
              withdrawn := true)
        in
        (o, Engine.now eng))
  in
  Alcotest.(check bool) "timed out" true (o = `Timeout);
  Alcotest.(check int) "at the deadline" (Time.ms 5) t;
  Alcotest.(check bool) "registration withdrawn" true !withdrawn

let test_with_timeout_done_cancels_timer () =
  let eng = Engine.create () in
  let outcome = ref None in
  ignore
    (Engine.spawn eng (fun () ->
         let o =
           Engine.with_timeout ~at:(Time.sec 3600) (fun p wake ->
               Engine.schedule (Engine.engine_of_proc p) ~at:(Time.ms 2)
                 (fun () -> wake ());
               fun () -> ())
         in
         outcome := Some o));
  Engine.run eng;
  Alcotest.(check bool) "completed" true (!outcome = Some `Done);
  Alcotest.(check int) "deadline timer cancelled" 0 (Engine.pending_events eng);
  Alcotest.(check int) "did not run to the deadline" (Time.ms 2) (Engine.now eng)

let test_twheel_cancel_after_fire () =
  (* Cancelling a timer that already fired must be a no-op: no state change,
     no double decrement of the live count, no effect on later timers. *)
  let w = Twheel.create () in
  let h = Twheel.add w ~at:(Time.ms 1) ~seq:0 "a" in
  ignore (Twheel.add w ~at:(Time.ms 2) ~seq:1 "b");
  Twheel.advance w ~upto:(Time.ms 1);
  Alcotest.(check int) "a due at its deadline" (Time.ms 1) (Twheel.due_at w);
  Alcotest.(check string) "a pops" "a" (Twheel.pop_due w);
  Alcotest.(check bool) "fired handle is not armed" false (Twheel.is_armed h);
  Alcotest.(check int) "one live timer left" 1 (Twheel.live w);
  Twheel.cancel w h;
  Twheel.cancel w h;
  Alcotest.(check int) "cancel-after-fire does not touch live" 1 (Twheel.live w);
  Alcotest.(check bool) "still not armed" false (Twheel.is_armed h);
  Twheel.advance w ~upto:(Time.ms 2);
  Alcotest.(check string) "b pops" "b" (Twheel.pop_due w);
  Alcotest.(check int) "none live" 0 (Twheel.live w);
  Alcotest.(check int) "due heap empty" Time.never (Twheel.due_at w);
  Alcotest.(check int) "no next event" Time.never (Twheel.next_event w)

let test_engine_cancel_after_fire () =
  (* Same at the engine layer: a no-op cancel must not count in the
     cancellation metric either. *)
  let eng = Engine.create () in
  let fired = ref 0 in
  let h = Engine.timer eng ~at:(Time.ms 1) (fun () -> incr fired) in
  Engine.run eng;
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check bool) "not armed after firing" false (Engine.timer_armed h);
  let cancelled () =
    Metrics.Counter.value
      (Metrics.Registry.counter (Engine.metrics eng) "engine.timers_cancelled")
  in
  let before = cancelled () in
  Engine.cancel h;
  Engine.cancel h;
  Alcotest.(check int) "cancel-after-fire not counted" before (cancelled ());
  Alcotest.(check int) "still fired exactly once" 1 !fired

let test_with_timeout_same_tick_wake_first () =
  (* The wake lands at exactly the deadline instant but was armed before
     with_timeout's deadline timer: lower seq fires first, so the waiter
     completes as [`Done] at that instant. *)
  let eng = Engine.create () in
  let q = Waitq.create () in
  let outcome = ref None in
  Engine.schedule eng ~at:(Time.ms 5) (fun () -> ignore (Waitq.wake_one q));
  ignore
    (Engine.spawn eng ~name:"timed" (fun () ->
         let o =
           Engine.with_timeout ~at:(Time.ms 5) (fun _p wake ->
               let entry = Waitq.add q wake in
               fun () -> Waitq.cancel entry)
         in
         outcome := Some (o, Engine.now eng)));
  Engine.run eng;
  Alcotest.(check bool) "wake wins the tie" true
    (!outcome = Some (`Done, Time.ms 5))

let test_with_timeout_same_tick_timer_first () =
  (* The deadline timer fires first at the shared instant; the wake arriving
     later in the same tick must NOT be consumed by the timed-out waiter —
     the withdraw thunk runs synchronously in the timer's event context, so
     the wake falls through to the next (plain) waiter. *)
  let eng = Engine.create () in
  let q = Waitq.create () in
  let timed = ref None in
  let plain_woken = ref false in
  ignore
    (Engine.spawn eng ~name:"timed" (fun () ->
         let o =
           Engine.with_timeout ~at:(Time.ms 5) (fun _p wake ->
               let entry = Waitq.add q wake in
               fun () -> Waitq.cancel entry)
         in
         timed := Some (o, Engine.now eng)));
  ignore
    (Engine.spawn eng ~name:"plain" (fun () ->
         match Sync.wait_on q with
         | `Woken -> plain_woken := true
         | `Timeout -> ()));
  (* Arm the wake from a later event so its seq is higher than the deadline
     timer's: timer first, wake second, same instant. *)
  Engine.schedule eng ~at:(Time.ms 1) (fun () ->
      Engine.schedule eng ~at:(Time.ms 5) (fun () ->
          ignore (Waitq.wake_one q)));
  Engine.run eng;
  Alcotest.(check bool) "waiter timed out at the deadline" true
    (!timed = Some (`Timeout, Time.ms 5));
  Alcotest.(check bool) "same-tick wake not consumed by the loser" true
    !plain_woken

(* {1 Metrics registry} *)

let test_registry_get_or_create () =
  let r = Metrics.Registry.create () in
  Metrics.Counter.incr (Metrics.Registry.counter r "x");
  Metrics.Counter.incr (Metrics.Registry.counter r "x");
  Alcotest.(check int) "same instrument behind the name" 2
    (Metrics.Counter.value (Metrics.Registry.counter r "x"))

let test_registry_kind_mismatch () =
  let r = Metrics.Registry.create () in
  ignore (Metrics.Registry.counter r "x");
  match Metrics.Registry.gauge r "x" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_registry_json () =
  let r = Metrics.Registry.create () in
  Metrics.Counter.add (Metrics.Registry.counter r "b.count") 3;
  Metrics.Gauge.set (Metrics.Registry.gauge r "a.gauge") 1.5;
  Metrics.Hist.record (Metrics.Registry.hist r "c.hist") 100.0;
  ignore (Metrics.Registry.hist r "d.empty");
  let j = Metrics.Registry.to_json r in
  let idx needle =
    let n = String.length needle and m = String.length j in
    let rec find i =
      if i + n > m then Alcotest.failf "%S not in dump:\n%s" needle j
      else if String.sub j i n = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "keys sorted" true
    (idx "a.gauge" < idx "b.count" && idx "b.count" < idx "c.hist");
  Alcotest.(check bool) "gauge value" true
    (idx "\"a.gauge\": 1.5" >= 0);
  Alcotest.(check bool) "counter value" true (idx "\"b.count\": 3" >= 0);
  Alcotest.(check bool) "empty hist serialises as null stats" true
    (idx "\"d.empty\": {\"count\": 0, \"mean\": null" >= 0);
  Alcotest.(check string) "emission is stable" j (Metrics.Registry.to_json r)

let test_registry_sorted_unconditionally () =
  (* The bench-regression gate byte-diffs registry dumps, so key order must
     be plain byte order regardless of insertion order (and must not lean on
     polymorphic compare). *)
  let names =
    [ "z.last"; "a.first"; "m.mid"; "a.a"; "Z.upper"; "a-b"; "a_b"; "a" ]
  in
  let mk order =
    let r = Metrics.Registry.create () in
    List.iter (fun n -> Metrics.Counter.add (Metrics.Registry.counter r n) 1) order;
    r
  in
  Alcotest.(check (list string))
    "names in byte order"
    (List.sort String.compare names)
    (Metrics.Registry.names (mk names));
  Alcotest.(check string) "dump independent of insertion order"
    (Metrics.Registry.to_json (mk names))
    (Metrics.Registry.to_json (mk (List.rev names)))

let test_registry_same_seed_identical () =
  (* Two same-seed runs of a sim that arms, fires, and cancels timers must
     dump byte-identical registries. *)
  let run () =
    let eng = Engine.create ~seed:11 () in
    for _ = 1 to 20 do
      ignore
        (Engine.spawn eng (fun () ->
             Engine.sleep (Time.us (1 + Prng.int (Engine.prng eng) 100))))
    done;
    let h = Engine.timer eng ~at:(Time.sec 1) (fun () -> ()) in
    Engine.schedule eng ~at:(Time.us 5) (fun () -> Engine.cancel h);
    Engine.run eng;
    Metrics.Registry.to_json (Engine.metrics eng)
  in
  Alcotest.(check string) "same seed, same metrics" (run ()) (run ())

let test_hist_edge_cases () =
  let h = Metrics.Hist.create () in
  Alcotest.(check int) "empty count" 0 (Metrics.Hist.count h);
  Alcotest.(check bool) "empty mean is nan" true
    (Float.is_nan (Metrics.Hist.mean h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.Hist.quantile h 0.5));
  Metrics.Hist.record h 42.0;
  Alcotest.(check int) "single count" 1 (Metrics.Hist.count h);
  Alcotest.(check (float 0.0)) "single min" 42.0 (Metrics.Hist.min h);
  Alcotest.(check (float 0.0)) "single max" 42.0 (Metrics.Hist.max h);
  Alcotest.(check (float 0.0)) "single mean" 42.0 (Metrics.Hist.mean h);
  let q0 = Metrics.Hist.quantile h 0.0 in
  let q1 = Metrics.Hist.quantile h 1.0 in
  Alcotest.(check (float 0.0)) "q0 = q1 with one bucket" q1 q0;
  Alcotest.(check bool) "quantile within bucket error" true
    (Float.abs (q0 -. 42.0) /. 42.0 < 0.1)

let test_hist_negative_values () =
  (* Non-positive samples collapse into the min_int bucket, whose
     representative value is 0; min/mean still see the true values. *)
  let h = Metrics.Hist.create () in
  Metrics.Hist.record h (-5.0);
  Alcotest.(check (float 0.0)) "true min kept" (-5.0) (Metrics.Hist.min h);
  Alcotest.(check (float 0.0)) "bucket representative is 0" 0.0
    (Metrics.Hist.quantile h 0.5);
  Metrics.Hist.record h 10.0;
  Alcotest.(check (float 0.0)) "q0 hits the min_int bucket" 0.0
    (Metrics.Hist.quantile h 0.0)

(* {1 Evlog: structured event tracing} *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let mk_evlog ?(cap = 8) () =
  let t = Evlog.create ~cap () in
  let now = ref 0 in
  Evlog.set_clock t (fun () -> !now);
  (t, now)

let test_evlog_ring_overflow () =
  let t, _ = mk_evlog ~cap:8 () in
  let c = Metrics.Counter.create () in
  Evlog.set_dropped_counter t c;
  for i = 1 to 20 do
    Evlog.emit t ~comp:"test" "e" ~args:[ ("i", Evlog.Int i) ]
  done;
  Alcotest.(check int) "emitted counts evicted events too" 20 (Evlog.emitted t);
  Alcotest.(check int) "dropped" 12 (Evlog.dropped t);
  Alcotest.(check bool) "truncated" true (Evlog.truncated t);
  Alcotest.(check int) "drops mirrored to metrics counter" 12
    (Metrics.Counter.value c);
  Alcotest.(check (list int)) "newest [cap] survive, in order"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Evlog.seq) (Evlog.events t));
  let header = List.hd (String.split_on_char '\n' (Evlog.to_jsonl t)) in
  Alcotest.(check bool) "JSONL header records truncation" true
    (contains header "\"dropped\":12" && contains header "\"truncated\":true");
  Alcotest.(check bool) "chrome otherData records truncation" true
    (contains (Evlog.to_chrome t) "\"dropped\":12,\"truncated\":true")

let test_evlog_pin_survives_wrap () =
  let t, _ = mk_evlog ~cap:4 () in
  Evlog.emit t ~pin:true ~comp:"ft.cluster" "failover.detect";
  for _ = 1 to 50 do
    Evlog.emit t ~comp:"test" "noise"
  done;
  let evs = Evlog.events t in
  Alcotest.(check int) "ring plus pinned" 5 (List.length evs);
  Alcotest.(check string) "pinned event survives any wrapping"
    "failover.detect" (List.hd evs).Evlog.name;
  Alcotest.(check int) "pins never count as drops" 46 (Evlog.dropped t)

let test_evlog_spans_and_query () =
  let t, now = mk_evlog ~cap:64 () in
  let sp = Evlog.span_begin t ~comp:"a" "work" ~args:[ ("k", Evlog.Str "v") ] in
  now := Time.ms 3;
  Evlog.span_end t sp;
  Evlog.span_end t sp;
  (* second close ignored *)
  let _orphan = Evlog.span_begin t ~comp:"a" "orphan" in
  let evs = Evlog.events t in
  Alcotest.(check int) "idempotent close: three events" 3 (List.length evs);
  (match Evlog.Query.span_of ~comp:"a" ~name:"work" evs with
  | Some (b, e) ->
      Alcotest.(check int) "begins at 0" 0 b;
      Alcotest.(check int) "ends at 3ms" (Time.ms 3) e
  | None -> Alcotest.fail "closed span not found");
  (match Evlog.Query.pair_spans evs with
  | [ (b1, Some _); (b2, None) ] ->
      Alcotest.(check string) "closed span paired" "work" b1.Evlog.name;
      Alcotest.(check string) "orphan unpaired" "orphan" b2.Evlog.name;
      Alcotest.(check (option string)) "args readable" (Some "v")
        (Evlog.Query.str_arg b1 "k")
  | _ -> Alcotest.fail "unexpected span pairing");
  Alcotest.(check (list (pair string int))) "durations"
    [ ("work", Time.ms 3) ]
    (Evlog.Query.durations ~name:"work" evs)

let test_evlog_subscriber () =
  let t, _ = mk_evlog () in
  let n = ref 0 in
  let tok = Evlog.subscribe t (fun _ -> incr n) in
  Evlog.emit t ~comp:"x" "a";
  Evlog.emit t ~comp:"x" "b";
  Alcotest.(check int) "saw both" 2 !n;
  Evlog.unsubscribe t tok;
  Evlog.emit t ~comp:"x" "c";
  Alcotest.(check int) "none after unsubscribe" 2 !n;
  (* A subscriber's record is, field for field, the one [events] returns
     later: ring and pinned, every kind, wide ints and non-finite floats. *)
  let t, now = mk_evlog ~cap:5 () in
  let seen = Hashtbl.create 16 in
  ignore (Evlog.subscribe t (fun e -> Hashtbl.replace seen e.Evlog.seq e));
  let sp = Evlog.span_begin t ~pin:true ~comp:"x" "phase" in
  for i = 1 to 12 do
    now := !now + i;
    Evlog.emit t ~comp:"x" "e"
      ~args:
        [
          ("i", Evlog.Int (if i land 1 = 0 then max_int - i else i));
          ("f", Evlog.Float (if i land 1 = 0 then Float.nan else -0.0));
          ("b", Evlog.Bool (i > 6));
          ("s", Evlog.Str (string_of_int i));
        ];
    if i = 9 then Evlog.span_end t sp
  done;
  Evlog.counter t ~comp:"x" "c" Float.infinity;
  Evlog.log t ~comp:"x" Evlog.Debug "bye";
  List.iter
    (fun e ->
      match Hashtbl.find_opt seen e.Evlog.seq with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "seq %d: subscriber saw the same record" e.Evlog.seq)
            true
            (compare s e = 0)
      | None -> Alcotest.failf "seq %d never reached the subscriber" e.Evlog.seq)
    (Evlog.events t)

(* Rings whose capacity straddles the ring's 4,096-event storage chunks
   wrap across them and keep the newest [cap] events. *)
let test_evlog_ring_straddles_chunks () =
  List.iter
    (fun cap ->
      let t, _ = mk_evlog ~cap () in
      for _ = 1 to 10_000 do
        Evlog.emit t ~comp:"x" "e"
      done;
      let name = Printf.sprintf "cap %d" cap in
      Alcotest.(check (list int)) (name ^ ": newest kept")
        (List.init cap (fun i -> 10_000 - cap + 1 + i))
        (List.map (fun e -> e.Evlog.seq) (Evlog.events t));
      Alcotest.(check int) (name ^ ": every eviction counted") (10_000 - cap)
        (Evlog.dropped t);
      Alcotest.(check bool) (name ^ ": header reports cap") true
        (contains (Evlog.to_jsonl t) (Printf.sprintf "\"cap\":%d," cap)))
    [ 4101; 4097 ]

let test_evlog_chrome_shape () =
  let t, now = mk_evlog ~cap:64 () in
  let sp = Evlog.span_begin t ~comp:"net.tcp" "connect" in
  now := Time.us 5;
  Evlog.span_end t sp;
  Evlog.counter t ~comp:"net.tcp" "inflight" 3.0;
  Evlog.log t ~comp:"ft.msglayer" Evlog.Warn "be\"ware\n";
  let j = Evlog.to_chrome t in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" (String.escaped needle))
        true (contains j needle))
    [
      "{\"traceEvents\":[";
      "\"ph\":\"M\"";
      "\"args\":{\"name\":\"net.tcp\"}";
      "\"ph\":\"b\"";
      "\"ph\":\"e\"";
      "\"ts\":5.000";
      "\"id\":\"0x1\"";
      "\"ph\":\"C\"";
      "\"level\":\"warn\"";
      "\"msg\":\"be\\\"ware\\n\"";
      "\"truncated\":false";
    ]

let test_engine_lifecycle_events () =
  let eng = Engine.create () in
  let p =
    Engine.spawn eng ~name:"worker" (fun () -> Engine.sleep (Time.sec 10))
  in
  ignore
    (Engine.spawn eng ~name:"killer" (fun () ->
         Engine.sleep (Time.ms 1);
         Engine.kill p));
  Engine.run eng;
  let evs = Evlog.events (Engine.evlog eng) in
  let named n = Evlog.Query.filter ~comp:"sim.engine" ~name:n evs in
  Alcotest.(check int) "two spawns" 2 (List.length (named "proc.spawn"));
  Alcotest.(check int) "one kill" 1 (List.length (named "proc.kill"));
  let exits = named "proc.exit" in
  Alcotest.(check int) "two exits" 2 (List.length exits);
  Alcotest.(check bool) "killed reason recorded" true
    (List.exists
       (fun e -> Evlog.Query.str_arg e "reason" = Some "killed")
       exits)

let test_evlog_detail_gates_park_events () =
  let run detail =
    let eng = Engine.create () in
    Evlog.set_detail (Engine.evlog eng) detail;
    ignore (Engine.spawn eng (fun () -> Engine.sleep (Time.ms 1)));
    Engine.run eng;
    List.length
      (Evlog.Query.filter ~name:"proc.park" (Evlog.events (Engine.evlog eng)))
  in
  Alcotest.(check int) "detail off: no park events" 0 (run false);
  Alcotest.(check bool) "detail on: parks recorded" true (run true > 0)

(* {2 Reference model}

   The plainest storage that meets Evlog's contract, one record per event
   in a queue, with exporters written directly over an event list.  Random
   scripts run through the columnar ring and this model must agree on
   every event, count and export byte. *)

module Ref_log = struct
  open Evlog

  type t = {
    now : int ref;
    cap : int;
    ring : event Queue.t;
    mutable pinned : event list;  (* newest first *)
    mutable next_seq : int;
    mutable next_span : int;
    mutable dropped : int;
  }

  type span = {
    sp_id : int;
    sp_comp : string;
    sp_name : string;
    sp_pin : bool;
    mutable live : bool;
  }

  let create ~now cap =
    { now; cap; ring = Queue.create (); pinned = []; next_seq = 0; next_span = 0;
      dropped = 0 }

  let record t ~pin ~comp ~name ~kind ~span args =
    t.next_seq <- t.next_seq + 1;
    let ev = { seq = t.next_seq; at = !(t.now); comp; name; kind; span; args } in
    if pin then t.pinned <- ev :: t.pinned
    else begin
      if Queue.length t.ring = t.cap then begin
        ignore (Queue.pop t.ring);
        t.dropped <- t.dropped + 1
      end;
      Queue.push ev t.ring
    end

  let emit t ~pin ~comp name args = record t ~pin ~comp ~name ~kind:Instant ~span:0 args

  let span_begin t ~pin ~comp name args =
    t.next_span <- t.next_span + 1;
    record t ~pin ~comp ~name ~kind:Span_begin ~span:t.next_span args;
    { sp_id = t.next_span; sp_comp = comp; sp_name = name; sp_pin = pin; live = true }

  let span_end t sp args =
    if sp.live then begin
      sp.live <- false;
      record t ~pin:sp.sp_pin ~comp:sp.sp_comp ~name:sp.sp_name ~kind:Span_end
        ~span:sp.sp_id args
    end

  let counter t ~comp name v args =
    record t ~pin:false ~comp ~name ~kind:(Counter v) ~span:0 args

  let log t ~comp lvl msg =
    record t ~pin:false ~comp ~name:"log" ~kind:(Log lvl) ~span:0 [ ("msg", Str msg) ]

  let events t =
    List.merge
      (fun a b -> compare a.seq b.seq)
      (List.of_seq (Queue.to_seq t.ring))
      (List.rev t.pinned)

  let buf_add_json_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let buf_add_float b f =
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
    else Buffer.add_string b "null"

  let buf_add_value b = function
    | Int i -> Buffer.add_string b (string_of_int i)
    | Str s -> buf_add_json_string b s
    | Float f -> buf_add_float b f
    | Bool x -> Buffer.add_string b (if x then "true" else "false")

  let buf_add_args b args =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        buf_add_json_string b k;
        Buffer.add_char b ':';
        buf_add_value b v)
      args;
    Buffer.add_char b '}'

  let level_name = function
    | Error -> "error"
    | Warn -> "warn"
    | Info -> "info"
    | Debug -> "debug"

  let kind_name = function
    | Instant -> "instant"
    | Span_begin -> "begin"
    | Span_end -> "end"
    | Counter _ -> "counter"
    | Log _ -> "log"

  let truncated t = if t.dropped > 0 then "true" else "false"

  let to_jsonl t =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"type\":\"header\",\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}\n"
         t.cap t.next_seq t.dropped (truncated t));
    List.iter
      (fun ev ->
        Buffer.add_string b
          (Printf.sprintf "{\"seq\":%d,\"at\":%d,\"comp\":" ev.seq ev.at);
        buf_add_json_string b ev.comp;
        Buffer.add_string b ",\"name\":";
        buf_add_json_string b ev.name;
        Buffer.add_string b ",\"kind\":\"";
        Buffer.add_string b (kind_name ev.kind);
        Buffer.add_char b '"';
        (match ev.kind with
        | Counter v ->
            Buffer.add_string b ",\"value\":";
            buf_add_float b v
        | Log lvl ->
            Buffer.add_string b ",\"level\":\"";
            Buffer.add_string b (level_name lvl);
            Buffer.add_char b '"'
        | _ -> ());
        if ev.span <> 0 then
          Buffer.add_string b (Printf.sprintf ",\"span\":%d" ev.span);
        if ev.args <> [] then begin
          Buffer.add_string b ",\"args\":";
          buf_add_args b ev.args
        end;
        Buffer.add_string b "}\n")
      (events t);
    Buffer.contents b

  let to_chrome t =
    let evs = events t in
    let comps = List.sort_uniq String.compare (List.map (fun e -> e.comp) evs) in
    let pid_of =
      let tbl = Hashtbl.create 16 in
      List.iteri (fun i c -> Hashtbl.replace tbl c (i + 1)) comps;
      fun c -> try Hashtbl.find tbl c with Not_found -> 0
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_char b '\n'
    in
    List.iter
      (fun c ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
             (pid_of c));
        buf_add_json_string b c;
        Buffer.add_string b "}}")
      comps;
    let ts_of at = Printf.sprintf "%.3f" (float_of_int at /. 1000.) in
    List.iter
      (fun ev ->
        sep ();
        let pid = pid_of ev.comp in
        let common ph =
          Buffer.add_string b
            (Printf.sprintf "{\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"name\":"
               ph (ts_of ev.at) pid);
          buf_add_json_string b ev.name
        in
        (match ev.kind with
        | Instant | Log _ ->
            common "i";
            Buffer.add_string b ",\"s\":\"t\"";
            let args =
              match ev.kind with
              | Log lvl -> ("level", Str (level_name lvl)) :: ev.args
              | _ -> ev.args
            in
            if args <> [] then begin
              Buffer.add_string b ",\"args\":";
              buf_add_args b args
            end
        | Span_begin | Span_end ->
            common (match ev.kind with Span_begin -> "b" | _ -> "e");
            Buffer.add_string b ",\"cat\":";
            buf_add_json_string b ev.comp;
            Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" ev.span);
            if ev.args <> [] then begin
              Buffer.add_string b ",\"args\":";
              buf_add_args b ev.args
            end
        | Counter v ->
            common "C";
            Buffer.add_string b ",\"args\":{\"value\":";
            buf_add_float b v;
            Buffer.add_char b '}');
        Buffer.add_char b '}')
      evs;
    Buffer.add_string b
      (Printf.sprintf
         "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}}\n"
         t.cap t.next_seq t.dropped (truncated t));
    Buffer.contents b
end

(* A string as a script names it: [fresh] strings are rebuilt at each use,
   so they equal a literal in content but never physically. *)
type e_str = { s : string; fresh : bool }

type e_op =
  | E_emit of bool * e_str * e_str * (e_str * e_val) list
  | E_begin of bool * e_str * e_str * (e_str * e_val) list
  | E_end of int * (e_str * e_val) list  (* an already-opened span, maybe closed *)
  | E_counter of e_str * e_str * float * (e_str * e_val) list
  | E_log of e_str * Evlog.level * e_str
  | E_burst of int * (e_str * e_val) list  (* [n] ring events that wrap *)
  | E_big of int  (* one event with more than 4,096 arg words *)
  | E_tick of int

and e_val = V_int of int | V_float of float | V_bool of bool | V_str of e_str

let e_caps =
  [ 1; 2; 3; 5; 64; 1000; 4095; 4096; 4097; 5000; 8191; 8192; 8193; 9000 ]

let e_cap_gen = QCheck.Gen.(oneof [ oneofl e_caps; int_range 1 9000 ])

let e_str_gen =
  QCheck.Gen.(
    map2
      (fun s fresh -> { s; fresh })
      (oneof
         [
           oneofl
             [ ""; "ft.det"; "net.tcp"; "tuple.emit"; "lsn"; "q\"uote"; "back\\slash";
               "ctl\001\n\r\t\031\127"; "hi\128\255\xc3\xa9"; "k" ];
           string_size ~gen:char (int_range 0 6);
         ])
      bool)

(* Ints on both sides of the 40-bit inline width, and the extremes. *)
let e_int_gen =
  QCheck.Gen.(
    oneof
      [
        int;
        small_signed_int;
        oneofl
          [ 0; 1; -1; 1 lsl 39; (1 lsl 39) - 1; -(1 lsl 39); -(1 lsl 39) - 1;
            (1 lsl 39) + 1; min_int; max_int; min_int + 1; max_int - 1 ];
      ])

let e_float_gen =
  QCheck.Gen.(
    oneof [ float; oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1.5 ] ])

let e_val_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> V_int i) e_int_gen);
        (2, map (fun f -> V_float f) e_float_gen);
        (1, map (fun b -> V_bool b) bool);
        (2, map (fun s -> V_str s) e_str_gen);
      ])

let e_args_gen = QCheck.Gen.(list_size (int_range 0 4) (pair e_str_gen e_val_gen))

let e_names_gen = QCheck.Gen.pair e_str_gen e_str_gen

let e_op_gen =
  QCheck.Gen.(
    frequency
      [
        (* One emit in six and one span in four is pinned. *)
        (6, map3 (fun p (c, n) a -> E_emit (p = 0, c, n, a)) (int_bound 5) e_names_gen e_args_gen);
        (2, map3 (fun p (c, n) a -> E_begin (p = 0, c, n, a)) (int_bound 3) e_names_gen e_args_gen);
        (2, map2 (fun i a -> E_end (i, a)) nat e_args_gen);
        (1, map3 (fun (c, n) v a -> E_counter (c, n, v, a)) e_names_gen e_float_gen e_args_gen);
        ( 1,
          map3
            (fun c l m -> E_log (c, l, m))
            e_str_gen
            (oneofl Evlog.[ Error; Warn; Info; Debug ])
            e_str_gen );
        (1, map2 (fun n a -> E_burst (n, a)) (int_range 1 10_000) e_args_gen);
        (2, map (fun d -> E_tick d) (int_range 0 1_000_000));
      ])

(* Most scripts are short op lists; one in ten also carries a giant event. *)
let e_script_gen =
  QCheck.Gen.(
    map3
      (fun cap ops big -> (cap, match big with Some n -> ops @ [ E_big n ] @ ops | None -> ops))
      e_cap_gen
      (list_size (int_range 0 40) e_op_gen)
      (frequency [ (9, return None); (1, map Option.some (int_range 4097 4400)) ]))

let e_string { s; fresh } = if fresh then Bytes.to_string (Bytes.of_string s) else s

let e_value = function
  | V_int i -> Evlog.Int i
  | V_float f -> Evlog.Float f
  | V_bool b -> Evlog.Bool b
  | V_str s -> Evlog.Str (e_string s)

let e_args = List.map (fun (k, v) -> (e_string k, e_value v))

(* One arg of every shape per step, so the words outnumber the args. *)
let e_big_args n =
  List.init n (fun j ->
      let k = [| "i"; "w"; "f"; "s"; "b" |].(j mod 5) in
      ( k,
        match j mod 5 with
        | 0 -> Evlog.Int j
        | 1 -> Evlog.Int (max_int - j)
        | 2 -> Evlog.Float (float_of_int j /. 7.)
        | 3 -> Evlog.Str (string_of_int j)
        | _ -> Evlog.Bool (j land 8 = 0) ))

(* The writer's form of [emit ~args] and [span_begin ~args]: one call per
   arg. *)
let e_put t (k, v) =
  match v with
  | Evlog.Int i -> Evlog.arg_int t k i
  | Evlog.Str s -> Evlog.arg_str t k s
  | Evlog.Float f -> Evlog.arg_float t k f
  | Evlog.Bool b -> Evlog.arg_bool t k b

let e_write t ~comp name args =
  Evlog.begin_instant t ~comp name;
  List.iter (e_put t) args;
  Evlog.close t

let e_write_span t ~comp name args =
  let sp = Evlog.begin_span t ~comp name in
  List.iter (e_put t) args;
  Evlog.close t;
  sp

(* Run a script through the log and the model side by side; return the
   log, the model and what the log's subscriber saw, by seq.  With
   [~writer:true], every ring instant and span begin goes through the
   writer. *)
let e_run ?(writer = false) (cap, ops) =
  let now = ref 0 in
  let t = Evlog.create ~cap () in
  Evlog.set_clock t (fun () -> !now);
  let m = Ref_log.create ~now cap in
  let seen = Hashtbl.create 64 in
  ignore (Evlog.subscribe t (fun e -> Hashtbl.replace seen e.Evlog.seq e));
  let spans = ref [||] in
  List.iter
    (function
      | E_emit (pin, c, n, a) ->
          let c = e_string c and n = e_string n and a = e_args a in
          if writer && not pin then e_write t ~comp:c n a
          else Evlog.emit t ~pin ~args:a ~comp:c n;
          Ref_log.emit m ~pin ~comp:c n a
      | E_begin (pin, c, n, a) ->
          let c = e_string c and n = e_string n and a = e_args a in
          let sp =
            if writer && not pin then e_write_span t ~comp:c n a
            else Evlog.span_begin t ~pin ~args:a ~comp:c n
          in
          let msp = Ref_log.span_begin m ~pin ~comp:c n a in
          spans := Array.append !spans [| (sp, msp) |]
      | E_end (i, a) ->
          let n = Array.length !spans in
          if n > 0 then begin
            let sp, msp = !spans.(i mod n) and a = e_args a in
            Evlog.span_end t ~args:a sp;
            Ref_log.span_end m msp a
          end
      | E_counter (c, n, v, a) ->
          let c = e_string c and n = e_string n and a = e_args a in
          Evlog.counter t ~args:a ~comp:c n v;
          Ref_log.counter m ~comp:c n v a
      | E_log (c, lvl, msg) ->
          let c = e_string c and msg = e_string msg in
          Evlog.log t ~comp:c lvl msg;
          Ref_log.log m ~comp:c lvl msg
      | E_burst (k, a) ->
          for _ = 1 to k do
            let a = e_args a in
            if writer then e_write t ~comp:"burst" "b" a
            else Evlog.emit t ~args:a ~comp:"burst" "b";
            Ref_log.emit m ~pin:false ~comp:"burst" "b" a;
            incr now
          done
      | E_big n ->
          let a = e_big_args n in
          if writer then e_write t ~comp:"big" "event" a
          else Evlog.emit t ~args:a ~comp:"big" "event";
          Ref_log.emit m ~pin:false ~comp:"big" "event" a
      | E_tick d -> now := !now + d)
    ops;
  (t, m, seen)

(* Where the log and the model disagree on a script, or [None]. *)
let e_disagreement ?writer script =
  let t, m, seen = e_run ?writer script in
  let evs = Evlog.events t in
  let checks =
    [
      ("events", compare evs (Ref_log.events m) = 0);
      ("emitted", Evlog.emitted t = m.Ref_log.next_seq);
      ("dropped", Evlog.dropped t = m.Ref_log.dropped);
      ("truncated", Evlog.truncated t = (m.Ref_log.dropped > 0));
      ("capacity", Evlog.capacity t = m.Ref_log.cap);
      ( "subscriber records",
        List.for_all (fun e -> compare (Hashtbl.find_opt seen e.Evlog.seq) (Some e) = 0) evs );
      ("jsonl", Evlog.to_jsonl t = Ref_log.to_jsonl m);
      ("chrome", Evlog.to_chrome t = Ref_log.to_chrome m);
    ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

let prop_evlog_matches_model =
  QCheck.Test.make ~name:"columnar ring matches the record model" ~count:200
    (QCheck.make e_script_gen)
    (fun script -> e_disagreement script = None)

(* A script that reaches every corner the generator is asked to reach,
   run every time. *)
let test_evlog_model_corners () =
  let lit s = { s; fresh = false } and fresh s = { s; fresh = true } in
  let odd =
    [
      (lit "", V_str (lit ""));
      (fresh "lsn", V_int (1 lsl 39));
      (lit "lsn", V_int ((1 lsl 39) - 1));
      (lit "w", V_int (-(1 lsl 39) - 1));
      (lit "lo", V_int min_int);
      (lit "hi", V_int max_int);
      (lit "nan", V_float Float.nan);
      (lit "inf", V_float Float.neg_infinity);
      (lit "z", V_float (-0.0));
      (lit "b", V_bool true);
      (lit "q\"\\", V_str (lit "ctl\001\031\128\255"));
    ]
  in
  (* One script at each capacity the corners need: 4,096, which the pin
     and the first burst fill exactly, its neighbours across a chunk
     boundary, a one-event ring and one wider than two chunks. *)
  let ops =
    [
      E_emit (true, lit "ft.cluster", lit "pin", odd);
      E_burst (4095, [ (lit "i", V_int 1) ]);
      E_begin (false, fresh "ft.det", lit "section", odd);
      E_burst (2, odd);
      E_big 4200;
      E_counter (lit "", lit "", Float.nan, []);
      E_log (fresh "", Evlog.Error, lit "");
      E_log (lit "x", Evlog.Warn, lit "w");
      E_log (lit "x", Evlog.Info, lit "i");
      E_log (lit "x", Evlog.Debug, lit "d");
      E_burst (9000, odd);
      E_end (0, odd);
      E_emit (false, lit "a", lit "b", odd);
      E_burst (5000, []);
      E_begin (true, lit "ft.cluster", lit "failover.detect", []);
      E_end (1, [ (lit "x", V_str (fresh "y")) ]);
    ]
  in
  List.iter
    (fun cap ->
      Alcotest.(check (option string))
        (Printf.sprintf "agrees with the model at cap %d" cap)
        None
        (e_disagreement (cap, ops)))
    [ 4096; 4097; 1; 9000; 4095 ];
  (* After one Int-only event, every event writes one word and one string,
     so word 4,096 (a word chunk's first) carries string 4,095 (a string
     chunk's last).  The oldest of the 100 retained events is that one. *)
  let aligned =
    ( 100,
      [
        E_emit (false, lit "c", lit "n", [ (lit "i", V_int 1) ]);
        E_burst (4195, [ (lit "s", V_str (lit "v")) ]);
      ] )
  in
  Alcotest.(check (option string)) "string at a word-chunk boundary" None
    (e_disagreement aligned)

(* {2 Memory behaviour} *)

(* Retained events hold no pointers, so a minor collection promotes
   nothing of them. *)
let test_evlog_no_promotion () =
  let t = Evlog.create () in
  let n = 100_000 in
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to n do
    Evlog.emit t ~comp:"test" "e"
      ~args:[ ("a", Evlog.Int i); ("b", Evlog.Int (i * 3)); ("c", Evlog.Int (-i)) ]
  done;
  Gc.minor ();
  let per_event = ((Gc.quick_stat ()).Gc.promoted_words -. p0) /. float_of_int n in
  Alcotest.(check int) "all retained" n (List.length (Evlog.events t));
  if per_event > 1.0 then
    Alcotest.failf "%.2f promoted words per retained event (at most 1)" per_event

(* A wrapping ring of unique strings, as [Trace] lines are, holds what its
   window holds: no interned values, no leaked chunks. *)
let test_evlog_bounded_under_wrap () =
  let t = Evlog.create ~cap:1024 () in
  let feed lo hi =
    for i = lo to hi do
      Evlog.log t ~comp:"test.trace" Evlog.Info (Printf.sprintf "line %d" i)
    done
  in
  feed 1 20_000;
  let w20k = Obj.reachable_words (Obj.repr t) in
  feed 20_001 200_000;
  let w200k = Obj.reachable_words (Obj.repr t) in
  if float_of_int w200k > 1.5 *. float_of_int w20k then
    Alcotest.failf "log grew from %d words at 20k events to %d at 200k" w20k w200k

(* [write_file] streams what [to_jsonl]/[to_chrome] return, byte for byte,
   past several flushes of its buffer. *)
let test_evlog_write_file_streams () =
  let t, now = mk_evlog ~cap:3000 () in
  for i = 1 to 12_000 do
    now := !now + 7;
    if i mod 1000 = 0 then
      Evlog.emit t ~pin:true ~comp:"ft.cluster" "phase" ~args:[ ("i", Evlog.Int i) ];
    Evlog.emit t ~comp:(if i land 1 = 0 then "a" else "b") "e"
      ~args:[ ("i", Evlog.Int i); ("s", Evlog.Str (string_of_int i)) ]
  done;
  Alcotest.(check bool) "wrapped" true (Evlog.truncated t);
  let read path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun (format, want) ->
      let path = Filename.temp_file "evlog" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Evlog.write_file t ~format path;
          let got = read path in
          Alcotest.(check bool) "export is past one flush" true (String.length got > 65536);
          Alcotest.(check bool) "file equals the string export" true (got = want)))
    [ (`Jsonl, Evlog.to_jsonl t); (`Chrome, Evlog.to_chrome t) ]

(* An event with more args than a slot can count is refused whole: no seq,
   no span id, no subscriber call, nothing stored, and a refused end leaves
   its span open. *)
let test_evlog_refuses_oversized_event () =
  let t, _ = mk_evlog () in
  let heard = ref 0 in
  ignore (Evlog.subscribe t (fun _ -> incr heard));
  Evlog.emit t ~comp:"x" "before";
  let huge = List.init (1 lsl 19) (fun i -> ("k", Evlog.Int i)) in
  Alcotest.check_raises "emit refused"
    (Invalid_argument "Evlog: event has too many args, or the vocabulary is full")
    (fun () -> Evlog.emit t ~comp:"x" "huge" ~args:huge);
  Alcotest.check_raises "span refused"
    (Invalid_argument "Evlog: event has too many args, or the vocabulary is full")
    (fun () -> ignore (Evlog.span_begin t ~comp:"x" "huge" ~args:huge));
  let sp = Evlog.span_begin t ~comp:"x" "after" in
  Alcotest.check_raises "span end refused"
    (Invalid_argument "Evlog: event has too many args, or the vocabulary is full")
    (fun () -> Evlog.span_end t ~args:huge sp);
  Evlog.span_end t sp;
  Alcotest.(check int) "only recorded events are counted" 3 (Evlog.emitted t);
  Alcotest.(check int) "subscriber heard only those" 3 !heard;
  Alcotest.(check (list (pair int int))) "seqs and span ids stay dense"
    [ (1, 0); (2, 1); (3, 1) ]
    (List.map (fun e -> (e.Evlog.seq, e.Evlog.span)) (Evlog.events t))

(* {2 The writer} *)

let prop_evlog_writer_matches_model =
  QCheck.Test.make ~name:"the writer matches the record model" ~count:200
    (QCheck.make e_script_gen)
    (fun script -> e_disagreement ~writer:true script = None)

(* An instant with four int args, written arg by arg into a ring that has
   wrapped, allocates nothing: the [~args] list it replaces costs 34 words. *)
let test_evlog_writer_allocates_nothing () =
  let t, now = mk_evlog ~cap:4096 () in
  let instant i =
    Evlog.begin_instant t ~comp:"ft.det" "tuple.emit";
    Evlog.arg_int t "ft_pid" i;
    Evlog.arg_int t "thread_seq" (i * 3);
    Evlog.arg_int t "channel" (-i);
    Evlog.arg_int t "chan_seq" (i lsl 41);
    Evlog.close t
  in
  for i = 1 to 20_000 do
    now := i;
    instant i
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    instant i
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "wrapped" true (Evlog.truncated t);
  if per_event > 1.0 then
    Alcotest.failf "%.2f words per 4-arg instant (at most 1)" per_event

(* A subscriber that emits records after the event it was handed; a second
   event opened while one is half-built is refused and the first survives. *)
let test_evlog_writer_nesting () =
  let t, _ = mk_evlog ~cap:64 () in
  ignore
    (Evlog.subscribe t (fun e ->
         if e.Evlog.name = "outer" then begin
           Evlog.begin_instant t ~comp:"sub" "inner";
           Evlog.arg_int t "of" e.Evlog.seq;
           Evlog.close t
         end));
  Evlog.begin_instant t ~comp:"x" "outer";
  Evlog.arg_int t "a" 1;
  Evlog.arg_str t "s" "v";
  Evlog.close t;
  Evlog.emit t ~comp:"x" "outer" ~args:[ ("a", Evlog.Int 2) ];
  Evlog.begin_instant t ~comp:"x" "half";
  Evlog.arg_int t "a" 3;
  Alcotest.check_raises "nested open refused"
    (Invalid_argument "Evlog: an event is already open") (fun () ->
      Evlog.emit t ~comp:"x" "nested");
  Alcotest.check_raises "nested pin refused"
    (Invalid_argument "Evlog: an event is already open") (fun () ->
      Evlog.emit t ~pin:true ~comp:"x" "nested");
  Evlog.arg_str t "b" "w";
  Evlog.close t;
  Alcotest.check_raises "close with nothing open"
    (Invalid_argument "Evlog: no event is open") (fun () -> Evlog.close t);
  Alcotest.(check bool) "seq order, args intact" true
    (List.map (fun e -> Evlog.(e.seq, e.name, e.args)) (Evlog.events t)
    = Evlog.
        [
          (1, "outer", [ ("a", Int 1); ("s", Str "v") ]);
          (2, "inner", [ ("of", Int 1) ]);
          (3, "outer", [ ("a", Int 2) ]);
          (4, "inner", [ ("of", Int 3) ]);
          (5, "half", [ ("a", Int 3); ("b", Str "w") ]);
        ])

(* Fill the vocabulary to its 2^20 strings, then emit an event that needs
   one more and one whose strings are all known, on both paths: each
   refuses the first whole, records the second, and they agree byte for
   byte. *)
let test_evlog_full_vocabulary () =
  let per_event = (1 lsl 19) - 1 in
  (* "c", "n" and the keys make 2^20. *)
  let keys = Array.init (2 * per_event) (fun i -> "k" ^ string_of_int i) in
  let run emit =
    let t, now = mk_evlog ~cap:4 () in
    let heard = ref 0 in
    let fill lo =
      Evlog.begin_instant t ~comp:"c" "n";
      for i = 0 to per_event - 1 do
        Evlog.arg_int t keys.(lo + i) i
      done;
      Evlog.close t
    in
    fill 0;
    fill per_event;
    ignore (Evlog.subscribe t (fun _ -> incr heard));
    for i = 1 to 4 do
      now := i;
      emit t ~comp:"c" "n" [ (keys.(i), Evlog.Int i) ]
    done;
    let before = Evlog.to_jsonl t in
    let refused what f =
      match f () with
      | () -> Alcotest.failf "%s: recorded past a full vocabulary" what
      | exception Invalid_argument _ -> ()
    in
    refused "new key" (fun () ->
        emit t ~comp:"c" "n"
          [ (keys.(0), Evlog.Str "kept?"); ("fresh", Evlog.Int 1) ]);
    refused "new comp" (fun () -> emit t ~comp:"fresh" "n" []);
    refused "new name" (fun () -> emit t ~comp:"c" "fresh" []);
    Alcotest.(check string) "refusals recorded nothing" before (Evlog.to_jsonl t);
    Alcotest.(check int) "subscriber heard only recorded events" 4 !heard;
    now := 9;
    emit t ~comp:"c" "n"
      [ (keys.(0), Evlog.Str "a new value"); (keys.(1), Evlog.Float 0.5) ];
    (Evlog.emitted t, Evlog.to_jsonl t, Evlog.to_chrome t)
  in
  let list_path = run (fun t ~comp name args -> Evlog.emit t ~args ~comp name) in
  Gc.compact ();
  let writer_path = run e_write in
  let emitted, _, _ = list_path in
  Alcotest.(check int) "known strings recorded" 7 emitted;
  Alcotest.(check bool) "both paths agree" true (list_path = writer_path)

(* {1 Trace: per-component level filtering into the event log} *)

let test_trace_levels_and_ring () =
  Trace.reset_levels ();
  let eng = Engine.create () in
  let lg = Trace.make "test.comp" in
  let other = Trace.make "test.other" in
  Trace.infof lg ~eng "invisible %d" 1;
  Alcotest.(check int) "default Off: nothing recorded" 0
    (List.length (Evlog.events (Engine.evlog eng)));
  Trace.set_level ~component:"test.comp" Trace.Info;
  Trace.infof lg ~eng "visible %d" 2;
  Trace.debugf lg ~eng "below the component level";
  Trace.infof other ~eng "other component still off";
  (match Evlog.Query.filter ~name:"log" (Evlog.events (Engine.evlog eng)) with
  | [ e ] ->
      Alcotest.(check string) "component tag" "test.comp" e.Evlog.comp;
      Alcotest.(check (option string)) "formatted message" (Some "visible 2")
        (Evlog.Query.str_arg e "msg")
  | l -> Alcotest.failf "expected exactly 1 log event, got %d" (List.length l));
  Trace.set_level Trace.Error;
  Alcotest.(check bool) "component override beats the default" true
    (Trace.get_level ~component:"test.comp" () = Trace.Info);
  Alcotest.(check bool) "default applies to others" true
    (Trace.get_level ~component:"test.other" () = Trace.Error);
  Trace.reset_levels ()

let test_trace_level_of_string () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) s true (Trace.level_of_string s = want))
    [
      ("off", Some Trace.Off);
      ("ERROR", Some Trace.Error);
      ("Warn", Some Trace.Warn);
      ("warning", Some Trace.Warn);
      ("info", Some Trace.Info);
      ("debug", Some Trace.Debug);
      ("bogus", None);
    ]

(* {1 Trace determinism: same seed, byte-identical export} *)

let trace_of_cluster_run seed =
  let module C = Ftsim_ftlinux.Cluster in
  let module Api = Ftsim_ftlinux.Api in
  let module Pthread = Ftsim_kernel.Pthread in
  let eng = Engine.create ~seed () in
  let config =
    {
      C.default_config with
      C.topology = Ftsim_hw.Topology.small;
      hb_period = Time.ms 5;
      hb_timeout = Time.ms 25;
    }
  in
  let app (api : Api.t) =
    let pt = api.Api.pt in
    let m = Pthread.mutex_create pt in
    let ths =
      List.init 2 (fun w ->
          api.Api.thread.spawn (Printf.sprintf "w%d" w) (fun () ->
              for i = 1 to 10 do
                api.Api.thread.compute (Time.us (10 + (w * 7) + i));
                Pthread.mutex_lock pt m;
                Pthread.mutex_unlock pt m
              done))
    in
    List.iter api.Api.thread.join ths
  in
  let cluster = C.create eng ~config ~app () in
  (* The replication stack draws no randomness by itself; a noise process
     folds PRNG draws into the trace so seed-sensitivity is observable. *)
  ignore
    (Engine.spawn eng ~name:"noise" (fun () ->
         for _ = 1 to 5 do
           Engine.sleep (Time.us (1 + Prng.int (Engine.prng eng) 500));
           Evlog.emit (Engine.evlog eng) ~comp:"test.noise" "tick"
             ~args:[ ("draw", Evlog.Int (Prng.int (Engine.prng eng) 1_000_000)) ]
         done));
  Engine.run ~until:(Time.ms 500) eng;
  C.shutdown cluster;
  Evlog.to_jsonl (Engine.evlog eng)

(* {1 Output sink}

   Console lines are domain-local: redirecting the sink captures what a
   worker domain would print, and [reset] restores stderr without
   affecting anything another domain set up. *)

let test_sink_redirect () =
  let captured = ref [] in
  Sink.set (fun l -> captured := l :: !captured);
  Fun.protect ~finally:Sink.reset (fun () ->
      Sink.line "first";
      Sink.line "second");
  Alcotest.(check (list string)) "captured in order" [ "first"; "second" ]
    (List.rev !captured);
  let after_reset = ref [] in
  Sink.set (fun l -> after_reset := l :: !after_reset);
  Fun.protect ~finally:Sink.reset (fun () ->
      let d =
        Domain.spawn (fun () ->
            (* A fresh domain starts on stderr, not on this domain's
               redirect; its own redirect stays local to it. *)
            let mine = ref [] in
            Sink.set (fun l -> mine := l :: !mine);
            Sink.line "worker";
            List.rev !mine)
      in
      Alcotest.(check (list string)) "worker redirect is domain-local"
        [ "worker" ] (Domain.join d);
      Sink.line "coordinator");
  Alcotest.(check (list string)) "coordinator sink unaffected by worker"
    [ "coordinator" ] (List.rev !after_reset)

let test_sink_statsdump_routing () =
  let eng = Engine.create ~seed:3 () in
  let captured = ref [] in
  Sink.set (fun l -> captured := l :: !captured);
  Fun.protect ~finally:Sink.reset (fun () ->
      Statsdump.arm eng ~every:(Time.ms 100) ~label:"sinktest";
      Engine.run ~until:(Time.ms 250) eng);
  Alcotest.(check bool) "periodic stats lines went to the sink" true
    (List.length !captured >= 2
    && List.for_all
         (fun l -> String.length l > 0 && l.[0] = '[')
         !captured)

let test_trace_same_seed_identical () =
  Alcotest.(check string) "byte-identical JSONL"
    (trace_of_cluster_run 21) (trace_of_cluster_run 21)

let test_trace_seed_sensitive () =
  Alcotest.(check bool) "different seed, different trace" true
    (trace_of_cluster_run 21 <> trace_of_cluster_run 22)

(* {1 Event dispatch} *)

(* {2 Dispatch order against a reference model}

   A random script arms heap events and timers (some while firing), cancels
   timers, stops the run from inside an event and drives the engine through
   random [run ~until] slices.  The reference model keeps every armed entry
   in a list and fires the live one with the smallest [(at, seq)]; the
   engine's firing sequence and its clock after every slice must match.
   A final phase restarts [run] after every stop until nothing is left. *)

type d_spec = { d_heap : bool; d_delay : int; d_acts : d_act list }
and d_act = D_arm of d_spec | D_cancel of int | D_stop

type d_step = { d_arms : d_spec list; d_until : int option }

let d_delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (4, int_range 0 40);
        (3, int_range 0 5_000);
        (* Slot and level boundaries of the wheel, and either side of them. *)
        (3, map2 (fun k d -> max 0 ((1 lsl (5 * k)) + d)) (int_range 1 10) (int_range (-1) 1));
        (2, int_range 0 (1 lsl 40));
        (* Past the wheel's 32^10 ns horizon: the overflow list. *)
        (1, int_range (1 lsl 50) (1 lsl 52));
      ])

let d_spec_gen =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let leaf =
             [ (2, map (fun i -> D_cancel i) small_nat); (1, return D_stop) ]
           in
           let act =
             frequency
               (if depth = 0 then leaf
                else (3, map (fun s -> D_arm s) (self (depth - 1))) :: leaf)
           in
           map3
             (fun d_heap d_delay d_acts -> { d_heap; d_delay; d_acts })
             bool d_delay_gen (list_size (int_range 0 4) act)))

let d_script_gen =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (map2
         (fun d_arms d_until -> { d_arms; d_until })
         (list_size (int_range 0 8) d_spec_gen)
         (opt d_delay_gen)))

(* Both interpreters number entries in arming order, so ids and cancel
   targets agree; the model also mirrors the engine's one [seq] counter. *)
type d_entry = {
  e_id : int;
  e_at : int;
  e_seq : int;
  e_spec : d_spec;
  mutable e_live : bool;
}

(* The model: a flat list of entries, fired by smallest live [(at, seq)]. *)
let d_model script =
  let now = ref 0 and seq = ref 0 and next_id = ref 0 in
  let entries = ref [] and timers = ref [||] in
  let log = ref [] and nows = ref [] and stopping = ref false in
  let arm spec =
    incr seq;
    let e =
      { e_id = !next_id; e_at = !now + spec.d_delay; e_seq = !seq; e_spec = spec;
        e_live = true }
    in
    incr next_id;
    entries := e :: !entries;
    if not spec.d_heap then timers := Array.append !timers [| e |]
  in
  let act = function
    | D_arm s -> arm s
    | D_cancel i ->
        let ts = !timers in
        if Array.length ts > 0 then ts.(i mod Array.length ts).e_live <- false
    | D_stop -> stopping := true
  in
  let run until =
    stopping := false;
    let rec loop () =
      if not !stopping then begin
        let best =
          List.fold_left
            (fun b e ->
              if not e.e_live then b
              else
                match b with
                | Some b when (b.e_at, b.e_seq) < (e.e_at, e.e_seq) -> Some b
                | _ -> Some e)
            None !entries
        in
        match best with
        | None -> ()
        | Some e when e.e_at > until -> if until > !now then now := until
        | Some e ->
            e.e_live <- false;
            if e.e_at > !now then now := e.e_at;
            log := (e.e_id, !now) :: !log;
            List.iter act e.e_spec.d_acts;
            loop ()
      end
    in
    loop ();
    nows := !now :: !nows
  in
  List.iter
    (fun st ->
      List.iter arm st.d_arms;
      run (match st.d_until with Some d -> !now + d | None -> max_int))
    script;
  (* Drain, restarting after every stop. *)
  while List.exists (fun e -> e.e_live) !entries do
    run max_int
  done;
  (List.rev !log, List.rev !nows)

let d_engine script =
  let eng = Engine.create ~evlog_cap:16 () in
  let next_id = ref 0 and timers = ref [||] in
  let log = ref [] and nows = ref [] in
  let rec arm spec =
    let id = !next_id in
    incr next_id;
    let at = Engine.now eng + spec.d_delay in
    let body () =
      log := (id, Engine.now eng) :: !log;
      List.iter act spec.d_acts
    in
    if spec.d_heap then Engine.schedule eng ~at body
    else timers := Array.append !timers [| Engine.timer eng ~at body |]
  and act = function
    | D_arm s -> arm s
    | D_cancel i ->
        let ts = !timers in
        if Array.length ts > 0 then Engine.cancel ts.(i mod Array.length ts)
    | D_stop -> Engine.stop eng
  in
  List.iter
    (fun st ->
      List.iter arm st.d_arms;
      (match st.d_until with
      | Some d -> Engine.run ~until:(Engine.now eng + d) eng
      | None -> Engine.run eng);
      nows := Engine.now eng :: !nows)
    script;
  (* Every restart must fire something; one that does not ends the drain
     (and fails the comparison) instead of spinning. *)
  let rec drain () =
    if Engine.pending_events eng > 0 then begin
      let fired = List.length !log in
      Engine.run eng;
      nows := Engine.now eng :: !nows;
      if List.length !log > fired then drain ()
    end
  in
  drain ();
  (List.rev !log, List.rev !nows)

let prop_dispatch_matches_model =
  QCheck.Test.make ~name:"dispatch order matches the (at, seq) model" ~count:500
    (QCheck.make d_script_gen)
    (fun script -> d_engine script = d_model script)

(* {2 Dispatch cost}

   [Engine.run] allocates nothing per event, heap event or timer: a timer's
   cascades relink its handle from slot to slot.  OCaml 5.1 on 64 bits
   measures 0.001 words per heap event and 0.004 per timer (a list cell
   per cascade level made that 8.3).  A bound of one word fails a cell,
   box or closure added back per event or per cascade. *)
let words_per_event ~heap ~timers =
  let eng = Engine.create ~evlog_cap:16 () in
  for i = 1 to heap do
    Engine.schedule eng ~at:(i * 7) ignore
  done;
  for i = 1 to timers do
    ignore (Engine.timer eng ~at:(i * 13) ignore)
  done;
  let fired () =
    Metrics.Counter.value
      (Metrics.Registry.counter (Engine.metrics eng) "engine.events_fired")
  in
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "all fired" (heap + timers) (fired ());
  (w1 -. w0) /. float_of_int (heap + timers)

let test_dispatch_allocation () =
  let heap_only = words_per_event ~heap:20_000 ~timers:0 in
  let timers_only = words_per_event ~heap:0 ~timers:20_000 in
  let mixed = words_per_event ~heap:20_000 ~timers:20_000 in
  let within name bound v =
    if v > bound then
      Alcotest.failf "%s: %.2f words per event, bound %.0f" name v bound
  in
  within "heap events" 1. heap_only;
  within "timers" 1. timers_only;
  within "mixed" 1. mixed

(* {2 Park cost}

   A park allocates its effect value, the continuation OCaml's effect
   runtime builds and the box that holds it; a sleep also files its wheel
   handle.  The process's resume event, its sleep waker, its wait-queue
   entry and its handler's closures are built once, when it first runs,
   and a wait queue, the wheel and a blocking queue's ring link or store
   what they hold without a cell of their own.  OCaml 5.1 on 64 bits
   measures sleep 13, a [suspend] woken by an event at the current instant
   12, [wait_on] plus wake 7 and [self] 2 words per cycle, 0 per
   [Bqueue.put] and [get], and 22 per [Mailbox] message (in [test_hw]);
   a waker, queue entry and cell per wait made [wait_on] 18, list cells
   per cascade made a sleep 20.2, and a [Queue] cell and a [Some] made a
   put and get 5.  Each bound sits less than a box (2 words) above its
   measurement, so a cell, box or closure added back per park or per item
   fails, and leaves a word for a runtime whose continuation is a word
   larger. *)
let words_per_cycle ~cycles body =
  let eng = Engine.create ~evlog_cap:16 () in
  let words = ref nan in
  ignore
    (Engine.spawn eng (fun () ->
         (* The first cycles build the process's closures and grow the
            engine's heaps; measure the rest. *)
         for _ = 1 to 100 do
           body eng
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to cycles do
           body eng
         done;
         words := Gc.minor_words () -. w0));
  Engine.run eng;
  !words /. float_of_int cycles

let test_park_allocation () =
  let cycles = 20_000 in
  (* A 10 us sleep files its timer two levels up the wheel, so its
     handle cascades twice. *)
  let sleep = words_per_cycle ~cycles (fun _ -> Engine.sleep (Time.us 10)) in
  (* The registration closes over nothing, so it is built once. *)
  let suspend =
    words_per_cycle ~cycles (fun _ ->
        Engine.suspend (fun p waker ->
            let eng = Engine.engine_of_proc p in
            Engine.schedule eng ~at:(Engine.now eng) waker))
  in
  let q = Waitq.create () in
  let wake () = ignore (Waitq.wake_one q) in
  let wait =
    words_per_cycle ~cycles (fun eng ->
        Engine.schedule eng ~at:(Engine.now eng) wake;
        ignore (Sync.wait_on q))
  in
  let self =
    words_per_cycle ~cycles (fun _ ->
        ignore (Sys.opaque_identity (Engine.self ())))
  in
  let bq = Bqueue.create () in
  let put_get =
    words_per_cycle ~cycles (fun _ ->
        Bqueue.put bq 1;
        Bqueue.put bq 2;
        ignore (Sys.opaque_identity (Bqueue.get bq));
        ignore (Sys.opaque_identity (Bqueue.get bq)))
    /. 2.
  in
  let within name bound v =
    if v > bound then
      Alcotest.failf "%s: %.2f words per cycle, bound %.0f" name v bound
  in
  within "sleep" 14. sleep;
  within "suspend" 13. suspend;
  within "wait_on plus wake" 8. wait;
  within "self" 3. self;
  within "Bqueue put plus get, per item" 1. put_get

(* {2 Stale wakers}

   A waker belongs to one park.  Once that park has ended it must do
   nothing, however late it runs and whatever the process is doing by
   then. *)

let counter eng name =
  Metrics.Counter.value (Metrics.Registry.counter (Engine.metrics eng) name)

(* A poller parks once with its waker on two queues (as [Tcp.poll] does),
   is woken through the first, then parks on a third.  Waking the second
   queue runs the first park's waker during the second park. *)
let test_stale_waker_earlier_park () =
  let eng = Engine.create () in
  let q1 = Waitq.create () and q2 = Waitq.create () and q3 = Waitq.create () in
  let log = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         Engine.suspend (fun _p waker ->
             ignore (Waitq.add q1 waker);
             ignore (Waitq.add q2 waker));
         log := ("first", Engine.now eng) :: !log;
         ignore (Sync.wait_on q3);
         log := ("second", Engine.now eng) :: !log));
  Engine.schedule eng ~at:(Time.ms 1) (fun () -> ignore (Waitq.wake_one q1));
  Engine.schedule eng ~at:(Time.ms 2) (fun () ->
      Alcotest.(check int) "the stale entry is still queued" 1
        (Waitq.wake_all q2));
  Engine.schedule eng ~at:(Time.ms 3) (fun () -> ignore (Waitq.wake_one q3));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "the second park ends at its own wake"
    [ ("first", Time.ms 1); ("second", Time.ms 3) ]
    (List.rev !log)

(* The deadline ends the park; a wake kept from it and run later, while
   the process is parked again, is ignored. *)
let test_stale_waker_timed_out () =
  let eng = Engine.create () in
  let kept = ref ignore in
  let q = Waitq.create () in
  let log = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         let o =
           Engine.with_timeout ~at:(Time.ms 5) (fun _p wake ->
               kept := wake;
               fun () -> ())
         in
         let outcome = if o = `Timeout then "timeout" else "done" in
         log := (outcome, Engine.now eng) :: !log;
         ignore (Sync.wait_on q);
         log := ("woken", Engine.now eng) :: !log));
  Engine.schedule eng ~at:(Time.ms 7) (fun () -> !kept ());
  Engine.schedule eng ~at:(Time.ms 9) (fun () -> ignore (Waitq.wake_one q));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "the late wake resumes nothing"
    [ ("timeout", Time.ms 5); ("woken", Time.ms 9) ]
    (List.rev !log)

(* Two sleepers are killed.  [a] is killed at 5 ms, with its timer due at
   10 ms: the event that unwinds it cancels the timer, after an event the
   killer scheduled just before the kill.  [b] is killed at 10 ms by an
   event filed before its timer, which is due at the same instant: the
   timer fires first, finds [b] already claimed and does nothing, and
   counts as fired, not cancelled.  Cancelling in [kill] itself would
   count [a]'s timer cancelled before its resume event, and [b]'s as
   cancelled instead of fired, with one event fewer. *)
let test_stale_waker_killed_sleeper () =
  let eng = Engine.create () in
  let seen = ref (-1) in
  let a = Engine.spawn eng ~name:"a" (fun () -> Engine.sleep (Time.ms 10)) in
  let b = Engine.spawn eng ~name:"b" (fun () -> Engine.sleep (Time.ms 10)) in
  (* Filed now, before [b] first runs and arms its timer. *)
  Engine.schedule eng ~at:(Time.ms 10) (fun () -> Engine.kill b);
  Engine.schedule eng ~at:(Time.ms 5) (fun () ->
      Engine.schedule eng ~at:(Engine.now eng) (fun () ->
          seen := counter eng "engine.timers_cancelled");
      Engine.kill a);
  Engine.run eng;
  Alcotest.(check int) "a's timer is not cancelled by the kill itself" 0 !seen;
  Alcotest.(check bool) "a killed" true (Engine.status a = Some Engine.Killed);
  Alcotest.(check bool) "b killed" true (Engine.status b = Some Engine.Killed);
  Alcotest.(check (list (pair string int)))
    "engine counters"
    [
      ("engine.timers_armed", 2);
      ("engine.timers_cancelled", 1);
      ("engine.timers_fired", 1);
      ("engine.events_fired", 8);
    ]
    (List.map
       (fun n -> (n, counter eng n))
       [
         "engine.timers_armed";
         "engine.timers_cancelled";
         "engine.timers_fired";
         "engine.events_fired";
       ]);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events eng)

(* {2 Guarded waits} *)

(* Two ways of waiting for a guard: the reference resume-and-recheck loop
   on [Sync.wait_on], woken by [Waitq.wake_all], or an [Engine.Gate].  The
   reference's broadcast counts the wake-up events it schedules, so a
   script knows how many events the gate's sweeps must merge: a wave of
   [n] waiters fires one event instead of [n]. *)
type guarded = {
  wait : (unit -> bool) -> unit;
  broadcast : unit -> unit;
  merged : int ref;
}

let guarded_waits eng ~gate =
  let merged = ref 0 in
  if gate then
    let g = Engine.Gate.create () in
    {
      wait = (fun ready -> Engine.Gate.wait g ~ready);
      broadcast = (fun () -> Engine.Gate.broadcast g);
      merged;
    }
  else
    let q = Waitq.create () in
    {
      wait =
        (fun ready ->
          while not (ready ()) do
            ignore (Sync.wait_on q)
          done);
      broadcast =
        (fun () ->
          let before = Engine.pending_events eng in
          ignore (Waitq.wake_all q);
          merged := !merged + max 0 (Engine.pending_events eng - before - 1));
      merged;
    }

let events_fired eng =
  Metrics.Counter.value
    (Metrics.Registry.counter (Engine.metrics eng) "engine.events_fired")

(* Waiters become ready at different instants, between the ticks of a
   process that broadcasts; some wait twice, one is killed while parked.
   Everything observable must match the reference: the detail-mode trace,
   the order in which waiters finish and their exit statuses. *)
let guarded_script ~gate =
  let eng = Engine.create ~seed:7 () in
  Evlog.set_detail (Engine.evlog eng) true;
  let w = guarded_waits eng ~gate in
  let done_ = ref [] in
  let past at () = Engine.now eng >= at in
  let waiters =
    List.map
      (fun (i, ready_us, again_us) ->
        Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
            w.wait (past (Time.us ready_us));
            done_ := (i, 1, Engine.now eng) :: !done_;
            if again_us > 0 then begin
              w.wait (past (Engine.now eng + Time.us again_us));
              done_ := (i, 2, Engine.now eng) :: !done_
            end))
      [ (0, 2500, 0); (1, 700, 3100); (2, 7300, 0); (3, 0, 1); (4, 4100, 900);
        (5, 9_000_000, 0) ]
  in
  ignore
    (Engine.spawn eng ~name:"ticker" (fun () ->
         for tick = 1 to 12 do
           Engine.sleep (Time.ms 1);
           if tick = 6 then Engine.kill (List.nth waiters 5);
           w.broadcast ()
         done));
  Engine.run eng;
  ( Evlog.to_jsonl (Engine.evlog eng),
    events_fired eng,
    !(w.merged),
    List.rev !done_,
    List.map Engine.status waiters )

let test_gate_matches_recheck_loop () =
  let trace_a, events_a, merged, done_a, status_a =
    guarded_script ~gate:false
  in
  let trace_b, events_b, _, done_b, status_b = guarded_script ~gate:true in
  Alcotest.(check bool) "the script has waves to merge" true (merged > 0);
  Alcotest.(check int) "one event per wave" (events_a - merged) events_b;
  Alcotest.(check (list (triple int int int))) "same completion order" done_a done_b;
  Alcotest.(check bool) "same exit statuses" true (status_a = status_b);
  Alcotest.(check bool) "the killed waiter exited Killed" true
    (List.nth status_b 5 = Some Engine.Killed);
  Alcotest.(check bool) "parks were traced" true (contains trace_b "proc.park");
  Alcotest.(check bool) "byte-identical detail trace" true (trace_a = trace_b)

(* One wave that exercises what an event per waiter got right for free.
   w0..w5 park; at 1 ms a broadcast wakes them all, then the broadcaster
   kills w3 (between the broadcast and its sweep) and schedules [after] at
   the same instant.  In the sweep w0 is not ready and parks again; w1
   makes w0 ready and broadcasts (a second wave, mid-sweep); w2 parks on
   the same gate again; w3 unwinds; w4 calls [Engine.stop].  So w5 and
   [after] wait for the next [run], where w5 still comes first; then the
   second wave resumes w0, and a broadcast at 2 ms releases w2. *)
let mid_sweep_script ~gate =
  let eng = Engine.create ~seed:11 () in
  Evlog.set_detail (Engine.evlog eng) true;
  let w = guarded_waits eng ~gate in
  let log = ref [] in
  let note s = log := (s, Engine.now eng) :: !log in
  let go = ref false and w0_ready = ref false in
  let when_go () = !go in
  let waiters =
    List.mapi
      (fun i (ready, body) ->
        Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
            w.wait ready;
            note (Printf.sprintf "w%d" i);
            body ()))
      [
        ((fun () -> !w0_ready), ignore);
        ( when_go,
          fun () ->
            w0_ready := true;
            w.broadcast () );
        ( when_go,
          fun () ->
            w.wait (fun () -> Engine.now eng >= Time.ms 2);
            note "w2 again" );
        (when_go, ignore);
        (when_go, fun () -> Engine.stop eng);
        (when_go, ignore);
      ]
  in
  Engine.schedule eng ~at:(Time.ms 1) (fun () ->
      go := true;
      w.broadcast ();
      Engine.kill (List.nth waiters 3);
      Engine.schedule eng ~at:(Engine.now eng) (fun () -> note "after"));
  Engine.schedule eng ~at:(Time.ms 2) w.broadcast;
  Engine.run eng;
  let first_run = List.rev !log in
  Engine.run eng;
  ( Evlog.to_jsonl (Engine.evlog eng),
    events_fired eng,
    !(w.merged),
    first_run,
    List.rev !log,
    List.map Engine.status waiters )

let test_gate_mid_sweep () =
  let trace_a, events_a, merged, first_a, log_a, status_a =
    mid_sweep_script ~gate:false
  in
  let trace_b, events_b, _, first_b, log_b, status_b =
    mid_sweep_script ~gate:true
  in
  let names l = List.map fst l in
  Alcotest.(check (list string)) "stop ends the first run after w4"
    [ "w1"; "w2"; "w4" ] (names first_b);
  Alcotest.(check (list string)) "the rest of the wave precedes later events"
    [ "w1"; "w2"; "w4"; "w5"; "after"; "w0"; "w2 again" ]
    (names log_b);
  Alcotest.(check (list (pair string int))) "same first run" first_a first_b;
  Alcotest.(check (list (pair string int))) "same completion order" log_a log_b;
  Alcotest.(check bool) "same exit statuses" true (status_a = status_b);
  Alcotest.(check bool) "w3 was killed mid-wave" true
    (List.nth status_b 3 = Some Engine.Killed);
  (* The stop split the first wave into two events. *)
  Alcotest.(check int) "one event per wave, plus the split"
    (events_a - merged + 1) events_b;
  Alcotest.(check bool) "byte-identical detail trace" true (trace_a = trace_b)

let test_gate_semantics () =
  let eng = Engine.create () in
  let g = Engine.Gate.create () in
  let flag = ref false in
  let resumed = ref None in
  let p =
    Engine.spawn eng (fun () ->
        Engine.Gate.wait g ~ready:(fun () -> !flag);
        resumed := Some (Engine.now eng))
  in
  (* The guard turning true is not a broadcast: nothing fires on its own. *)
  Engine.schedule eng ~at:(Time.ms 1) (fun () -> flag := true);
  Engine.run eng;
  Alcotest.(check (option int)) "still parked" None !resumed;
  Alcotest.(check int) "one live process" 1 (Engine.live_procs eng);
  Engine.schedule eng ~at:(Time.ms 5) (fun () -> Engine.Gate.broadcast g);
  Engine.run eng;
  Alcotest.(check (option int)) "a broadcast finds it ready" (Some (Time.ms 5))
    !resumed;
  Alcotest.(check bool) "exits normally" true (Engine.status p = Some Engine.Normal);
  (* Killed while parked, and killed between a broadcast and its sweep. *)
  let never () = false in
  let parked = Engine.spawn eng (fun () -> Engine.Gate.wait g ~ready:never) in
  let waking = Engine.spawn eng (fun () -> Engine.Gate.wait g ~ready:never) in
  Engine.run ~until:(Time.ms 6) eng;
  Engine.kill parked;
  Engine.schedule eng ~at:(Time.ms 7) (fun () ->
      Engine.Gate.broadcast g;
      Engine.kill waking);
  Engine.run eng;
  Alcotest.(check bool) "killed while parked" true
    (Engine.status parked = Some Engine.Killed);
  Alcotest.(check bool) "killed with its sweep pending" true
    (Engine.status waking = Some Engine.Killed);
  Alcotest.(check int) "none left" 0 (Engine.live_procs eng);
  (* An exception escaping a resumed waiter ends the run like [stop]: the
     rest of the wave stays pending for the next one. *)
  let go = ref false and order = ref [] in
  let ws =
    List.init 3 (fun i ->
        Engine.spawn eng (fun () ->
            Engine.Gate.wait g ~ready:(fun () -> !go);
            order := i :: !order))
  in
  Engine.on_exit (List.hd ws) (fun _ -> failwith "watcher");
  Engine.run eng;
  go := true;
  Engine.Gate.broadcast g;
  (match Engine.run eng with
  | () -> Alcotest.fail "the watcher's exception was lost"
  | exception Failure _ -> ());
  Alcotest.(check (list int)) "the wave stopped at the raise" [ 0 ] !order;
  Engine.run eng;
  Alcotest.(check (list int)) "the next run finished it" [ 2; 1; 0 ] !order

(* A waiter whose guard is false costs its guard call and nothing else:
   the sweep re-parks it in its own record, so a broadcast allocates a few
   words however many waiters it re-checks.  A wake event and a fresh
   registration per waiter cost 30 words per re-park. *)
let test_gate_allocation () =
  let eng = Engine.create ~evlog_cap:16 () in
  let g = Engine.Gate.create () in
  let never () = false in
  let waiters = 32 and broadcasts = 1000 in
  for _ = 1 to waiters do
    ignore (Engine.spawn eng (fun () -> Engine.Gate.wait g ~ready:never))
  done;
  Engine.run eng;
  for i = 1 to broadcasts do
    Engine.schedule eng ~at:(Time.us i) (fun () -> Engine.Gate.broadcast g)
  done;
  let fired = events_fired eng in
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "one sweep per broadcast" (2 * broadcasts)
    (events_fired eng - fired);
  Alcotest.(check int) "all still parked" waiters (Engine.live_procs eng);
  let per_repark = (w1 -. w0) /. float_of_int (waiters * broadcasts) in
  if per_repark > 2. then
    Alcotest.failf "%.2f words per re-parked waiter, bound 2" per_repark

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "spawn ordering" `Quick test_spawn_ordering;
          Alcotest.test_case "sleep interleaving" `Quick test_sleep_interleaving;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join exn" `Quick test_join_exn;
          Alcotest.test_case "kill blocked" `Quick test_kill_blocked;
          Alcotest.test_case "kill idempotent" `Quick test_kill_idempotent;
          Alcotest.test_case "kill before start" `Quick test_kill_before_start;
          Alcotest.test_case "deadlock detectable" `Quick test_deadlock_detectable;
          Alcotest.test_case "kill self at suspension" `Quick
            test_kill_self_at_suspension;
          Alcotest.test_case "schedule in past" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative sleep" `Quick test_negative_sleep_rejected;
          Alcotest.test_case "exception isolation" `Quick
            test_exception_does_not_poison_engine;
          QCheck_alcotest.to_alcotest prop_sleep_ordering;
        ] );
      ( "sink",
        [
          Alcotest.test_case "redirect is domain-local" `Quick
            test_sink_redirect;
          Alcotest.test_case "statsdump routes through sink" `Quick
            test_sink_statsdump_routing;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires at deadline" `Quick test_timer_fires;
          Alcotest.test_case "cancel suppresses" `Quick test_timer_cancel;
          Alcotest.test_case "cancel + re-arm" `Quick test_timer_rearm;
          Alcotest.test_case "same-instant ordering" `Quick
            test_timer_heap_interleave;
          Alcotest.test_case "overflow horizon" `Quick
            test_timer_overflow_horizon;
          Alcotest.test_case "sleep_until" `Quick test_sleep_until;
          Alcotest.test_case "kill cancels sleep timer" `Quick
            test_kill_cancels_sleep;
          Alcotest.test_case "with_timeout times out" `Quick
            test_with_timeout_timeout;
          Alcotest.test_case "with_timeout done cancels" `Quick
            test_with_timeout_done_cancels_timer;
          Alcotest.test_case "twheel cancel after fire" `Quick
            test_twheel_cancel_after_fire;
          Alcotest.test_case "engine cancel after fire" `Quick
            test_engine_cancel_after_fire;
          Alcotest.test_case "with_timeout same-tick wake first" `Quick
            test_with_timeout_same_tick_wake_first;
          Alcotest.test_case "with_timeout same-tick timer first" `Quick
            test_with_timeout_same_tick_timer_first;
          QCheck_alcotest.to_alcotest prop_dispatch_matches_model;
          Alcotest.test_case "dispatch allocation" `Quick
            test_dispatch_allocation;
          Alcotest.test_case "park allocation" `Quick test_park_allocation;
          Alcotest.test_case "stale wakers: earlier park" `Quick
            test_stale_waker_earlier_park;
          Alcotest.test_case "stale wakers: timed out" `Quick
            test_stale_waker_timed_out;
          Alcotest.test_case "stale wakers: killed sleeper" `Quick
            test_stale_waker_killed_sleeper;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "readers wake" `Quick test_ivar_order;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "mutex FIFO" `Quick test_mutex_fifo;
          Alcotest.test_case "timed-out waiter eats no signal" `Quick
            test_timed_out_waiter_eats_no_wake;
          Alcotest.test_case "semaphore bounds" `Quick test_semaphore_bounds;
          Alcotest.test_case "gate matches recheck loop" `Quick
            test_gate_matches_recheck_loop;
          Alcotest.test_case "gate semantics" `Quick test_gate_semantics;
          Alcotest.test_case "gate mid-sweep" `Quick test_gate_mid_sweep;
          Alcotest.test_case "gate allocation" `Quick test_gate_allocation;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "fifo" `Quick test_bqueue_fifo;
          Alcotest.test_case "get timeout" `Quick test_bqueue_get_timeout;
          QCheck_alcotest.to_alcotest prop_bqueue_matches_queue;
          Alcotest.test_case "ring of floats" `Quick test_ring_floats;
        ] );
      ( "waitq",
        [
          QCheck_alcotest.to_alcotest prop_waitq_matches_fifo;
          Alcotest.test_case "killed waiter takes a wake" `Quick
            test_killed_waiter_takes_a_wake;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "hist edge cases" `Quick test_hist_edge_cases;
          Alcotest.test_case "hist negative values" `Quick
            test_hist_negative_values;
          Alcotest.test_case "series rate" `Quick test_series_rate;
          QCheck_alcotest.to_alcotest prop_hist_quantile_bucket_exact;
          Alcotest.test_case "registry get-or-create" `Quick
            test_registry_get_or_create;
          Alcotest.test_case "registry kind mismatch" `Quick
            test_registry_kind_mismatch;
          Alcotest.test_case "registry json" `Quick test_registry_json;
          Alcotest.test_case "registry sorted unconditionally" `Quick
            test_registry_sorted_unconditionally;
          Alcotest.test_case "registry same-seed identical" `Quick
            test_registry_same_seed_identical;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_prng_float_in_bounds;
        ] );
      ( "heap",
        [
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_fifo_ties;
          Alcotest.test_case "pop releases values" `Quick test_heap_pop_releases;
        ] );
      ( "evlog",
        [
          Alcotest.test_case "ring overflow" `Quick test_evlog_ring_overflow;
          Alcotest.test_case "pin survives wrap" `Quick
            test_evlog_pin_survives_wrap;
          Alcotest.test_case "spans and query" `Quick test_evlog_spans_and_query;
          Alcotest.test_case "subscriber" `Quick test_evlog_subscriber;
          Alcotest.test_case "ring straddles chunks" `Quick
            test_evlog_ring_straddles_chunks;
          Alcotest.test_case "chrome export shape" `Quick
            test_evlog_chrome_shape;
          Alcotest.test_case "engine lifecycle events" `Quick
            test_engine_lifecycle_events;
          Alcotest.test_case "detail gates park events" `Quick
            test_evlog_detail_gates_park_events;
          QCheck_alcotest.to_alcotest prop_evlog_matches_model;
          Alcotest.test_case "model corners" `Quick test_evlog_model_corners;
          Alcotest.test_case "no promotion of retained events" `Quick
            test_evlog_no_promotion;
          Alcotest.test_case "bounded memory under wrap" `Quick
            test_evlog_bounded_under_wrap;
          Alcotest.test_case "write_file streams the exports" `Quick
            test_evlog_write_file_streams;
          Alcotest.test_case "refuses an oversized event" `Quick
            test_evlog_refuses_oversized_event;
          QCheck_alcotest.to_alcotest prop_evlog_writer_matches_model;
          Alcotest.test_case "writer allocates nothing" `Quick
            test_evlog_writer_allocates_nothing;
          Alcotest.test_case "writer nesting" `Quick test_evlog_writer_nesting;
          Alcotest.test_case "full vocabulary on both paths" `Slow
            test_evlog_full_vocabulary;
        ] );
      ( "trace",
        [
          Alcotest.test_case "levels and ring" `Quick test_trace_levels_and_ring;
          Alcotest.test_case "level of string" `Quick test_trace_level_of_string;
          Alcotest.test_case "same seed identical" `Quick
            test_trace_same_seed_identical;
          Alcotest.test_case "seed sensitive" `Quick test_trace_seed_sensitive;
        ] );
    ]
