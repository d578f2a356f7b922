(* Tests for the chaos campaign engine and the replica-divergence checker:
   schedule derivation, digest determinism, shrinker convergence, and a
   mutation test proving the checker is not vacuously green. *)

open Ftsim_sim
open Ftsim_kernel
open Ftsim_ftlinux
open Ftsim_apps

let test_config =
  {
    Cluster.default_config with
    topology = Ftsim_hw.Topology.small;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 200;
  }

(* {1 Schedule derivation} *)

let test_derive_deterministic () =
  let d () = Chaos.derive ~root_seed:42 ~index:3 ~replicas:2 ~horizon:(Time.sec 3) in
  Alcotest.(check bool) "same root seed and index give the same schedule" true
    (d () = d ());
  let other = Chaos.derive ~root_seed:42 ~index:4 ~replicas:2 ~horizon:(Time.sec 3) in
  Alcotest.(check bool) "sibling index gives a distinct seed" true
    ((d ()).Chaos.sched_seed <> other.Chaos.sched_seed)

let test_derive_in_bounds () =
  let horizon = Time.sec 3 in
  for index = 0 to 49 do
    let s = Chaos.derive ~root_seed:7 ~index ~replicas:3 ~horizon in
    List.iter
      (fun i ->
        Alcotest.(check bool) "fault after t0" true (i.Chaos.inj_at > 0);
        match i.Chaos.inj_target with
        | Chaos.T_primary -> ()
        | Chaos.T_backup b ->
            Alcotest.(check bool) "backup index in range" true (b >= 0 && b < 2))
      s.Chaos.injections;
    List.iter
      (fun p ->
        Alcotest.(check bool) "loss below 1" true (p.Chaos.pert_loss < 1.0);
        Alcotest.(check bool) "positive window" true (p.Chaos.pert_dur > 0))
      s.Chaos.perturbations
  done

let test_derive_multi_bounds () =
  let horizon = Time.sec 4 in
  let d () =
    Chaos.derive_multi ~root_seed:42 ~index:3 ~replicas:2 ~horizon ~faults:3
  in
  Alcotest.(check bool) "same inputs give the same schedule" true (d () = d ());
  let s = d () in
  Alcotest.(check int) "exactly the requested faults" 3
    (List.length s.Chaos.injections);
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.Chaos.inj_at < b.Chaos.inj_at && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "injections sorted and distinct" true
    (sorted s.Chaos.injections);
  List.iter
    (fun i ->
      Alcotest.(check bool) "inside the horizon" true
        (i.Chaos.inj_at > 0 && i.Chaos.inj_at < horizon))
    s.Chaos.injections;
  for faults = 1 to 5 do
    let s =
      Chaos.derive_multi ~root_seed:7 ~index:0 ~replicas:2 ~horizon ~faults
    in
    Alcotest.(check int) "fault budget honoured" faults
      (List.length s.Chaos.injections)
  done

(* {1 Digest determinism} *)

(* The racy-app pattern from test_ftlinux: any interleaving is correct, but
   the digest sequence must be a pure function of the engine seed. *)
let racy_app ~iters api =
  let pt = api.Api.pt in
  let m = Pthread.mutex_create pt in
  let counter = ref 0 in
  let threads =
    List.init 4 (fun w ->
        api.Api.thread.spawn (Printf.sprintf "worker-%d" w) (fun () ->
            for _ = 1 to iters do
              api.Api.thread.compute (Time.us 10);
              Pthread.mutex_lock pt m;
              incr counter;
              Pthread.mutex_unlock pt m
            done))
  in
  List.iter api.Api.thread.join threads;
  ignore (api.Api.thread.gettimeofday ())

let digest_of_run ?(iters = 20) seed =
  let eng = Engine.create ~seed () in
  let cluster =
    Cluster.create eng ~config:test_config ~app:(racy_app ~iters) ()
  in
  Engine.run ~until:(Time.sec 10) eng;
  Cluster.shutdown cluster;
  let d =
    match Namespace.digest (Cluster.primary_namespace cluster) with
    | Some d -> d
    | None -> Alcotest.fail "primary namespace has no digest recorder"
  in
  let snaps =
    List.map
      (fun (ch, ss) ->
        ( ch,
          List.map
            (fun s -> (s.Digest.snap_section, s.Digest.snap_digest))
            ss ))
      (Digest.comparable d)
  in
  (snaps, Digest.value d, Cluster.compare_digests cluster)

let test_digest_deterministic () =
  let s1, v1, div1 = digest_of_run 11 in
  let s2, v2, _ = digest_of_run 11 in
  Alcotest.(check bool) "digest sequence non-empty" true (s1 <> []);
  Alcotest.(check bool) "same seed gives identical snapshot sequence" true
    (s1 = s2);
  Alcotest.(check bool) "same seed gives identical combined digest" true
    (v1 = v2);
  Alcotest.(check bool) "primary and secondary digests agree" true (div1 = None)

let test_digest_execution_sensitive () =
  (* A different execution (one extra loop iteration per worker) must land
     on a different combined digest. *)
  let _, v1, _ = digest_of_run ~iters:20 11 and _, v2, _ = digest_of_run ~iters:21 11 in
  Alcotest.(check bool) "different executions give different digests" true
    (v1 <> v2)

(* {1 Digest unit behaviour} *)

let test_digest_seal_bounds () =
  let d = Digest.create () in
  let section n =
    Digest.section_end d ~ft_pid:1 ~thread_seq:n ~chans:[ (0, n) ]
      ~payload:Wire.P_plain
  in
  section 0;
  section 1;
  Digest.fold_thread d ~ft_pid:1 0xaa;
  Digest.seal d;
  section 2;
  Digest.fold_thread d ~ft_pid:1 0xbb;
  Alcotest.(check int) "all sections counted" 3 (Digest.sections d);
  Alcotest.(check int) "comparable stops at seal" 2
    (match Digest.comparable d with
    | [ (0, ss) ] -> List.length ss
    | _ -> -1);
  Alcotest.(check int) "thread folds counted" 2 (Digest.thread_folds d ~ft_pid:1)

let test_digest_thread_divergence_located () =
  let mk vs =
    let d = Digest.create () in
    List.iter (Digest.fold_thread d ~ft_pid:7) vs;
    d
  in
  let p = mk [ 1; 2; 3; 4 ] and s = mk [ 1; 2; 99; 4 ] in
  match Digest.compare_replicas ~primary:p ~secondary:s with
  | Some div ->
      Alcotest.(check (option int)) "located in the thread" (Some 7)
        div.Digest.in_thread;
      Alcotest.(check int) "at the third fold" 3 div.Digest.at_section
  | None -> Alcotest.fail "divergent thread sequences not detected"

(* {1 Shrinker convergence} *)

(* Synthetic failure: a schedule "fails" iff it still contains the culprit —
   a coherency-disrupting primary fault.  The shrinker must strip every
   other component and pull the culprit's time down to the floor. *)
let test_shrink_converges () =
  let culprit =
    {
      Chaos.inj_at = Time.ms 100;
      inj_target = Chaos.T_primary;
      inj_kind = Ftsim_hw.Fault.Memory_uncorrected;
      inj_disrupts = true;
    }
  in
  let noise t =
    {
      Chaos.inj_at = t;
      inj_target = Chaos.T_backup 0;
      inj_kind = Ftsim_hw.Fault.Core_failstop;
      inj_disrupts = false;
    }
  in
  let pert t =
    { Chaos.pert_at = t; pert_dur = Time.ms 50; pert_loss = 0.2; pert_delay = Time.us 500 }
  in
  let sched =
    {
      Chaos.sched_index = 0;
      sched_seed = 0xbeef;
      horizon = Time.sec 3;
      injections = [ noise (Time.ms 40); culprit; noise (Time.ms 700) ];
      perturbations = [ pert (Time.ms 10); pert (Time.ms 900) ];
    }
  in
  let runs = ref 0 in
  let run s =
    incr runs;
    let failing =
      List.exists
        (fun i -> i.Chaos.inj_target = Chaos.T_primary && i.Chaos.inj_disrupts)
        s.Chaos.injections
    in
    {
      Chaos.verdict = (if failing then Chaos.V_divergence "synthetic" else Chaos.V_ok);
      o_failovers = 0;
      o_completed = 0;
      o_sections = 0;
      o_end = 0;
      o_lag = None;
    }
  in
  let minimal, outcome, probe_runs = Chaos.shrink ~run ~budget:500 sched in
  Alcotest.(check int) "noise injections stripped" 1
    (List.length minimal.Chaos.injections);
  Alcotest.(check int) "perturbations stripped" 0
    (List.length minimal.Chaos.perturbations);
  (let i = List.hd minimal.Chaos.injections in
   Alcotest.(check bool) "culprit preserved" true
     (i.Chaos.inj_target = Chaos.T_primary && i.Chaos.inj_disrupts);
   Alcotest.(check bool) "culprit time pulled to the floor" true
     (i.Chaos.inj_at <= Time.ms 1));
  Alcotest.(check bool) "minimal still fails" true
    (Chaos.verdict_failing outcome.Chaos.verdict);
  Alcotest.(check bool) "budget respected" true (probe_runs <= 500);
  Alcotest.(check bool) "probe count reported" true (probe_runs = !runs)

(* {1 Campaign + report} *)

let test_campaign_report () =
  let ok =
    {
      Chaos.verdict = Chaos.V_ok;
      o_failovers = 0;
      o_completed = 1;
      o_sections = 5;
      o_end = 1;
      o_lag = Some "ok";
    }
  in
  let run s =
    if s.Chaos.sched_index = 1 && s.Chaos.injections <> [] then
      { ok with Chaos.verdict = Chaos.V_divergence "stub" }
    else ok
  in
  let report =
    Chaos.run_campaign ~root_seed:4242 ~count:6 ~replicas:2
      ~horizon:(Time.sec 3) ~workload:"stub" ~run ()
  in
  Alcotest.(check int) "six runs recorded" 6 (List.length report.Chaos.rep_results);
  let failing = Chaos.failures report in
  (match failing with
  | [ rr ] ->
      Alcotest.(check int) "failing index" 1 rr.Chaos.rr_schedule.Chaos.sched_index
  | l ->
      (* Index 1 fails only if it drew at least one injection; with this
         root seed it does — otherwise the campaign is clean. *)
      Alcotest.(check int) "at most one failure" 0 (List.length l));
  let json = Chaos.report_to_json report in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json has run count" true (contains "\"runs\":6" json);
  Alcotest.(check bool) "json mentions workload" true
    (contains "\"workload\":\"stub\"" json);
  Alcotest.(check bool) "json records the minimal repro" true
    (contains "\"minimal_repro\"" json)

(* {1 Domain-pool campaigns}

   The determinism contract of the multicore runner: a campaign's merged
   report is a pure function of (root_seed, count, ...) — the number of
   worker domains must be unobservable in it.  Serialized reports and
   verdict sequences are compared byte-for-byte across jobs widths. *)

let verdict_sequence rep =
  List.map
    (fun rr -> Chaos.verdict_label rr.Chaos.rr_outcome.Chaos.verdict)
    rep.Chaos.rep_results

(* Cheap but schedule-sensitive stand-in for a real run: every outcome
   field is derived from the schedule's contents, and schedules drawing
   two or more injections "fail" so the shrink path is exercised too. *)
let synthetic_run s =
  let inj_sum =
    List.fold_left (fun a i -> a + i.Chaos.inj_at) 0 s.Chaos.injections
  in
  let failing = List.length s.Chaos.injections >= 2 in
  {
    Chaos.verdict =
      (if failing then
         Chaos.V_divergence (Printf.sprintf "synthetic, seed %#x" s.Chaos.sched_seed)
       else Chaos.V_ok);
    o_failovers = List.length s.Chaos.injections;
    o_completed = List.length s.Chaos.perturbations;
    o_sections = inj_sum mod 1000;
    o_end = inj_sum;
    o_lag = Some "ok";
  }

let campaign_with ~jobs ~count run =
  let progressed = ref [] in
  let rep =
    Chaos.run_campaign ~root_seed:4242 ~count ~replicas:2
      ~horizon:(Time.sec 3) ~workload:"stub" ~run
      ~progress:(fun rr ->
        progressed := rr.Chaos.rr_schedule.Chaos.sched_index :: !progressed)
      ~jobs ()
  in
  (rep, List.sort compare !progressed)

let test_parallel_merge_byte_identical () =
  let rep1, prog1 = campaign_with ~jobs:1 ~count:32 synthetic_run in
  let rep4, prog4 = campaign_with ~jobs:4 ~count:32 synthetic_run in
  Alcotest.(check (list string)) "verdict sequences equal"
    (verdict_sequence rep1) (verdict_sequence rep4);
  Alcotest.(check string) "serialized reports byte-identical"
    (Chaos.report_to_json rep1)
    (Chaos.report_to_json rep4);
  (* Every index reported progress exactly once, whatever the completion
     order was. *)
  Alcotest.(check (list int)) "progress covered every schedule once"
    (List.init 32 Fun.id) prog4;
  Alcotest.(check (list int)) "sequential progress too" (List.init 32 Fun.id)
    prog1

let test_parallel_real_runs_byte_identical () =
  (* Real simulations across domains: each worker builds its own engine,
     PRNG, metrics registry and evlog, so nothing the report serializes may
     depend on which domain ran which seed. *)
  let run = Chaosrun.run ~workload:Chaosrun.Fileserver ~replicas:2 in
  let campaign jobs =
    Chaos.run_campaign ~root_seed:42 ~count:8 ~replicas:2
      ~horizon:(Time.sec 3) ~workload:"fileserver" ~run ~jobs ()
  in
  let rep1 = campaign 1 and rep4 = campaign 4 in
  Alcotest.(check string) "reports byte-identical across domain pools"
    (Chaos.report_to_json rep1)
    (Chaos.report_to_json rep4)

let test_parallel_shrink_reproducible () =
  (* A mutation-seeded divergence found by a worker domain must shrink to
     the same minimal schedule as when the campaign runs sequentially:
     shrinking is pinned to the coordinator's domain, probing the lowest
     failing index with the same budget either way. *)
  let run =
    Chaosrun.run ~mutate:true ~workload:Chaosrun.Mongoose ~replicas:2
  in
  let campaign jobs =
    Chaos.run_campaign ~root_seed:42 ~count:2 ~replicas:2 ~horizon:(Time.sec 3)
      ~workload:"mongoose" ~run ~shrink_budget:6 ~jobs ()
  in
  let rep1 = campaign 1 and rep2 = campaign 2 in
  (match (rep1.Chaos.rep_minimal, rep2.Chaos.rep_minimal) with
  | Some (s1, o1, runs1), Some (s2, o2, runs2) ->
      Alcotest.(check bool) "identical minimal schedule" true (s1 = s2);
      Alcotest.(check string) "identical minimal verdict"
        (Chaos.verdict_label o1.Chaos.verdict)
        (Chaos.verdict_label o2.Chaos.verdict);
      Alcotest.(check int) "identical probe count" runs1 runs2
  | _ -> Alcotest.fail "mutation-seeded campaign did not produce a repro");
  Alcotest.(check string) "whole reports byte-identical"
    (Chaos.report_to_json rep1)
    (Chaos.report_to_json rep2)

let test_worker_crash_contained () =
  (* A run that raises must surface as a failing harness-error result
     naming the schedule's seed — and must not abort the pool: every other
     schedule still runs and the campaign returns (no deadlocked
     coordinator waiting on a lost result). *)
  let crashing s =
    if s.Chaos.sched_index = 3 then failwith "injected harness crash"
    else synthetic_run s
  in
  let rep, prog = campaign_with ~jobs:4 ~count:8 crashing in
  Alcotest.(check (list int)) "all eight schedules completed"
    (List.init 8 Fun.id) prog;
  let rr3 = List.nth rep.Chaos.rep_results 3 in
  (match rr3.Chaos.rr_outcome.Chaos.verdict with
  | Chaos.V_harness_error msg ->
      let seed_str = Printf.sprintf "%#x" rr3.Chaos.rr_schedule.Chaos.sched_seed in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "error names the seed" true (contains seed_str msg);
      Alcotest.(check bool) "error carries the exception" true
        (contains "injected harness crash" msg)
  | v ->
      Alcotest.failf "expected harness-error for schedule 3, got %s"
        (Chaos.verdict_label v));
  Alcotest.(check bool) "harness errors fail the campaign" true
    (Chaos.failures rep <> []);
  Alcotest.(check bool) "json counts harness errors" true
    (let json = Chaos.report_to_json rep in
     let nl = String.length "\"harness_errors\":" and hl = String.length json in
     let rec go i =
       i + nl <= hl
       && (String.sub json i nl = "\"harness_errors\":" || go (i + 1))
     in
     go 0);
  (* The contained crash is itself deterministic: a sequential campaign
     lands on the identical report. *)
  let rep1, _ = campaign_with ~jobs:1 ~count:8 crashing in
  Alcotest.(check string) "crashing campaign still merges deterministically"
    (Chaos.report_to_json rep1)
    (Chaos.report_to_json rep)

(* {1 End-to-end: mutation test} *)

(* The divergence checker must actually catch a replica that computes a
   different state: skip one digest fold on the secondary and the campaign
   verdict must flip from ok to divergence on an otherwise quiescent run. *)
let quiescent =
  {
    Chaos.sched_index = 0;
    sched_seed = 0x5eed;
    horizon = Time.sec 3;
    injections = [];
    perturbations = [];
  }

let test_mutation_flagged () =
  let clean = Chaosrun.run ~workload:Chaosrun.Mongoose ~replicas:2 quiescent in
  Alcotest.(check string) "unmutated run is ok" "ok"
    (Chaos.verdict_label clean.Chaos.verdict);
  let mutated =
    Chaosrun.run ~mutate:true ~workload:Chaosrun.Mongoose ~replicas:2 quiescent
  in
  Alcotest.(check string) "mutated secondary is flagged" "divergence"
    (Chaos.verdict_label mutated.Chaos.verdict)

let test_chaos_run_clean () =
  (* One real derived schedule end-to-end: whatever faults it draws, the
     verdict must not be a divergence or a client violation. *)
  let s = Chaos.derive ~root_seed:42 ~index:0 ~replicas:2 ~horizon:(Time.sec 3) in
  let o = Chaosrun.run ~workload:Chaosrun.Fileserver ~replicas:2 s in
  Alcotest.(check bool) "no consistency failure" false
    (Chaos.verdict_failing o.Chaos.verdict);
  Alcotest.(check bool) "digest comparison exercised" true (o.Chaos.o_sections > 0)

let test_chaos_parallel_replay_clean () =
  (* The same chaos machinery with four replay executors on the backup:
     whatever interleaving the executor pool picks, the per-channel digests
     must agree with the primary and the client oracle must hold.  A
     handful of derived schedules (including kills that land mid-replay)
     plus the seeded-mutation control proving the checker still bites. *)
  for index = 0 to 3 do
    let s =
      Chaos.derive ~root_seed:77 ~index ~replicas:2 ~horizon:(Time.sec 3)
    in
    let o =
      Chaosrun.run ~replay_workers:4 ~workload:Chaosrun.Fileserver ~replicas:2
        s
    in
    if Chaos.verdict_failing o.Chaos.verdict then
      Alcotest.failf "schedule %d failed under parallel replay: %s" index
        (Chaos.verdict_label o.Chaos.verdict);
    Alcotest.(check bool)
      (Printf.sprintf "schedule %d exercised the digest" index)
      true
      (o.Chaos.o_sections > 0)
  done;
  (* Control: a seeded divergence must still be flagged with executors on —
     parallelism must not blunt the checker. *)
  let mutated =
    Chaosrun.run ~mutate:true ~replay_workers:4 ~workload:Chaosrun.Mongoose
      ~replicas:2 quiescent
  in
  Alcotest.(check string) "mutated secondary still flagged" "divergence"
    (Chaos.verdict_label mutated.Chaos.verdict)

(* Three replicas, schedule #815 of the root-seed-42 battery shrunk: the
   primary dies, both backups arbitrate at the same LSN, and backup 0 wins
   and dies during its driver reload.  Backup 1 holds the same log, so it
   must re-arbitrate and take over.  Killing the winner only after it went
   live instead is an outage: its go-live halted the loser, which holds
   none of the winner's new log. *)
let winner_death ~winner_dies_at =
  let fault at target =
    {
      Chaos.inj_at = at;
      inj_target = target;
      inj_kind = Ftsim_hw.Fault.Memory_uncorrected;
      inj_disrupts = false;
    }
  in
  {
    Chaos.sched_index = 815;
    sched_seed = 0x2c7454cdc7aaa1e9;
    horizon = Time.sec 3;
    injections =
      [ fault (Time.ns 667_409) Chaos.T_primary; fault winner_dies_at (Chaos.T_backup 0) ];
    perturbations = [];
  }

let test_three_replica_winner_death () =
  List.iter
    (fun workload ->
      let verdict at =
        Chaos.verdict_label
          (Chaosrun.run ~workload ~replicas:3 (winner_death ~winner_dies_at:at))
            .Chaos.verdict
      in
      let w = Chaosrun.workload_to_string workload in
      Alcotest.(check string) (w ^ ": winner dies reloading") "ok"
        (verdict (Time.ns 53_477_105));
      Alcotest.(check string) (w ^ ": winner dies live") "outage"
        (verdict (Time.ms 400)))
    [ Chaosrun.Fileserver; Chaosrun.Mongoose ]

let test_three_fault_reprotect_clean () =
  (* The acceptance schedule for live re-protection: three fail-stop kills,
     each aimed at whatever partition holds the primary role when it fires.
     Every kill is followed by a takeover and an online regeneration, the
     client oracle must verify an exactly-once stream across all three
     failovers, and every epoch's digest pair must agree. *)
  let kill t =
    {
      Chaos.inj_at = t;
      inj_target = Chaos.T_primary;
      inj_kind = Ftsim_hw.Fault.Core_failstop;
      inj_disrupts = false;
    }
  in
  let sched =
    {
      Chaos.sched_index = 0;
      sched_seed = 0xfa1;
      horizon = Time.sec 5;
      injections =
        [ kill (Time.ms 500); kill (Time.ms 1300); kill (Time.ms 2100) ];
      perturbations = [];
    }
  in
  let o =
    Chaosrun.run ~reprotect:true ~workload:Chaosrun.Mongoose ~replicas:2 sched
  in
  Alcotest.(check string) "verdict ok" "ok"
    (Chaos.verdict_label o.Chaos.verdict);
  Alcotest.(check int) "three takeovers" 3 o.Chaos.o_failovers;
  Alcotest.(check bool) "digest comparison exercised" true
    (o.Chaos.o_sections > 0)

let test_derive_multi_run_clean () =
  (* A derived multi-fault schedule end-to-end with re-protection on:
     whatever the draws land on (including kills mid-regeneration), the run
     must never diverge or violate the client oracle. *)
  let s =
    Chaos.derive_multi ~root_seed:11 ~index:2 ~replicas:2
      ~horizon:(Time.sec 4) ~faults:3
  in
  let o =
    Chaosrun.run ~reprotect:true ~workload:Chaosrun.Fileserver ~replicas:2 s
  in
  Alcotest.(check bool) "no consistency failure" false
    (Chaos.verdict_failing o.Chaos.verdict)

(* Schedule #66 of the root-seed-42 mongoose battery with re-protection
   (three faults, a 4 s horizon, the CLI's 100 ms regeneration delay): the
   first primary death leaves a record journaled that the backup never
   received.  The promoted survivor must continue the journal cut back to
   what it received; continuing all of it replays that record on the
   regenerated backup, whose digest then diverges. *)
let test_promoted_journal_prefix () =
  let s =
    Chaos.derive_multi ~root_seed:42 ~index:66 ~replicas:2
      ~horizon:(Time.sec 4) ~faults:3
  in
  let o =
    Chaosrun.run ~reprotect:true ~regen_delay:(Time.ms 100)
      ~workload:Chaosrun.Mongoose ~replicas:2 s
  in
  Alcotest.(check string) "verdict ok" "ok" (Chaos.verdict_label o.Chaos.verdict);
  Alcotest.(check int) "three takeovers" 3 o.Chaos.o_failovers

(* {1 Property: partial-order soundness of the sharded digest}

   The per-channel replay gate grants the secondary exactly this freedom:
   sections on distinct channels (and unrelated syscall folds) may
   interleave differently than on the primary, as long as each channel's
   chan_seq order and each thread's program order hold.  So any two linear
   extensions of that partial order must fold to byte-identical digests —
   per channel, per thread, and combined. *)

type dop =
  | Op_section of { o_pid : int; o_tseq : int; o_chans : (int * int) list }
  | Op_syscall of { o_pid : int; o_val : int }

(* Raw workload: (pid, kind) in program order; thread_seq / chan_seq are
   assigned afterwards so they are consistent by construction. *)
let gen_workload =
  QCheck.Gen.(
    list_size (int_range 10 60)
      (pair (int_range 1 3)
         (oneof
            [
              map (fun c -> `Sec [ c ]) (int_range 0 3);
              map2
                (fun a b ->
                  `Sec (if a = b then [ a ] else [ min a b; max a b ]))
                (int_range 0 3) (int_range 0 3);
              map (fun v -> `Sys v) (int_range 0 1000);
            ])))

let assign_seqs ops =
  let tseq = Hashtbl.create 8 and cseq = Hashtbl.create 8 in
  let next tbl k =
    let v = (try Hashtbl.find tbl k with Not_found -> 0) + 1 in
    Hashtbl.replace tbl k v;
    v
  in
  List.map
    (fun (pid, kind) ->
      match kind with
      | `Sys v -> Op_syscall { o_pid = pid; o_val = v }
      | `Sec chans ->
          Op_section
            {
              o_pid = pid;
              o_tseq = next tseq pid;
              o_chans = List.map (fun c -> (c, next cseq c)) chans;
            })
    ops

(* A seeded linear extension: repeatedly pick, uniformly at random, any
   operation whose predecessors (same thread earlier in program order;
   same channel with a smaller chan_seq) have all run.  The generation
   order itself is always a valid completion, so a ready op always
   exists. *)
let shuffled_extension ~seed ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let rng = Random.State.make [| seed |] in
  let chan_done = Hashtbl.create 8 in
  let cdone c = try Hashtbl.find chan_done c with Not_found -> 0 in
  let thread_next = Hashtbl.create 8 in
  (* thread_next.(pid) = index into that pid's op list *)
  let by_pid = Hashtbl.create 8 in
  Array.iteri
    (fun i op ->
      let pid =
        match op with Op_section s -> s.o_pid | Op_syscall s -> s.o_pid
      in
      Hashtbl.replace by_pid pid (i :: (try Hashtbl.find by_pid pid with Not_found -> [])))
    ops;
  Hashtbl.iter (fun pid l -> Hashtbl.replace by_pid pid (List.rev l)) (Hashtbl.copy by_pid);
  let heads () =
    Hashtbl.fold
      (fun pid _ acc ->
        let pos = try Hashtbl.find thread_next pid with Not_found -> 0 in
        match List.nth_opt (Hashtbl.find by_pid pid) pos with
        | None -> acc
        | Some i ->
            let ready =
              match ops.(i) with
              | Op_syscall _ -> true
              | Op_section s ->
                  List.for_all (fun (c, sq) -> cdone c = sq - 1) s.o_chans
            in
            if ready then i :: acc else acc)
      by_pid []
  in
  let out = ref [] in
  for _ = 1 to n do
    let ready = List.sort compare (heads ()) in
    let i = List.nth ready (Random.State.int rng (List.length ready)) in
    (match ops.(i) with
    | Op_section s ->
        List.iter (fun (c, sq) -> Hashtbl.replace chan_done c sq) s.o_chans;
        let pos = try Hashtbl.find thread_next s.o_pid with Not_found -> 0 in
        Hashtbl.replace thread_next s.o_pid (pos + 1)
    | Op_syscall s ->
        let pos = try Hashtbl.find thread_next s.o_pid with Not_found -> 0 in
        Hashtbl.replace thread_next s.o_pid (pos + 1));
    out := i :: !out
  done;
  List.rev_map (fun i -> ops.(i)) !out

let digest_of ops =
  let d = Digest.create () in
  List.iter
    (fun op ->
      match op with
      | Op_syscall s -> Digest.fold_thread d ~ft_pid:s.o_pid s.o_val
      | Op_section s ->
          Digest.section_end d ~ft_pid:s.o_pid ~thread_seq:s.o_tseq
            ~chans:s.o_chans ~payload:Wire.P_plain)
    ops;
  d

let snaps d =
  List.map
    (fun (ch, ss) ->
      (ch, List.map (fun s -> (s.Digest.snap_section, s.Digest.snap_digest)) ss))
    (Digest.comparable d)

let prop_interleavings_same_digest =
  QCheck.Test.make ~count:60
    ~name:"linear extensions of the channel partial order digest identically"
    (QCheck.make
       QCheck.Gen.(triple gen_workload (int_bound 10_000) (int_bound 10_000)))
    (fun (raw, seed1, seed2) ->
      let ops = assign_seqs raw in
      let d1 = digest_of (shuffled_extension ~seed:seed1 ops) in
      let d2 = digest_of (shuffled_extension ~seed:(seed2 + 20_001) ops) in
      Digest.value d1 = Digest.value d2
      && snaps d1 = snaps d2
      && Digest.sections d1 = Digest.sections d2
      && Digest.compare_replicas ~primary:d1 ~secondary:d2 = None)

(* ...and the property is not vacuous: breaking a channel's chan_seq order
   (an interleaving the replay gate would never admit) changes the digest
   and is localized to that channel. *)
let test_interleaving_order_violation_detected () =
  let ops =
    assign_seqs
      [ (1, `Sec [ 0 ]); (1, `Sec [ 1 ]); (2, `Sec [ 1 ]); (2, `Sec [ 0 ]) ]
  in
  let good = digest_of ops in
  let swapped =
    match ops with
    | [ a; b; c; d ] ->
        (* Channel 1 carries sections seq 1 (thread 1) then seq 2 (thread
           2); replay them transposed. *)
        digest_of [ a; c; b; d ]
    | _ -> assert false
  in
  match Digest.compare_replicas ~primary:good ~secondary:swapped with
  | None -> Alcotest.fail "transposed channel stream not flagged"
  | Some dv ->
      Alcotest.(check (option int)) "localized to channel 1" (Some 1)
        dv.Digest.in_channel

let () =
  Alcotest.run "chaos"
    [
      ( "derive",
        [
          Alcotest.test_case "deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "in bounds" `Quick test_derive_in_bounds;
          Alcotest.test_case "multi-fault bounds" `Quick
            test_derive_multi_bounds;
        ] );
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "execution sensitive" `Quick
            test_digest_execution_sensitive;
          Alcotest.test_case "seal bounds" `Quick test_digest_seal_bounds;
          Alcotest.test_case "thread divergence located" `Quick
            test_digest_thread_divergence_located;
        ] );
      ( "shrink",
        [ Alcotest.test_case "converges" `Quick test_shrink_converges ] );
      ( "partial-order",
        [
          QCheck_alcotest.to_alcotest prop_interleavings_same_digest;
          Alcotest.test_case "order violation detected" `Quick
            test_interleaving_order_violation_detected;
        ] );
      ( "campaign",
        [ Alcotest.test_case "report" `Quick test_campaign_report ] );
      ( "domain-pool",
        [
          Alcotest.test_case "byte-identical merge" `Quick
            test_parallel_merge_byte_identical;
          Alcotest.test_case "byte-identical real runs" `Slow
            test_parallel_real_runs_byte_identical;
          Alcotest.test_case "shrink reproducible across jobs" `Slow
            test_parallel_shrink_reproducible;
          Alcotest.test_case "worker crash contained" `Quick
            test_worker_crash_contained;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "mutation flagged" `Quick test_mutation_flagged;
          Alcotest.test_case "derived schedule clean" `Quick test_chaos_run_clean;
          Alcotest.test_case "parallel replay clean" `Quick
            test_chaos_parallel_replay_clean;
          Alcotest.test_case "three-replica winner death" `Quick
            test_three_replica_winner_death;
          Alcotest.test_case "three-fault reprotect clean" `Quick
            test_three_fault_reprotect_clean;
          Alcotest.test_case "derived multi-fault reprotect clean" `Quick
            test_derive_multi_run_clean;
          Alcotest.test_case "promoted journal is the received prefix" `Quick
            test_promoted_journal_prefix;
        ] );
    ]
