(* Live re-protection: online backup regeneration behind the epoch-based
   replica-lifecycle API.  Covers the full
   Protected -> Degraded -> Regenerating -> Protected cycle, the gapless
   epoch-switch cursor handoff, clean aborts when the regeneration target
   dies mid-transfer, backup-death re-protection, arbitrary-length fault
   sequences with digests checked across every epoch, and a divergence
   seeded into a regenerated backup. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

let test_config =
  {
    Cluster.default_config with
    topology = Topology.small;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 200;
    reprotect = true;
    regen_delay = Time.ms 50;
  }

let gbit_link eng =
  Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

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

(* Paced echo client: a long-lived connection whose traffic spans the
   failover, the regeneration, and the epoch(s) after it. *)
let run_scenario ?(config = test_config) ?(pace = Time.ms 25) ~messages eng =
  let link = gbit_link eng in
  let cluster =
    Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app:echo_app ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 256 in
         List.iteri
           (fun i msg ->
             if i > 0 then Engine.sleep pace;
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
  (cluster, result)

let check_clean cluster =
  (match Cluster.compare_digests cluster with
  | None -> ()
  | Some d -> Alcotest.failf "digest divergence at section %d" d.Digest.at_section);
  match Cluster.replay_divergence cluster with
  | None -> ()
  | Some d -> Alcotest.failf "replay divergence: %s" d

let lifecycle_path cluster =
  List.map
    (fun tr -> (tr.Cluster.tr_from, tr.Cluster.tr_to))
    (Cluster.transitions cluster)

(* {1 One full cycle} *)

let full_cycle () =
  let eng = Engine.create () in
  let messages = List.init 40 (fun i -> Printf.sprintf "msg-%02d|" i) in
  let cluster, result = run_scenario ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  (cluster, messages, result)

let test_reprotect_cycle () =
  let cluster, messages, result = full_cycle () in
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "complete, unduplicated stream"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish");
  Alcotest.(check bool) "re-protected" true (Cluster.state cluster = Cluster.Protected);
  Alcotest.(check int) "epoch advanced" 1 (Cluster.epoch cluster);
  Alcotest.(check int) "one failover" 1 (Cluster.failover_count cluster);
  Alcotest.(check bool) "lifecycle path" true
    (lifecycle_path cluster
    = [
        (Cluster.Protected, Cluster.Degraded);
        (Cluster.Degraded, Cluster.Regenerating);
        (Cluster.Regenerating, Cluster.Protected);
      ]);
  check_clean cluster

(* {1 Epoch-switch boundary: gapless cursor handoff} *)

let test_epoch_switch_boundary () =
  let eng = Engine.create () in
  let messages = List.init 40 (fun i -> Printf.sprintf "b%02d." i) in
  let cluster, _result = run_scenario ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  Alcotest.(check int) "epoch advanced" 1 (Cluster.epoch cluster);
  (match (Cluster.switch_cutoff cluster, Cluster.backup_first_lsn cluster) with
  | Some cutoff, Some first ->
      Alcotest.(check int)
        "new backup's first consumed LSN is exactly the snapshot cutoff"
        cutoff first
  | Some _, None ->
      Alcotest.fail "regenerated backup never consumed a wire record"
  | None, _ -> Alcotest.fail "no epoch switch recorded");
  (* The regenerated pair keeps replicating after the switch. *)
  Alcotest.(check bool) "post-switch records flowed" true
    (Cluster.backup_first_lsn cluster <> None
    && Cluster.records_sent cluster > Option.get (Cluster.switch_cutoff cluster));
  check_clean cluster

(* {1 Fault mid-snapshot-transfer aborts cleanly; the retry succeeds} *)

let abort_mid_transfer () =
  let eng = Engine.create () in
  (* A populated memory layout gives the snapshot copy a real budget
     (~200 ms at the default 2 GB/s), widening the Regenerating window the
     second fault must land in. *)
  let layout = Memlayout.create ~ram_bytes:(1 * 1024 * 1024 * 1024) in
  Memlayout.alloc_user layout (400 * 1024 * 1024);
  let config = { test_config with regen_layout = Some layout } in
  let messages = List.init 60 (fun i -> Printf.sprintf "msg-%02d|" i) in
  let cluster, result = run_scenario ~config ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  let killed_target = ref false in
  Cluster.on_transition cluster (fun tr ->
      if tr.Cluster.tr_to = Cluster.Regenerating && not !killed_target then begin
        killed_target := true;
        (* Mid-transfer: well inside the copy window. *)
        Cluster.kill cluster ~role:Replica_set.Backup
          ~at:(tr.Cluster.tr_at + Time.ms 60)
      end);
  Engine.run ~until:(Time.sec 60) eng;
  Cluster.shutdown cluster;
  (cluster, messages, result)

let test_abort_mid_transfer () =
  let cluster, messages, result = abort_mid_transfer () in
  (* The primary was unperturbed throughout: the client saw a full,
     exactly-once stream. *)
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "primary unperturbed by the aborted regen"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish");
  Alcotest.(check bool) "abort recorded" true
    (List.mem
       (Cluster.Regenerating, Cluster.Degraded)
       (lifecycle_path cluster));
  Alcotest.(check bool) "retry re-protected the set" true
    (Cluster.state cluster = Cluster.Protected);
  Alcotest.(check int) "single failover across abort and retry" 1
    (Cluster.failover_count cluster);
  Alcotest.(check int) "epoch advanced once" 1 (Cluster.epoch cluster);
  check_clean cluster

(* {1 The splice instant}

   A regeneration ends at the feed's first check that finds the journal
   fed, the fresh replica's replay idle and the snapshot copied.  With
   nothing to copy that is 5 us in: one 64-record burst, then its 5 us
   sleep.  With a copy budget it is the first 50 us poll at or after the
   copy deadline. *)

let regenerations cluster =
  let rec windows = function
    | { Cluster.tr_to = Cluster.Regenerating; tr_at = start; _ }
      :: ({ Cluster.tr_to = Cluster.Protected; tr_at = stop; _ } :: _ as rest)
      ->
        (start, stop) :: windows rest
    | _ :: rest -> windows rest
    | [] -> []
  in
  windows (Cluster.transitions cluster)

let test_splice_instant () =
  let cycle, _, _ = full_cycle () in
  Alcotest.(check (list (pair int int)))
    "no copy budget: the splice follows the first burst"
    [ (Time.us 397_000, Time.us 397_005) ]
    (regenerations cycle);
  (* 400 MiB of user pages at 2 GB/s: a 209.7152 ms budget from 507 ms,
     so the deadline falls at 716.7152 ms. *)
  let aborted, _, _ = abort_mid_transfer () in
  Alcotest.(check (list (pair int int)))
    "copy budget: the splice is the first poll past the deadline"
    [ (Time.ms 507, Time.us 716_745) ]
    (regenerations aborted)

(* {1 The journal handoff}

   A regeneration replays the journal the promoted survivor continued.
   The second takeover's survivor is itself a regenerated backup, so its
   journal crosses an epoch switch: the cutoffs pin both the journal it
   was spliced from and the prefix it took over with. *)

let test_journal_handoff () =
  let eng = Engine.create () in
  let messages = List.init 40 (fun i -> Printf.sprintf "j%02d." i) in
  let cluster, result = run_scenario ~pace:(Time.ms 40) ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  let cutoffs = ref [] and firsts = ref [] in
  Cluster.on_transition cluster (fun tr ->
      match tr.Cluster.tr_to with
      | Cluster.Protected ->
          cutoffs := Cluster.switch_cutoff cluster :: !cutoffs;
          if List.length !cutoffs = 1 then
            Cluster.kill cluster ~role:Replica_set.Primary
              ~at:(tr.Cluster.tr_at + Time.ms 150)
      | Cluster.Degraded when !cutoffs <> [] ->
          (* The spliced backup is the one about to take over. *)
          firsts := Cluster.backup_first_lsn cluster :: !firsts
      | _ -> ());
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  firsts := Cluster.backup_first_lsn cluster :: !firsts;
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "exactly-once stream across both takeovers"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish");
  Alcotest.(check (list (option int)))
    "cutoff at each splice" [ Some 15; Some 20 ] (List.rev !cutoffs);
  Alcotest.(check (list (option int)))
    "each spliced backup's first LSN is its cutoff" (List.rev !cutoffs)
    (List.rev !firsts);
  Alcotest.(check int) "two failovers" 2 (Cluster.failover_count cluster);
  Alcotest.(check int) "epoch 2" 2 (Cluster.epoch cluster);
  Alcotest.(check bool) "protected at the end" true
    (Cluster.state cluster = Cluster.Protected);
  check_clean cluster

(* {1 Backup death: the primary degrades, keeps recording, re-protects} *)

let test_backup_death_reprotects () =
  let eng = Engine.create () in
  let messages = List.init 40 (fun i -> Printf.sprintf "kb%02d." i) in
  let cluster, result = run_scenario ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Backup ~at:(Time.ms 120);
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string) "service uninterrupted"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish");
  Alcotest.(check bool) "re-protected" true
    (Cluster.state cluster = Cluster.Protected);
  Alcotest.(check int) "no failover (primary never moved)" 0
    (Cluster.failover_count cluster);
  Alcotest.(check int) "epoch advanced" 1 (Cluster.epoch cluster);
  (match (Cluster.switch_cutoff cluster, Cluster.backup_first_lsn cluster) with
  | Some cutoff, Some first -> Alcotest.(check int) "gapless handoff" cutoff first
  | _ -> Alcotest.fail "no epoch switch recorded");
  check_clean cluster

(* {1 Multi-fault campaign: three consecutive kill -> regenerate cycles} *)

let test_three_fault_campaign () =
  let eng = Engine.create () in
  let messages = List.init 80 (fun i -> Printf.sprintf "c%03d|" i) in
  let cluster, result = run_scenario ~pace:(Time.ms 40) ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  let kills = ref 1 in
  Cluster.on_transition cluster (fun tr ->
      if tr.Cluster.tr_to = Cluster.Protected && !kills < 3 then begin
        incr kills;
        Cluster.kill cluster ~role:Replica_set.Primary
          ~at:(tr.Cluster.tr_at + Time.ms 150)
      end);
  Engine.run ~until:(Time.sec 120) eng;
  Cluster.shutdown cluster;
  (match Ivar.peek result with
  | Some s ->
      Alcotest.(check string)
        "exactly-once TCP stream across all three failovers"
        (String.concat "" messages) s
  | None -> Alcotest.fail "client did not finish the campaign");
  Alcotest.(check int) "three failovers" 3 (Cluster.failover_count cluster);
  Alcotest.(check int) "three epochs" 3 (Cluster.epoch cluster);
  Alcotest.(check bool) "protected at the end" true
    (Cluster.state cluster = Cluster.Protected);
  (* Digests clean in every epoch: every closed pair and the live one. *)
  check_clean cluster

(* {1 Lagmon: a monitor replaced by a planned switch reports Retired} *)

let test_lagmon_retired_on_switch () =
  let eng = Engine.create () in
  let config =
    {
      test_config with
      lagmon = Some { Lagmon.default_config with quiet = true };
    }
  in
  let messages = List.init 40 (fun i -> Printf.sprintf "lm%02d." i) in
  let cluster, _result = run_scenario ~config ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  Alcotest.(check int) "epoch advanced" 1 (Cluster.epoch cluster);
  (match Cluster.lagmons cluster with
  | [ ("lag", m0); ("lag.e1", m1) ] ->
      Alcotest.(check string) "epoch-0 monitor retired by the planned switch"
        "retired"
        (Lagmon.verdict_label (Lagmon.verdict m0));
      Alcotest.(check bool) "current monitor is live (not retired)" true
        (Lagmon.verdict m1 <> Lagmon.Retired)
  | mons ->
      Alcotest.failf "unexpected monitor set: [%s]"
        (String.concat "; " (List.map fst mons)));
  check_clean cluster

(* {1 Primary death during regeneration is an outage, not a rogue replica} *)

let test_outage_when_primary_dies_regenerating () =
  let eng = Engine.create () in
  let layout = Memlayout.create ~ram_bytes:(1 * 1024 * 1024 * 1024) in
  Memlayout.alloc_user layout (400 * 1024 * 1024);
  let config = { test_config with regen_layout = Some layout } in
  let messages = List.init 60 (fun i -> Printf.sprintf "o%02d." i) in
  let cluster, _result = run_scenario ~config ~messages eng in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  let killed = ref false in
  Cluster.on_transition cluster (fun tr ->
      if tr.Cluster.tr_to = Cluster.Regenerating && not !killed then begin
        killed := true;
        Cluster.kill cluster ~role:Replica_set.Primary
          ~at:(tr.Cluster.tr_at + Time.ms 60)
      end);
  Engine.run ~until:(Time.sec 60) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "outage declared" true
    (Cluster.state cluster = Cluster.Outage);
  (* The half-replayed regeneration target must never go live: every
     member's partition is down. *)
  Alcotest.(check bool) "all members halted" true
    (Cluster.all_halted cluster);
  check_clean cluster

(* {1 The replica-set surface: lifecycle, epochs, takeovers, members} *)

let test_replica_set_surface () =
  let eng = Engine.create () in
  let messages = List.init 20 (fun i -> Printf.sprintf "rs%02d." i) in
  let cluster, _result = run_scenario ~messages eng in
  Alcotest.(check bool) "protected at launch" true
    (Cluster.state cluster = Cluster.Protected);
  Alcotest.(check int) "epoch 0" 0 (Cluster.epoch cluster);
  Cluster.kill cluster ~role:Replica_set.Primary ~at:(Time.ms 120);
  Engine.run ~until:(Time.sec 30) eng;
  Cluster.shutdown cluster;
  Alcotest.(check int) "epoch 1" 1 (Cluster.epoch cluster);
  Alcotest.(check int) "one takeover" 1 (Cluster.failover_count cluster);
  (match Cluster.members cluster with
  | [ p; b ] ->
      Alcotest.(check bool) "primary role listed" true
        (p.Replica_set.m_role = Replica_set.Primary);
      Alcotest.(check bool) "the survivor holds it" true
        (p.Replica_set.m_partition == Cluster.primary_partition cluster);
      Alcotest.(check int) "regenerated backup joined at epoch 1" 1
        b.Replica_set.m_epoch
  | _ -> Alcotest.fail "expected exactly two members");
  check_clean cluster

(* {1 The regenerated backup's digest is paired with the primary's}

   Skipping one digest fold on the fresh backup must surface as a
   divergence, after either role's death.  The mutation waits one event:
   the Regenerating transition fires before the fresh namespace is in
   place. *)

let run_mongoose_probe ~role ~mutate =
  let eng = Engine.create ~seed:7 () in
  let link = gbit_link eng in
  let app api =
    Mongoose.run
      ~params:{ Mongoose.default_params with cpu_per_request = Time.ms 1 }
      api
  in
  let cluster =
    Cluster.create eng ~config:test_config ~link:(Link.endpoint_a link) ~app ()
  in
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let oracle =
    Loadgen.verified_start client ~server:"10.0.0.1" ~port:80 ~target:"/"
      ~expect_bytes:Mongoose.default_params.page_bytes ~requests:600 ()
  in
  Cluster.kill cluster ~role ~at:(Time.ms 150);
  let armed = ref false in
  Cluster.on_transition cluster (fun tr ->
      if mutate && tr.Cluster.tr_to = Cluster.Regenerating && not !armed then begin
        armed := true;
        Engine.schedule eng ~at:tr.Cluster.tr_at (fun () ->
            Namespace.mutate_skip_digest
              (Cluster.backup_namespace cluster 0)
              ~global_seq:5)
      end);
  Engine.run ~until:(Time.sec 5) eng;
  Cluster.shutdown cluster;
  Alcotest.(check bool) "client oracle holds" true (Loadgen.oracle_ok oracle);
  Alcotest.(check int) "all requests verified" 600 oracle.Loadgen.completed;
  Alcotest.(check int) "epoch advanced" 1 (Cluster.epoch cluster);
  cluster

let test_regenerated_digest_paired role () =
  check_clean (run_mongoose_probe ~role ~mutate:false);
  match Cluster.compare_digests (run_mongoose_probe ~role ~mutate:true) with
  | Some d ->
      Alcotest.(check int) "divergence at the skipped fold" 6
        d.Digest.at_section
  | None -> Alcotest.fail "the regenerated backup's digest is never compared"

let () =
  Alcotest.run "reprotect"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "full cycle" `Quick test_reprotect_cycle;
          Alcotest.test_case "replica-set surface" `Quick
            test_replica_set_surface;
          Alcotest.test_case "lagmon retired on switch" `Quick
            test_lagmon_retired_on_switch;
        ] );
      ( "epoch-switch",
        [
          Alcotest.test_case "gapless cursor handoff" `Quick
            test_epoch_switch_boundary;
          Alcotest.test_case "backup death re-protects" `Quick
            test_backup_death_reprotects;
          Alcotest.test_case "splice instant" `Quick test_splice_instant;
          Alcotest.test_case "journal handoff" `Quick test_journal_handoff;
        ] );
      ( "faults",
        [
          Alcotest.test_case "abort mid-transfer, retry succeeds" `Quick
            test_abort_mid_transfer;
          Alcotest.test_case "outage when primary dies regenerating" `Quick
            test_outage_when_primary_dies_regenerating;
          Alcotest.test_case "three-fault campaign" `Slow
            test_three_fault_campaign;
        ] );
      ( "digests",
        [
          Alcotest.test_case "regenerated backup paired after backup death"
            `Quick
            (test_regenerated_digest_paired Replica_set.Backup);
          Alcotest.test_case "regenerated backup paired after primary death"
            `Quick
            (test_regenerated_digest_paired Replica_set.Primary);
        ] );
    ]
