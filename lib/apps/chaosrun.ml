open Ftsim_sim
open Ftsim_hw
open Ftsim_netstack
open Ftsim_ftlinux

type workload = Fileserver | Mongoose

let workload_of_string = function
  | "fileserver" -> Ok Fileserver
  | "mongoose" -> Ok Mongoose
  | s -> Error (Printf.sprintf "unknown workload %S (fileserver|mongoose)" s)

let workload_to_string = function
  | Fileserver -> "fileserver"
  | Mongoose -> "mongoose"

let small4 =
  {
    Topology.sockets = 4;
    cores_per_socket = 2;
    numa_nodes = 4;
    ram_bytes = 8 * 1024 * 1024 * 1024;
  }

let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"

(* Workload sizing: the active window should overlap the schedule's fault
   window, so the transfer is made long enough that mid-stream and
   mid-failover faults are common draws. *)
let app_and_oracle ?(listen_shards = 1) ?admission workload =
  (* The oracle is one sequential connection, so any admission limit >= 1
     admits it; [allow_shed] still arms the oracle for the exact-503 retry
     path in case a shed does land (e.g. a limit shared with future load). *)
  let allow_shed = admission <> None in
  match workload with
  | Fileserver ->
      let bytes = 32 * 1024 * 1024 in
      let app api =
        Fileserver.run
          ~params:
            {
              Fileserver.default_params with
              file_bytes = bytes;
              listen_shards;
              admission;
            }
          api
      in
      let oracle client =
        (* The file server closes the connection after one response. *)
        Loadgen.verified_start client ~server:server_ip ~port:80 ~target:"/f"
          ~expect_bytes:bytes ~requests:1 ~allow_shed ()
      in
      (app, oracle)
  | Mongoose ->
      let page = 10 * 1024 in
      let app api =
        Mongoose.run
          ~params:
            {
              Mongoose.default_params with
              page_bytes = page;
              cpu_per_request = Time.ms 1;
              listen_shards;
              admission;
            }
          api
      in
      let oracle client =
        Loadgen.verified_start client ~server:server_ip ~port:80 ~target:"/"
          ~expect_bytes:page ~requests:300 ~allow_shed ()
      in
      (app, oracle)

(* Each injection resolves its target partition at fire time: with
   re-protection roles move across failovers and epoch switches, and
   without it the accessors name the original assignment.  A target
   already halted (a backup hit again before its regeneration finished)
   absorbs the fault as a no-op. *)
let inject_schedule eng cluster ~backups sched =
  List.iter
    (fun (i : Chaos.injection) ->
      Engine.schedule eng ~at:i.Chaos.inj_at (fun () ->
          let part =
            match i.Chaos.inj_target with
            | Chaos.T_primary -> Cluster.primary_partition cluster
            | Chaos.T_backup b -> Cluster.backup_partition cluster (b mod backups)
          in
          if not (Partition.is_halted part) then
            Machine.apply (Cluster.machine cluster)
              (Fault.at
                 ~disrupts_coherency:i.Chaos.inj_disrupts (Engine.now eng)
                 ~partition_id:(Partition.id part) i.Chaos.inj_kind)))
    sched.Chaos.injections

let perturb_schedule eng link sched =
  List.iter
    (fun p ->
      Engine.schedule eng ~at:p.Chaos.pert_at (fun () ->
          Link.perturb (Link.endpoint_a link) ~loss:p.Chaos.pert_loss
            ~delay:p.Chaos.pert_delay ();
          Link.perturb (Link.endpoint_b link) ~loss:p.Chaos.pert_loss
            ~delay:p.Chaos.pert_delay ());
      Engine.schedule eng
        ~at:(p.Chaos.pert_at + p.Chaos.pert_dur)
        (fun () ->
          Link.clear_perturbation (Link.endpoint_a link);
          Link.clear_perturbation (Link.endpoint_b link)))
    sched.Chaos.perturbations

(* Stop the run once the oracle has finished AND every scheduled event has
   fired and had time to play out (a post-completion fault still exercises
   failover and the digest comparison). *)
let spawn_stopper eng oracle sched =
  let last_event =
    List.fold_left
      (fun acc (i : Chaos.injection) -> max acc i.inj_at)
      0 sched.Chaos.injections
    |> fun acc ->
    List.fold_left
      (fun acc (p : Chaos.perturbation) -> max acc (p.pert_at + p.pert_dur))
      acc sched.Chaos.perturbations
  in
  ignore
    (Engine.spawn eng ~name:"chaos-stopper" (fun () ->
         Ivar.read oracle.Loadgen.oracle_done;
         Engine.sleep_until
           (max (Engine.now eng + Time.ms 200) (last_event + Time.ms 500));
         Engine.stop eng))

let judge ~oracle ~all_halted ~replay_div ~digest_div ~failovers ~sections
    ~end_at ~lag =
  let verdict =
    match replay_div with
    | Some msg -> Chaos.V_divergence ("replay mismatch: " ^ msg)
    | None -> (
        match digest_div with
        | Some d ->
            Chaos.V_divergence
              (Printf.sprintf "digest mismatch %s (primary %#x, secondary %#x%s)"
                 (match (d.Digest.in_thread, d.Digest.in_channel) with
                 | Some pid, _ ->
                     Printf.sprintf "in thread %d at syscall %d" pid
                       d.Digest.at_section
                 | None, Some ch ->
                     Printf.sprintf "in channel %d at section %d" ch
                       d.Digest.at_section
                 | None, None ->
                     Printf.sprintf "at section %d" d.Digest.at_section)
                 d.Digest.primary_digest d.Digest.secondary_digest
                 (match d.Digest.after_commit_lsn with
                 | Some lsn -> Printf.sprintf ", after committed lsn %d" lsn
                 | None -> ", before any commit"))
        | None ->
            if oracle.Loadgen.violations <> [] then
              Chaos.V_client_violation
                (String.concat "; " (List.rev oracle.Loadgen.violations))
            else if
              oracle.Loadgen.truncated
              || oracle.Loadgen.completed < oracle.Loadgen.requests
            then
              if all_halted then Chaos.V_outage
              else
                Chaos.V_client_violation
                  (Printf.sprintf
                     "stream ended after %d/%d responses with a replica alive"
                     oracle.Loadgen.completed oracle.Loadgen.requests)
            else Chaos.V_ok)
  in
  {
    Chaos.verdict;
    o_failovers = failovers;
    o_completed = oracle.Loadgen.completed;
    o_sections = sections;
    o_end = end_at;
    o_lag = lag;
  }

(* The worst replication-health verdict any of the run's monitors saw, as
   the label the campaign report serializes.  [Retired] is a planned epoch
   switch, not a health event, so retired epochs' monitors don't taint the
   label — unless every monitor retired, which can't happen (the current
   epoch's monitor is never retired). *)
let lag_label lagmons =
  match lagmons with
  | [] -> None
  | lms ->
      Some
        (Lagmon.verdict_label
           (List.fold_left
              (fun acc lm ->
                match Lagmon.worst lm with
                | Lagmon.Retired -> acc
                | v -> Lagmon.worse acc v)
              Lagmon.Ok lms))

let arm_stats eng sched = function
  | None -> ()
  | Some every ->
      Statsdump.arm eng ~every ~label:(Printf.sprintf "#%03d" sched.Chaos.sched_index)

let config ?(det_shard = Cluster.default_config.Cluster.det_shard)
    ?(replay_workers = Cluster.default_config.Cluster.replay_workers)
    ?(reprotect = Cluster.default_config.Cluster.reprotect)
    ?(regen_delay = Time.ms 50) ~replicas () =
  {
    (* Slo's small machine, tight failure detection and fast driver
       reload: one chaos run settles in a couple of simulated seconds
       instead of the paper's ~5 s recovery, so a 50-schedule campaign
       stays cheap.  Two backups need NUMA nodes that divide four ways. *)
    Slo.default_config with
    Cluster.topology = (if replicas = 2 then Topology.small else small4);
    (* Replication health is monitored on every chaos run, quietly: gauges
       and verdicts update but nothing reaches the Evlog, so repro traces
       stay byte-identical to monitor-off runs.  [stall_after] (150 ms)
       sits far above the 25 ms heartbeat timeout: a dead peer is detected
       and the monitor frozen long before a stall could be declared. *)
    lagmon = Some { Lagmon.default_config with Lagmon.quiet = true };
    replicas;
    det_shard;
    replay_workers;
    reprotect;
    regen_delay;
  }

let run ?on_trace ?stats_interval ?(mutate = false) ?det_shard ?replay_workers
    ?reprotect ?regen_delay ?listen_shards ?admission ~workload ~replicas sched
    =
  (* Only [on_trace] reads the trace: without it a small ring will do. *)
  let evlog_cap = if on_trace = None then Some 4096 else None in
  let eng = Engine.create ~seed:sched.Chaos.sched_seed ?evlog_cap () in
  arm_stats eng sched stats_interval;
  let link =
    Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
      ~seed_split:(Engine.prng eng) ()
  in
  let app, mk_oracle = app_and_oracle ?listen_shards ?admission workload in
  let cluster =
    Cluster.create eng
      ~config:
        (config ?det_shard ?replay_workers ?reprotect ?regen_delay ~replicas ())
      ~link:(Link.endpoint_a link) ~app ()
  in
  if mutate then
    Namespace.mutate_skip_digest (Cluster.backup_namespace cluster 0)
      ~global_seq:0;
  inject_schedule eng cluster ~backups:(replicas - 1) sched;
  perturb_schedule eng link sched;
  let client = Host.create eng ~ip:client_ip (Link.endpoint_b link) in
  let oracle = mk_oracle client in
  spawn_stopper eng oracle sched;
  Engine.run ~until:sched.Chaos.horizon eng;
  Cluster.shutdown cluster;
  let sections =
    match Namespace.digest (Cluster.primary_namespace cluster) with
    | Some d -> Digest.comparison_points d
    | None -> 0
  in
  let outcome =
    judge ~oracle ~all_halted:(Cluster.all_halted cluster)
      ~replay_div:(Cluster.replay_divergence cluster)
      ~digest_div:(Cluster.compare_digests cluster)
      ~failovers:(Cluster.failover_count cluster)
      ~sections ~end_at:(Engine.now eng)
      ~lag:(lag_label (List.map snd (Cluster.lagmons cluster)))
  in
  (match on_trace with Some f -> f (Engine.evlog eng) | None -> ());
  outcome
