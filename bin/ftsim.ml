(* ftsim: run FT-Linux simulation scenarios ad hoc from the command line.

   Subcommands mirror the paper's workloads; every knob of the model
   (partitioning, block sizes, CPU loads, failure time, driver reload) is a
   flag.  `dune exec bin/ftsim.exe -- --help` lists everything. *)

open Cmdliner
open Ftsim_sim
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

(* {1 Common flags} *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let replicated_t =
  Arg.(
    value & opt bool true
    & info [ "replicated" ] ~docv:"BOOL"
        ~doc:"Run under FT-Linux replication (false = plain kernel).")

let fail_at_t =
  Arg.(
    value & opt (some int) None
    & info [ "fail-at-ms" ] ~docv:"MS"
        ~doc:"Fail-stop the primary partition at this simulated time.")

(* {1 Cluster flags}

   One term builds the [Cluster.config] of every cluster subcommand.  Each
   flag's default comes from the subcommand's base config, so [--driver-ms]
   defaults to 4950 in general and to 200 for [slo]. *)

(* The CLI monitors replication health unless told otherwise. *)
let base_config =
  { Cluster.default_config with Cluster.lagmon = Some Lagmon.default_config }

let on_off = Arg.enum [ ("on", true); ("off", false) ]

let ms_flag names ~default ~doc =
  Term.(
    const Time.ms
    $ Arg.(value & opt int (default / Time.ms 1) & info names ~docv:"MS" ~doc))

(* [--batch-window 0] disables batching outright (one frame per record,
   the pre-batching behaviour). *)
let batch_t (base : Cluster.config) =
  let window =
    Arg.(
      value
      & opt int (base.batch.Msglayer.batch_window / Time.us 1)
      & info [ "batch-window" ] ~docv:"USEC"
          ~doc:
            "Maximum time a staged sync-tuple batch may wait before its frame \
             is flushed.  $(docv) of 0 disables batching entirely.")
  in
  let bytes =
    Arg.(
      value
      & opt int base.batch.Msglayer.batch_bytes
      & info [ "batch-bytes" ] ~docv:"BYTES"
          ~doc:"Flush a staged batch frame once it reaches $(docv) bytes.")
  in
  let batch window_us bytes =
    if window_us = 0 then Msglayer.unbatched
    else
      {
        base.batch with
        Msglayer.batch_window = Time.us window_us;
        batch_bytes = bytes;
      }
  in
  Term.(const batch $ window $ bytes)

let det_shard_t (base : Cluster.config) =
  Arg.(
    value
    & opt on_off base.det_shard
    & info [ "det-shard" ] ~docv:"on|off"
        ~doc:
          "Per-object channels for deterministic sections (the sharded \
           replication core).  $(b,off) restores the namespace-global mutex \
           and total sync-tuple order.")

let replay_workers_t (base : Cluster.config) =
  Arg.(
    value & opt int base.replay_workers
    & info [ "replay-workers" ] ~docv:"N"
        ~doc:
          "Backup replay-executor pool size.  $(b,1) (default) is the pool \
           with no executor process: the receive loop replays every record, \
           the serial drain.  Above 1, thread-waking records fan out to N \
           executors and only the per-channel x per-thread partial order \
           serializes replay (most effective with $(b,--det-shard on)).")

let lagmon_t (base : Cluster.config) =
  let quiet = { Lagmon.default_config with Lagmon.quiet = true } in
  Arg.(
    value
    & opt
        (enum
           [
             ("on", Some Lagmon.default_config);
             ("quiet", Some quiet);
             ("off", None);
           ])
        base.lagmon
    & info [ "lagmon" ] ~docv:"on|quiet|off"
        ~doc:
          "Replication-health monitor: sample the primary's append LSN vs \
           the backup's ack watermark (overall and per Det channel), replay \
           queue depth and ack RTT, publishing lag.* gauges and a health \
           verdict.  $(b,quiet) keeps the gauges but suppresses Evlog \
           emission (same-seed traces stay byte-identical to $(b,off)); \
           sampling never perturbs the deterministic replay order.")

let reprotect_t (base : Cluster.config) =
  Arg.(
    value
    & opt on_off base.reprotect
    & info [ "reprotect" ] ~docv:"on|off"
        ~doc:
          "Live re-protection: after a replica death the survivor keeps \
           serving while journaling the record stream, the failed partition \
           is recommissioned, a fresh backup boots and replays online, and \
           an epoch switch at the primary's next LSN splices it into the \
           live stream — restoring $(b,Protected) instead of running \
           unprotected to the end of the run.  Two replicas only.")

let regen_delay_t (base : Cluster.config) =
  ms_flag [ "regen-delay" ] ~default:base.regen_delay
    ~doc:
      "Dwell in $(b,Degraded) before regeneration starts, and between \
       retries after an aborted regeneration (only meaningful with \
       $(b,--reprotect on))."

(* A subcommand is offered only the flags its runs can use: [~reload:false]
   (no NIC, or no failure to move it) drops [--driver-ms];
   [~reprotect:false] (three replicas, no failure, or a report that needs
   the takeover's own timestamps) drops [--reprotect] and [--regen-delay].
   A dropped flag keeps the base config's value. *)
let cluster_t ?(reload = true) ?(reprotect = true) (base : Cluster.config) =
  let offer on flag v = if on then flag else Term.const v in
  let config batch det_shard replay_workers lagmon reprotect regen_delay
      driver_load_time =
    { base with Cluster.batch; det_shard; replay_workers; lagmon; reprotect;
      regen_delay; driver_load_time }
  in
  Term.(
    const config $ batch_t base $ det_shard_t base $ replay_workers_t base
    $ lagmon_t base
    $ offer reprotect (reprotect_t base) base.reprotect
    $ offer reprotect (regen_delay_t base) base.regen_delay
    $ offer reload
        (ms_flag [ "driver-ms" ] ~default:base.driver_load_time
           ~doc:"NIC driver reload time at failover.")
        base.driver_load_time)

(* The lifecycle line (with re-protection on), then every epoch's monitor,
   oldest first: "lag", then "lag.e1", ... for a pair, "lag.b0", "lag.b1",
   ... with more backups.  Monitors of epochs replaced by a planned switch
   report the Retired verdict. *)
let print_cluster (config : Cluster.config) c =
  if config.reprotect then begin
    let n = Cluster.failover_count c in
    Printf.printf "lifecycle: %s (epoch %d, %d takeover%s, %d transitions)\n"
      (Replica_set.lifecycle_label (Cluster.state c))
      (Cluster.epoch c) n
      (if n = 1 then "" else "s")
      (List.length (Cluster.transitions c))
  end;
  List.iter
    (fun (name, lm) ->
      Printf.printf "replication health (%s): %s (worst %s over %d samples)\n"
        name
        (Lagmon.verdict_label (Lagmon.verdict lm))
        (Lagmon.verdict_label (Lagmon.worst lm))
        (Lagmon.samples lm))
    (Cluster.lagmons c)

let stats_interval_t =
  Arg.(
    value & opt (some int) None
    & info [ "stats-interval" ] ~docv:"MS"
        ~doc:
          "Print a one-line metric snapshot (lag, msglayer, replay, det \
           instruments) to stderr every $(docv) of simulated time.")

(* {2 C10K serving-path knobs} *)

let listen_shards_t =
  Arg.(
    value & opt int 1
    & info [ "listen-shards" ] ~docv:"N"
        ~doc:
          "Accept-queue shards (SO_REUSEPORT-style listener group): \
           incoming connections are SYN-hash-routed by 4-tuple to one of \
           $(docv) per-shard accept queues, each drained by its own \
           acceptor thread.  $(b,1) (default) is the classic single \
           listener, byte-identical to the pre-sharding path.")

let default_admission_limit = 64

(* --admission off | on | <limit>: "on" picks the default in-flight budget,
   an integer sets it explicitly. *)
let admission_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "off" -> Ok None
    | "on" -> Ok (Some default_admission_limit)
    | _ -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (Some n)
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "expected off, on, or a positive in-flight limit, got %S"
                    s)))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "off"
    | Some n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

let admission_t =
  Arg.(
    value
    & opt admission_conv None
    & info [ "admission" ] ~docv:"off|on|N"
        ~doc:
          (Printf.sprintf
             "Admission control on the server's request path: at most \
              $(docv) units of work in flight, the rest answered with an \
              explicit load-shed response (HTTP 503 / BUSY).  $(b,on) uses \
              the default budget of %d.  Decisions ride the replicated \
              lock order, so primary and backup shed identically."
             default_admission_limit))

let arrival_rate_t =
  Arg.(
    value & opt (some float) None
    & info [ "arrival-rate" ] ~docv:"R"
        ~doc:
          "Drive the client open-loop at $(docv) connection arrivals per \
           second (clock-driven, decoupled from completions) instead of \
           the closed-loop default — the C10K regime where a slow server \
           faces undiminished offered load.")

let metrics_json_t =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Write the cross-stack metrics registry (engine, mailbox, TCP, \
           message layer, cluster) as JSON to $(docv) after the run.")

(* {1 Tracing and logging flags}

   Shared by every engine-backed subcommand: [--trace-out] exports the
   engine's event log (Chrome trace_event JSON unless the path ends in
   .jsonl — open the former in Perfetto), [--trace-detail] turns on the
   high-volume event sites, and [--log-level] / [--log-filter] enable the
   stderr log sink with per-component levels. *)

let trace_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH"
        ~doc:
          "Write the structured event trace to $(docv) after the run: Chrome \
           trace_event JSON (opens in Perfetto) by default, JSONL if the \
           path ends in .jsonl.")

let trace_detail_t =
  Arg.(
    value & flag
    & info [ "trace-detail" ]
        ~doc:
          "Also record high-volume events (per-park, per-timer, per-segment, \
           per-futex-wake); grows traces by orders of magnitude.")

let log_level_t =
  Arg.(
    value & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Print log events at or above $(docv) (error, warn, info, debug) \
           to stderr.")

let log_filter_t =
  Arg.(
    value & opt (some string) None
    & info [ "log-filter" ] ~docv:"SPEC"
        ~doc:
          "Per-component level overrides, e.g. \
           $(b,ft.cluster=debug,net.tcp=info).  Implies the stderr sink for \
           those components.")

let setup_logging log_level log_filter =
  Trace.reset_levels ();
  (match log_level with
  | None -> ()
  | Some s -> (
      match Trace.level_of_string s with
      | Some l ->
          Trace.set_level l;
          Trace.set_stderr true
      | None -> Printf.eprintf "ftsim: unknown log level %S ignored\n" s));
  match log_filter with
  | None -> ()
  | Some spec ->
      List.iter
        (fun item ->
          if item <> "" then
            match String.index_opt item '=' with
            | Some i -> (
                let comp = String.sub item 0 i in
                let lvl =
                  String.sub item (i + 1) (String.length item - i - 1)
                in
                match Trace.level_of_string lvl with
                | Some l ->
                    Trace.set_level ~component:comp l;
                    Trace.set_stderr true
                | None ->
                    Printf.eprintf "ftsim: unknown log level %S ignored\n" lvl)
            | None ->
                Printf.eprintf
                  "ftsim: malformed --log-filter item %S (want comp=level)\n"
                  item)
        (String.split_on_char ',' spec)

(* {1 The run term}

   Seed, live stats, metrics dump, trace and logging: what every cluster
   subcommand's run shares around its workload. *)

type run = {
  seed : int;
  stats_interval : int option;
  metrics_json : string option;
  trace_out : string option;
  trace_detail : bool;
  log_level : string option;
  log_filter : string option;
}

let run_t =
  let run seed stats_interval metrics_json trace_out trace_detail log_level
      log_filter =
    { seed; stats_interval; metrics_json; trace_out; trace_detail; log_level;
      log_filter }
  in
  Term.(
    const run $ seed_t $ stats_interval_t $ metrics_json_t $ trace_out_t
    $ trace_detail_t $ log_level_t $ log_filter_t)

(* Logging, then the engine with its detail gate and stats timer. *)
let start r =
  setup_logging r.log_level r.log_filter;
  let eng = Engine.create ~seed:r.seed () in
  if r.trace_detail then Evlog.set_detail (Engine.evlog eng) true;
  Option.iter
    (fun ms -> Statsdump.arm eng ~every:(Time.ms ms))
    r.stats_interval;
  eng

(* Write the run's metrics and trace files. *)
let finish r eng =
  (match r.metrics_json with
  | None -> ()
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc (Metrics.Registry.to_json (Engine.metrics eng));
        close_out oc
      with Sys_error msg ->
        Printf.eprintf "ftsim: cannot write metrics: %s\n" msg));
  Option.iter (Scenario.write_trace ~prog:"ftsim" (Engine.evlog eng)) r.trace_out

(* {1 pbzip2} *)

(* [--replicated false] runs the same application standalone, so a cluster
   flag or a primary kill alongside it is a usage error.  The term gives
   the cluster config (for the report), the server and the kill time. *)
let server_t cluster fail_at =
  let check (config, used) replicated fail_at =
    if replicated then Ok (config, Scenario.Replicated config, fail_at)
    else
      match (used, fail_at) with
      | flag :: _, _ ->
          Error (Printf.sprintf "%s needs a replicated run, not --replicated false" flag)
      | [], Some _ -> Error "--fail-at-ms needs a replicated run, not --replicated false"
      | [], None -> Ok (config, Scenario.Standalone, None)
  in
  Term.(
    term_result' ~usage:true
      (const check $ with_used_args cluster $ replicated_t $ fail_at))

let pbzip2_cmd =
  let run (config, server, fail_at) r block_kb file_mb workers =
    let eng = start r in
    let params =
      {
        Pbzip2.default_params with
        Pbzip2.file_bytes = Scenario.mib file_mb;
        block_bytes = block_kb * 1024;
        workers;
      }
    in
    let blocks = Pbzip2.block_count params in
    let result =
      Scenario.pbzip2 eng
        ?fail_at:(Option.map Time.ms fail_at)
        ~cap:(Time.sec 600) server params
    in
    finish r eng;
    match result.Scenario.done_at with
    | Some t ->
        Printf.printf "compressed %d blocks (%d MiB) in %s: %.0f blocks/s\n"
          blocks file_mb (Time.to_string t)
          (float_of_int blocks /. Time.to_sec_f t);
        Option.iter
          (fun c ->
            Printf.printf "inter-replica: %d msgs, %.2f MB, %d det sections\n"
              (Cluster.traffic_msgs c)
              (float_of_int (Cluster.traffic_bytes c) /. 1e6)
              (Cluster.det_ops c);
            print_cluster config c)
          result.Scenario.started.Scenario.cluster
    | None -> Printf.printf "did not finish within the simulation cap\n"
  in
  let block_kb =
    Arg.(value & opt int 100 & info [ "block-kb" ] ~docv:"KB" ~doc:"Block size.")
  in
  let file_mb =
    Arg.(value & opt int 128 & info [ "file-mb" ] ~docv:"MB" ~doc:"Input size.")
  in
  let workers =
    Arg.(value & opt int 32 & info [ "workers" ] ~docv:"N" ~doc:"Worker threads.")
  in
  Cmd.v
    (Cmd.info "pbzip2" ~doc:"Parallel compression workload (paper §4.1).")
    Term.(
      const run
      $ server_t (cluster_t ~reload:false base_config) fail_at_t
      $ run_t $ block_kb $ file_mb $ workers)

(* {1 mongoose} *)

let mongoose_cmd =
  let run (config, server, _) r cpu_us concurrency seconds listen_shards
      admission arrival_rate =
    let eng = start r in
    let link = Scenario.gbit_link eng in
    let params =
      {
        Mongoose.default_params with
        Mongoose.cpu_per_request = Time.us cpu_us;
        listen_shards;
        admission;
      }
    in
    let s =
      Scenario.start eng ~link server
        ~app:(Mongoose.run ~params)
    in
    (match arrival_rate with
    | None ->
        let w =
          Scenario.ab s ~target:"/page" ~concurrency ~warmup:(Time.ms 400)
            ~until:(Time.ms 400 + Time.sec seconds)
        in
        finish r eng;
        Printf.printf
          "%.0f req/s over %ds (concurrency %d, CPU loop %dus); p50 %.2fms \
           p99 %.2fms\n"
          (float_of_int w.Scenario.ops /. float_of_int seconds)
          seconds concurrency cpu_us
          (1000. *. Metrics.Hist.quantile w.Scenario.latency 0.5)
          (1000. *. Metrics.Hist.quantile w.Scenario.latency 0.99)
    | Some rate ->
        let client = Scenario.client s in
        Engine.run ~until:(Time.ms 400) eng;
        let conns = int_of_float (rate *. float_of_int seconds) in
        let ol =
          Loadgen.ol_start client ~server:Scenario.server_ip ~port:80
            ~target:"/page" ~rate ~conns ~poisson:true ~seed:r.seed ()
        in
        Engine.run ~until:(Time.ms 400 + Time.sec (seconds + 30)) eng;
        Scenario.stop s;
        finish r eng;
        let st = Loadgen.ol_stats ol in
        let lat = st.Loadgen.ol_latency in
        Printf.printf
          "open loop: %d arrivals at %.0f/s (peak %d concurrent): %d ok, %d \
           shed, %d errors; p50 %.2fms p99 %.2fms p999 %.2fms\n"
          (Loadgen.ol_launched ol) rate (Loadgen.ol_peak ol)
          (Metrics.Counter.value st.Loadgen.ol_ok)
          (Metrics.Counter.value st.Loadgen.ol_shed)
          (Metrics.Counter.value st.Loadgen.ol_errors)
          (Metrics.Hist.quantile lat 0.5)
          (Metrics.Hist.quantile lat 0.99)
          (Metrics.Hist.quantile lat 0.999));
    Option.iter (print_cluster config) s.Scenario.cluster
  in
  let cpu_us =
    Arg.(
      value & opt int 0
      & info [ "cpu-us" ] ~docv:"US" ~doc:"Per-request CPU loop.")
  in
  let concurrency =
    Arg.(
      value & opt int 100
      & info [ "concurrency" ] ~docv:"N" ~doc:"Parallel client connections.")
  in
  let seconds =
    Arg.(
      value & opt int 2 & info [ "seconds" ] ~docv:"S" ~doc:"Measured window.")
  in
  Cmd.v
    (Cmd.info "mongoose" ~doc:"Web server under ApacheBench load (paper §4.2).")
    Term.(
      const run
      $ server_t
          (cluster_t ~reload:false ~reprotect:false base_config)
          (Term.const None)
      $ run_t $ cpu_us $ concurrency $ seconds $ listen_shards_t
      $ admission_t $ arrival_rate_t)

(* {1 failover / fileserver / timeline}

   One runner, three views: [failover] prints the paper's Fig. 8 anatomy
   (throughput over time, outage length), [fileserver] is the same workload
   with the failure optional, and [timeline] reads the per-phase failover
   breakdown back out of the event trace. *)

let run_transfer ~config ~run:r ~file_mb ~fail_at ~listen_shards ~admission =
  let eng = start r in
  let link = Scenario.gbit_link eng in
  let params =
    {
      Fileserver.default_params with
      Fileserver.file_bytes = Scenario.mib file_mb;
      listen_shards;
      admission;
    }
  in
  let s =
    Scenario.start eng ~link
      ?fail_at:(Option.map Time.ms fail_at)
      (Scenario.Replicated config) ~app:(Fileserver.run ~params)
  in
  let w = Scenario.wget s ~target:"/file" ~cap:(Time.sec 300) in
  finish r eng;
  (eng, Option.get s.Scenario.cluster, w)

let print_outage cluster =
  match
    (Cluster.failover_started_at cluster, Cluster.failover_completed_at cluster)
  with
  | Some a, Some b ->
      Printf.printf "failover outage: %s\n" (Time.to_string (b - a))
  | _ when Cluster.failover_count cluster > 0 ->
      (* The timestamps are reset once a completed epoch switch re-protects
         the set; the per-takeover durations live in the trace spans and the
         cluster.failover_ns histogram. *)
      Printf.printf "failover outage: absorbed (re-protected, epoch %d)\n"
        (Cluster.epoch cluster)
  | _ -> Printf.printf "no failover\n"

let print_download w ~file_mb =
  match Ivar.peek w.Loadgen.total with
  | Some n ->
      Printf.printf "downloaded %d/%d bytes (%s)\n" n (Scenario.mib file_mb)
        (if n = Scenario.mib file_mb then "complete" else "INCOMPLETE")
  | None -> Printf.printf "download incomplete at cap\n"

let file_mb_t =
  Arg.(value & opt int 512 & info [ "file-mb" ] ~docv:"MB" ~doc:"File size.")

let fail_at_default_t =
  Arg.(
    value & opt int 2000
    & info [ "fail-at-ms" ] ~docv:"MS" ~doc:"Primary failure time.")

let failover_cmd =
  let run config r file_mb fail_at_ms listen_shards admission =
    let _eng, cluster, w =
      run_transfer ~config ~run:r ~file_mb ~fail_at:(Some fail_at_ms)
        ~listen_shards ~admission
    in
    Printf.printf "t(s)  MB/s\n";
    List.iter
      (fun (t, r) -> Printf.printf "%-5.0f %8.1f\n" t (r /. 1e6))
      (Metrics.Series.rate_per_sec w.Loadgen.bytes_received);
    print_outage cluster;
    print_download w ~file_mb;
    print_cluster config cluster
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Large transfer with a mid-stream primary failure (paper §4.4).")
    Term.(
      const run $ cluster_t base_config $ run_t $ file_mb_t
      $ fail_at_default_t $ listen_shards_t $ admission_t)

let fileserver_cmd =
  let run config r file_mb fail_at_ms listen_shards admission =
    let _eng, cluster, w =
      run_transfer ~config ~run:r ~file_mb ~fail_at:fail_at_ms ~listen_shards
        ~admission
    in
    print_download w ~file_mb;
    if fail_at_ms <> None then print_outage cluster;
    print_cluster config cluster
  in
  Cmd.v
    (Cmd.info "fileserver"
       ~doc:
         "Replicated file server under a large download, with an optional \
          mid-stream primary failure.")
    Term.(
      const run $ cluster_t base_config $ run_t $ file_mb_t $ fail_at_t
      $ listen_shards_t $ admission_t)

let timeline_cmd =
  let run config r file_mb fail_at_ms =
    let eng, cluster, _w =
      run_transfer ~config ~run:r ~file_mb ~fail_at:(Some fail_at_ms)
        ~listen_shards:1 ~admission:None
    in
    let evs = Evlog.events (Engine.evlog eng) in
    let ms t = float_of_int t /. 1e6 in
    let phases =
      [
        ("detect", "failover.detect");
        ("drain/replay", "failover.drain_replay");
        ("driver reload", "failover.driver_reload");
        ("go-live", "failover.golive");
      ]
    in
    Printf.printf "failover timeline (seed %d, fail at %d ms):\n" r.seed
      fail_at_ms;
    Printf.printf "  %-14s %12s %12s %12s\n" "phase" "start(ms)" "end(ms)"
      "dur(ms)";
    let sum = ref 0 in
    let missing = ref false in
    List.iter
      (fun (label, name) ->
        match Evlog.Query.span_of ~comp:"ft.cluster" ~name evs with
        | Some (t0, t1) ->
            sum := !sum + (t1 - t0);
            Printf.printf "  %-14s %12.3f %12.3f %12.3f\n" label (ms t0)
              (ms t1) (ms (t1 - t0))
        | None ->
            missing := true;
            Printf.printf "  %-14s %12s %12s %12s\n" label "-" "-" "-")
      phases;
    if !missing then Printf.printf "no failover: phase spans missing\n"
    else begin
      Printf.printf "  %-14s %38.3f\n" "sum of phases" (ms !sum);
      match
        (Cluster.primary_halted_at cluster, Cluster.failover_completed_at cluster)
      with
      | Some halt, Some live ->
          Printf.printf "  %-14s %38.3f   (halt %.3f -> live %.3f)\n"
            "measured" (ms (live - halt)) (ms halt) (ms live);
          if abs (live - halt - !sum) > Time.ms 1 then
            Printf.printf
              "WARNING: phases do not sum to the measured recovery time\n"
      | _ -> Printf.printf "  measured recovery unavailable\n"
    end
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Run the failover scenario and print the per-phase recovery \
          breakdown (Fig. 8 anatomy) from the event trace.")
    Term.(
      const run $ cluster_t ~reprotect:false base_config $ run_t $ file_mb_t
      $ fail_at_default_t)

(* {1 triple} *)

let triple_cmd =
  let run config r fail_backup_ms fail_primary_ms =
    let eng = start r in
    let link = Scenario.gbit_link eng in
    let app (api : Api.t) =
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
    in
    let s = Scenario.start eng ~link (Scenario.Replicated config) ~app in
    let t = Option.get s.Scenario.cluster in
    (match fail_backup_ms with
    | Some ms -> Cluster.kill t ~role:Replica_set.Backup ~at:(Time.ms ms)
    | None -> ());
    (match fail_primary_ms with
    | Some ms -> Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms ms)
    | None -> ());
    let client = Scenario.client s in
    let messages = List.init 40 (fun i -> Printf.sprintf "m%02d|" i) in
    let result = Ivar.create () in
    ignore
      (Host.spawn client "client" (fun () ->
           let c =
             Tcp.connect (Host.stack client) ~host:Scenario.server_ip ~port:80
           in
           let out = Buffer.create 64 in
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
               done;
               Engine.sleep (Time.ms 5))
             messages;
           Ivar.fill result (Buffer.contents out)));
    Scenario.drive eng ~cap:(Time.sec 60) ~stop:(fun () -> Ivar.is_filled result);
    Scenario.stop s;
    finish r eng;
    Printf.printf "backups' received LSN: %d / %d\n"
      (Cluster.backup_received_lsn t 0)
      (Cluster.backup_received_lsn t 1);
    (match Cluster.winner t with
    | Some w -> Printf.printf "takeover winner: backup %d\n" w
    | None -> Printf.printf "no failover occurred\n");
    print_cluster config t;
    match Ivar.peek result with
    | Some s when s = String.concat "" messages ->
        Printf.printf "client stream: complete, exactly once (%d messages)\n"
          (List.length messages)
    | Some s -> Printf.printf "client stream: CORRUPTED (%d bytes)\n" (String.length s)
    | None -> Printf.printf "client stream: incomplete\n"
  in
  let fail_backup =
    Arg.(
      value & opt (some int) None
      & info [ "fail-backup-ms" ] ~docv:"MS" ~doc:"Fail-stop backup 0.")
  in
  let fail_primary =
    Arg.(
      value & opt (some int) None
      & info [ "fail-primary-ms" ] ~docv:"MS" ~doc:"Fail-stop the primary.")
  in
  Cmd.v
    (Cmd.info "triple"
       ~doc:"Three-replica echo service with optional injected failures (paper 6).")
    Term.(
      const run
      $ cluster_t ~reprotect:false { base_config with replicas = 3 }
      $ run_t $ fail_backup $ fail_primary)

(* {1 slo} *)

let slo_cmd =
  let run config r concurrency page_kb cpu_us listen_shards admission
      warmup_ms fail_at_ms run_for_ms =
    let eng = start r in
    let report =
      Slo.run eng ~config ~concurrency ~page_bytes:(page_kb * 1024)
        ~cpu_per_request:(Time.us cpu_us) ~listen_shards ?admission
        ~warmup:(Time.ms warmup_ms) ~fail_at:(Time.ms fail_at_ms)
        ~run_for:(Time.ms run_for_ms) ()
    in
    finish r eng;
    Slo.print_table report
  in
  let concurrency =
    Arg.(
      value & opt int 16
      & info [ "concurrency" ] ~docv:"N" ~doc:"Closed-loop client workers.")
  in
  let page_kb =
    Arg.(
      value & opt int 10
      & info [ "page-kb" ] ~docv:"KB" ~doc:"Served page size.")
  in
  let cpu_us =
    Arg.(
      value & opt int 1000
      & info [ "cpu-us" ] ~docv:"US" ~doc:"Per-request CPU loop.")
  in
  let warmup =
    Arg.(
      value & opt int 200
      & info [ "warmup-ms" ] ~docv:"MS"
          ~doc:"Server boot time before load is offered.")
  in
  let fail_at =
    Arg.(
      value & opt int 600
      & info [ "fail-at-ms" ] ~docv:"MS" ~doc:"Primary failure time.")
  in
  let run_for =
    Arg.(
      value & opt int 2400
      & info [ "run-for-ms" ] ~docv:"MS" ~doc:"Total measured run length.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Tail latency through replica death: run a replicated web server \
          under closed-loop load across an injected primary fail-stop and \
          print per-request latency percentiles split into pre-fault / \
          failover-window / post-recovery phases.  The failover window's \
          bounds are the pinned failover.* trace spans, verified against \
          the cluster's own halt/go-live timestamps.")
    Term.(
      const run $ cluster_t Slo.default_config $ run_t $ concurrency $ page_kb
      $ cpu_us $ listen_shards_t $ admission_t $ warmup $ fail_at $ run_for)

(* {1 memdump} *)

let memdump_cmd =
  let run multiplier ram_gib trace_out =
    let layout = Memlayout.create ~ram_bytes:(ram_gib * 1024 * Scenario.mib 1) in
    Memcached.apply_load layout ~multiplier;
    let i, d, u = Memlayout.fractions layout in
    (* No engine here; the trace is a single summary event. *)
    (match trace_out with
    | None -> ()
    | Some path ->
        let ev = Evlog.create ~cap:16 () in
        Evlog.emit ev ~comp:"app.memdump" "fractions"
          ~args:
            [
              ("multiplier", Evlog.Int multiplier);
              ("ram_gib", Evlog.Int ram_gib);
              ("ignored", Evlog.Float i);
              ("delayed", Evlog.Float d);
              ("user", Evlog.Float u);
            ];
        Scenario.write_trace ~prog:"ftsim" ev path);
    Printf.printf
      "memcached at %dx on %d GiB: Ignored %.1f%%  Delayed %.1f%%  User %.1f%%\n"
      multiplier ram_gib (100. *. i) (100. *. d) (100. *. u)
  in
  let multiplier =
    Arg.(
      value & opt int 180
      & info [ "multiplier" ] ~docv:"N" ~doc:"Dataset size multiplier.")
  in
  let ram =
    Arg.(value & opt int 96 & info [ "ram-gib" ] ~docv:"GIB" ~doc:"Machine RAM.")
  in
  Cmd.v
    (Cmd.info "memdump"
       ~doc:"Classify physical memory under a memcached load (paper Fig. 1).")
    Term.(const run $ multiplier $ ram $ trace_out_t)

(* {1 chaos} *)

let chaos_cmd =
  let run root_seed seeds quick workload (replicas, reprotect) horizon_ms jobs
      det_shard replay_workers regen_delay listen_shards admission faults
      stats_interval fail_on_stall report repro_trace log_level log_filter =
    setup_logging log_level log_filter;
    let stats_interval = Option.map Time.ms stats_interval in
    match Chaosrun.workload_of_string workload with
    | Error e ->
        Printf.eprintf "ftsim: %s\n" e;
        exit 2
    | Ok w ->
        let seeds = if quick then min seeds 8 else seeds in
        let horizon = Time.ms horizon_ms in
        let jobs = if jobs = 0 then Chaos.default_jobs () else jobs in
        let progress rr =
          let s = rr.Chaos.rr_schedule and o = rr.Chaos.rr_outcome in
          Printf.printf
            "  #%03d %-16s faults=%d perturbs=%d failovers=%d responses=%d \
             sections=%d\n\
             %!"
            s.Chaos.sched_index
            (Chaos.verdict_label o.Chaos.verdict)
            (List.length s.Chaos.injections)
            (List.length s.Chaos.perturbations)
            o.Chaos.o_failovers o.Chaos.o_completed o.Chaos.o_sections
        in
        Printf.printf
          "chaos campaign: %d schedules, root seed %d, workload %s, %d \
           replicas, det-shard %s, replay-workers %d, reprotect %s, jobs %d%s\n\
           %!"
          seeds root_seed workload replicas
          (if det_shard then "on" else "off")
          replay_workers
          (if reprotect then "on" else "off")
          jobs
          (match faults with
          | Some f -> Printf.sprintf ", %d faults per schedule" f
          | None -> "");
        let cpu0 = Sys.time () in
        let rep =
          Chaos.run_campaign ~root_seed ~count:seeds ~replicas ~horizon
            ~workload
            ~run:(fun s ->
              Chaosrun.run ?stats_interval ~det_shard ~replay_workers
                ~reprotect ~regen_delay ~listen_shards ?admission ~workload:w
                ~replicas s)
            ?faults ~progress ~jobs ()
        in
        let cpu_s = Sys.time () -. cpu0 in
        (match report with
        | None -> ()
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc (Chaos.report_to_json rep);
              close_out oc
            with Sys_error msg ->
              Printf.eprintf "ftsim: cannot write report: %s\n" msg));
        (match rep.Chaos.rep_minimal with
        | None -> ()
        | Some (minimal, o, runs) ->
            Format.printf "minimal repro (%d shrink runs): %a@.verdict: %s@."
              runs Chaos.pp_schedule minimal
              (Chaos.verdict_label o.Chaos.verdict);
            match repro_trace with
            | None -> ()
            | Some path ->
                (* Re-run the minimal schedule once to capture its trace. *)
                ignore
                  (Chaosrun.run ~det_shard ~replay_workers ~reprotect
                     ~regen_delay ~listen_shards ?admission ~workload:w
                     ~replicas
                     ~on_trace:(fun ev -> Scenario.write_trace ~prog:"ftsim" ev path)
                     minimal));
        let fails = Chaos.failures rep in
        let count v =
          List.length
            (List.filter
               (fun rr ->
                 Chaos.verdict_label rr.Chaos.rr_outcome.Chaos.verdict = v)
               rep.Chaos.rep_results)
        in
        Printf.printf
          "verdicts: %d ok, %d divergence, %d client-violation, %d outage, \
           %d harness-error\n"
          (count "ok") (count "divergence")
          (count "client-violation")
          (count "outage") (count "harness-error");
        List.iter
          (fun rr ->
            match rr.Chaos.rr_outcome.Chaos.verdict with
            | Chaos.V_harness_error msg ->
                Printf.printf "  harness error: %s\n" msg
            | _ -> ())
          rep.Chaos.rep_results;
        (* Replication-health roll-up: every run carries the worst Lagmon
           verdict its (quiet) monitors saw.  A clean verdict with a stalled
           replication stream is a latent problem the digests cannot see. *)
        let lag_count v =
          List.length
            (List.filter
               (fun rr -> rr.Chaos.rr_outcome.Chaos.o_lag = Some v)
               rep.Chaos.rep_results)
        in
        Printf.printf "replication health: %d ok, %d lagging, %d stalled\n"
          (lag_count "ok") (lag_count "lagging") (lag_count "stalled");
        (* Host cost, on stdout only: the JSON report stays byte-identical
           across --jobs and hosts. *)
        Printf.printf
          "host cost: %.2f CPU s across all domains, %.2f seeds per CPU s\n"
          cpu_s
          (float_of_int seeds /. Float.max cpu_s 1e-9);
        let stalled_clean =
          List.filter
            (fun rr ->
              rr.Chaos.rr_outcome.Chaos.o_lag = Some "stalled"
              && rr.Chaos.rr_outcome.Chaos.verdict = Chaos.V_ok)
            rep.Chaos.rep_results
        in
        if fails = [] then
          Printf.printf "campaign clean: no divergences, no client violations\n"
        else begin
          Printf.printf "campaign FAILED: %d failing schedule(s)\n"
            (List.length fails);
          exit 1
        end;
        if fail_on_stall && stalled_clean <> [] then begin
          Printf.printf
            "campaign FAILED: %d ok-verdict schedule(s) reported a stalled \
             replication stream\n"
            (List.length stalled_clean);
          exit 1
        end
  in
  let root_seed =
    Arg.(
      value & opt int 42
      & info [ "root-seed" ] ~docv:"N"
          ~doc:"Campaign root seed; schedule $(i,i) derives from (seed, i).")
  in
  let seeds =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of schedules to derive and run.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI mode: cap the campaign at 8 schedules regardless of \
                $(b,--seeds).")
  in
  let workload =
    Arg.(
      value & opt string "fileserver"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload under test: $(b,fileserver) or $(b,mongoose).")
  in
  (* The cluster shape is checked before any schedule runs. *)
  let shape =
    let replicas =
      Arg.(
        value
        & opt (enum [ ("2", 2); ("3", 3) ]) 2
        & info [ "replicas" ] ~docv:"N" ~doc:"Replica count: 2 or 3.")
    in
    let check replicas reprotect =
      Result.map
        (fun () -> (replicas, reprotect))
        (Cluster.check_config (Chaosrun.config ~reprotect ~replicas ()))
    in
    Term.(
      term_result' ~usage:true
        (const check $ replicas $ reprotect_t base_config))
  in
  let horizon_ms =
    Arg.(
      value & opt int 3000
      & info [ "horizon-ms" ] ~docv:"MS"
          ~doc:"Simulated-time cap per run; faults land in its first 3/4.")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains the campaign fans schedules out across \
             ($(b,0) = auto: all cores but one).  The merged report is \
             byte-identical for every $(docv); only wall-clock changes.")
  in
  let report =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"PATH"
          ~doc:"Write the campaign report (schedules, verdicts, minimal \
                repro) as JSON to $(docv).")
  in
  let repro_trace =
    Arg.(
      value & opt (some string) None
      & info [ "repro-trace" ] ~docv:"PATH"
          ~doc:"If the campaign fails, re-run the shrunk minimal repro and \
                write its event trace to $(docv).")
  in
  let fail_on_stall =
    Arg.(
      value & flag
      & info [ "fail-on-stall" ]
          ~doc:
            "Also fail the campaign if any ok-verdict schedule's \
             replication-health monitor reported a $(b,stalled) stream \
             (CI uses this: clean seeds must never stall).")
  in
  let faults =
    Arg.(
      value & opt (some int) None
      & info [ "faults" ] ~docv:"N"
          ~doc:
            "Derive multi-fault schedules with exactly $(docv) fail-stop-\
             dominant injections each (instead of the classic 0-2 fault \
             draws).  Pair with $(b,--reprotect on) so each kill is \
             followed by a regeneration the next fault can land on.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos campaign: derived fault schedules + replica-divergence \
          checker + client-consistency oracle.")
    Term.(
      const run $ root_seed $ seeds $ quick $ workload $ shape $ horizon_ms
      $ jobs $ det_shard_t base_config $ replay_workers_t base_config
      $ regen_delay_t base_config $ listen_shards_t $ admission_t $ faults
      $ stats_interval_t $ fail_on_stall $ report $ repro_trace $ log_level_t
      $ log_filter_t)

let () =
  let info =
    Cmd.info "ftsim" ~version:"1.0"
      ~doc:"FT-Linux intra-machine replication simulator (ICDCS 2017 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            pbzip2_cmd;
            mongoose_cmd;
            failover_cmd;
            fileserver_cmd;
            timeline_cmd;
            triple_cmd;
            slo_cmd;
            memdump_cmd;
            chaos_cmd;
          ]))
