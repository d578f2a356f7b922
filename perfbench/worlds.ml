(* The three workloads.  Each is built and driven through public calls
   only, and one call of [run] is one repetition: build the world, run it
   to its end, check its outputs, tear it down.  The probe wraps every
   call into a layer; an untraced probe adds nothing but two clock reads
   around the measured region. *)

open Ftsim_sim
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

type size = Full | Small

(* One repetition's result.  Everything but [host_s] and [gc] is a pure
   function of the seed. *)
type rep = {
  sim : (string * float * string) list;  (** end-to-end, simulated clock: name, value, unit *)
  attempted : int;
  failed : int;
  failures : string list;  (** failed output checks *)
  layers : (string * float) list;  (** deterministic per-layer numbers; [] unless asked *)
  fingerprint : string;
      (** registry JSON and Evlog export hash (chaos: the campaign report);
          "" unless asked *)
  host_s : float;  (** CPU seconds, first [Engine.run] to the end of the checks *)
  gc : Layers.gc_delta;
      (** over the same region; it repeats exactly for the first repetition
          of a fresh process, not between repetitions of one process *)
  heap_mb : float;
      (** the process's peak major heap as the checks end, before anything
          the benchmark does afterwards; the workload's own peak in the
          first repetition of a process *)
}

let slice_len = Time.ms 100
let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"

(* Run [eng] in 100 ms simulated slices until [stop ()], [horizon], or an
   empty event queue. *)
let drive probe eng ~horizon ~stop =
  let rec loop () =
    if (not (stop ())) && Engine.now eng < horizon then begin
      let until = min horizon (Engine.now eng + slice_len) in
      Probe.slice probe (fun () -> Engine.run ~until eng);
      if Engine.now eng >= until then loop ()
    end
  in
  loop ()

(* The measured region: CPU time and GC counters from the first
   [Engine.run] to the end of the checks, and the peak heap at its end. *)
type meter = { cpu0 : float; gc0 : Gc.stat }

let meter_start () = { gc0 = Gc.quick_stat (); cpu0 = Probe.cpu_now () }

let meter_stop m =
  let cpu1 = Probe.cpu_now () in
  let st = Gc.quick_stat () in
  (cpu1 -. m.cpu0, Layers.gc_delta m.gc0 st, Layers.heap_mb st)

let check failures ok msg = if not ok then failures := msg :: !failures

(* The per-layer numbers of a finished world the benchmark owns, and the
   fingerprint a traced repetition must reproduce byte for byte: the
   registry JSON and a hash of the Evlog export. *)
let world_layers eng cluster ~ops =
  let points =
    match Namespace.digest (Cluster.primary_namespace cluster) with
    | Some d -> Digest.comparison_points d
    | None -> 0
  in
  ( Layers.of_registry (Engine.metrics eng)
    @ Layers.of_evstats (Layers.evstats_of (Engine.evlog eng)) ~ops
    @ [ ("ftlinux.digest_points", float_of_int points) ],
    Metrics.Registry.to_json (Engine.metrics eng)
    ^ Stdlib.Digest.to_hex (Stdlib.Digest.string (Evlog.to_jsonl (Engine.evlog eng))) )

(* {1 compress: replicated PBZIP2 at Fig 4's knee} *)

module Compress = struct
  (* PBZIP2 draws nothing from the engine's generator, so the seed also
     draws the input length: 128 MiB minus 0-255 KiB. *)
  let params ~size ~seed =
    let mib = match size with Full -> 128 | Small -> 2 in
    let trim_kib = Random.State.int (Random.State.make [| seed |]) 256 in
    {
      Pbzip2.default_params with
      Pbzip2.file_bytes = (mib * 1024 * 1024) - (trim_kib * 1024);
      block_bytes = 25 * 1024;
      workers = 32;
    }

  let horizon = Time.sec 600

  (* Blocks committed per simulated second over the last 60 % of the
     writer's run: Fig 4's sustained (tail) rate. *)
  let tail_rate commits ~t_end =
    let cut = Time.of_sec_f (0.4 *. Time.to_sec_f t_end) in
    let n = List.length (List.filter (fun t -> t >= cut) commits) in
    let window = Time.to_sec_f (t_end - cut) in
    if window <= 0. then 0. else float_of_int n /. window

  type world = {
    eng : Engine.t;
    cluster : Cluster.t;
    commits : Time.t list ref;  (** primary's block commits, newest first *)
    primary_done : Time.t option ref;
    backup_done : bool ref;
  }

  let build probe ~seed ~params =
    let eng = Probe.span probe "Engine.create" (fun () -> Engine.create ~seed ()) in
    let commits = ref [] and primary_done = ref None and backup_done = ref false in
    let app api =
      if Kernel.name api.Api.kernel = "primary" then begin
        Pbzip2.run ~params ~on_block_done:(fun _ -> commits := Engine.now eng :: !commits) api;
        primary_done := Some (Engine.now eng)
      end
      else begin
        Pbzip2.run ~params api;
        backup_done := true
      end
    in
    let cluster =
      Probe.span probe "Cluster.create" (fun () ->
          Cluster.create eng ~config:Cluster.default_config ~app ())
    in
    { eng; cluster; commits; primary_done; backup_done }

  (* The unreplicated baseline on the same input, for [ft_ratio]. *)
  let standalone probe ~seed ~params =
    let eng = Probe.span probe "Engine.create" (fun () -> Engine.create ~seed ()) in
    let commits = ref [] and finished = ref None in
    let app api =
      Pbzip2.run ~params ~on_block_done:(fun _ -> commits := Engine.now eng :: !commits) api;
      finished := Some (Engine.now eng)
    in
    ignore
      (Probe.span probe "Cluster.create_standalone" (fun () ->
           Cluster.create_standalone eng ~app ()));
    drive probe eng ~horizon ~stop:(fun () -> !finished <> None);
    match !finished with
    | Some t_end when List.length !commits = Pbzip2.block_count params ->
        Some (tail_rate !commits ~t_end)
    | _ -> None

  (* The baseline is deterministic, so it runs once per (size, seed), in
     the first repetition, after the measured region and its heap peak. *)
  let baselines = Hashtbl.create 4

  let baseline ~size ~seed ~params =
    match Hashtbl.find_opt baselines (size, seed) with
    | Some r -> r
    | None ->
        let r = standalone (Probe.untraced ()) ~seed ~params in
        Hashtbl.replace baselines (size, seed) r;
        r

  let run ?(with_layers = false) probe ~size ~seed () =
    let params = params ~size ~seed in
    let blocks = Pbzip2.block_count params in
    let w = build probe ~seed ~params in
    let m = meter_start () in
    drive probe w.eng ~horizon ~stop:(fun () -> !(w.primary_done) <> None && !(w.backup_done));
    let failures = ref [] in
    let reg = Engine.metrics w.eng in
    let committed = List.length !(w.commits) in
    let diverged =
      Probe.span probe "checks" (fun () ->
          check failures (committed = blocks)
            (Printf.sprintf "%d of %d blocks committed" committed blocks);
          check failures !(w.backup_done) "backup did not finish its replay";
          let appended = Layers.counter reg "msglayer.records_appended"
          and replayed = Layers.counter reg "msglayer.records_replayed" in
          check failures (replayed = appended)
            (Printf.sprintf "%d of %d records replayed" replayed appended);
          let digests = Cluster.compare_digests w.cluster = None
          and replay = Cluster.replay_divergence w.cluster = None in
          check failures digests "replica digests diverged";
          check failures replay "replay divergence";
          not (digests && replay))
    in
    let host_s, gc, heap_mb = meter_stop m in
    Probe.span probe "Cluster.shutdown" (fun () -> Cluster.shutdown w.cluster);
    let layers, fingerprint =
      if not with_layers then ([], "")
      else
        Probe.span probe "metrics.export" (fun () -> world_layers w.eng w.cluster ~ops:blocks)
    in
    let rate =
      match !(w.primary_done) with Some t_end -> tail_rate !(w.commits) ~t_end | None -> 0.
    in
    let ft_ratio =
      match baseline ~size ~seed ~params with
      | Some base when base > 0. -> rate /. base
      | _ ->
          check failures false "standalone baseline did not commit every block";
          0.
    in
    let failed = if diverged then blocks else blocks - min blocks committed in
    {
      sim =
        [
          ("sim_ops_per_s", rate, "1/s");
          ("ft_ratio", ft_ratio, "ratio");
          ("error_rate", float_of_int failed /. float_of_int blocks, "ratio");
        ];
      attempted = blocks;
      failed;
      failures = List.rev !failures;
      layers;
      fingerprint;
      host_s;
      gc;
      heap_mb;
    }
end

(* {1 web: replicated Mongoose under open-loop load through a primary kill} *)

module Web = struct
  type shape = { rate : float; conns : int; kill_at : Time.t; horizon : Time.t }

  (* About three quarters of the replicated server's capacity (≈1,200
     requests/s on this configuration); enough launches before the kill
     that more than ten lie beyond p99. *)
  let shape = function
    | Full -> { rate = 900.; conns = 1800; kill_at = Time.ms 1250; horizon = Time.ms 2300 }
    | Small -> { rate = 900.; conns = 360; kill_at = Time.ms 200; horizon = Time.ms 700 }

  let mongoose =
    {
      Mongoose.default_params with
      Mongoose.workers = 32;
      page_bytes = 10 * 1024;
      cpu_per_request = Time.us 300;
    }

  type world = {
    eng : Engine.t;
    cluster : Cluster.t;
    ol : Loadgen.ol;
    completions : (Time.t * Time.t) list ref;  (** (done_at, latency), newest first *)
  }

  let build probe ~seed ~shape =
    let eng = Probe.span probe "Engine.create" (fun () -> Engine.create ~seed ()) in
    let link, client =
      Probe.span probe "Link.create+Host.create" (fun () ->
          let link =
            Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
              ~seed_split:(Engine.prng eng) ()
          in
          (link, Host.create eng ~ip:client_ip (Link.endpoint_b link)))
    in
    let cluster =
      Probe.span probe "Cluster.create" (fun () ->
          let c =
            Cluster.create eng ~config:Slo.default_config ~link:(Link.endpoint_a link)
              ~app:(Mongoose.run ~params:mongoose) ()
          in
          Cluster.kill c ~role:Replica_set.Primary ~at:shape.kill_at;
          c)
    in
    let completions = ref [] in
    let ol =
      Probe.span probe "Loadgen.ol_start" (fun () ->
          Loadgen.ol_start client ~server:server_ip ~port:80 ~target:"/"
            ~rate:shape.rate ~conns:shape.conns ~poisson:true ~seed
            ~on_complete:(fun ~at ~latency -> completions := (at, latency) :: !completions)
            ())
    in
    { eng; cluster; ol; completions }

  (* The longest stretch without a successful completion that contains the
     kill. *)
  let outage completions ~kill_at =
    let before = List.filter (fun t -> t <= kill_at) completions
    and after = List.filter (fun t -> t > kill_at) completions in
    match after with
    | [] -> None
    | _ ->
        let last_before = List.fold_left max 0 before
        and first_after = List.fold_left min max_int after in
        Some (first_after - last_before)

  let run ?(with_layers = false) probe ~size ~seed () =
    let shape = shape size in
    let w = build probe ~seed ~shape in
    let m = meter_start () in
    drive probe w.eng ~horizon:shape.horizon ~stop:(fun () -> false);
    let failures = ref [] in
    let st = Loadgen.ol_stats w.ol in
    let launched = Loadgen.ol_launched w.ol in
    let ok = Metrics.Counter.value st.Loadgen.ol_ok
    and shed = Metrics.Counter.value st.Loadgen.ol_shed
    and errors = Metrics.Counter.value st.Loadgen.ol_errors in
    let still_open = launched - ok - shed - errors in
    let outage_ms =
      Probe.span probe "checks" (fun () ->
          check failures (still_open >= 0 && List.length !(w.completions) = ok)
            (Printf.sprintf "launched %d <> ok %d + shed %d + errors %d + open"
               launched ok shed errors);
          check failures
            ((not (Ivar.is_filled (Loadgen.ol_done w.ol))) || still_open = 0)
            "open requests after every launch completed";
          check failures (launched = shape.conns)
            (Printf.sprintf "%d of %d requests launched by the horizon" launched shape.conns);
          check failures (Cluster.compare_digests w.cluster = None) "replica digests diverged";
          check failures (Cluster.replay_divergence w.cluster = None) "replay divergence";
          check failures
            (Cluster.failover_count w.cluster = 1)
            "the kill did not cause exactly one failover";
          outage (List.map fst !(w.completions)) ~kill_at:shape.kill_at)
    in
    let host_s, gc, heap_mb = meter_stop m in
    (* Reading the phases back means listing the whole Evlog: a cost of
       the benchmark, not of the workload, so it comes after the measured
       region and its heap peak. *)
    Probe.span probe "checks.failover" (fun () ->
        match
          ( Layers.failover_spans (Evlog.events (Engine.evlog w.eng)),
            Cluster.primary_halted_at w.cluster,
            Cluster.failover_completed_at w.cluster )
        with
        | Some spans, Some halted, Some live ->
            check failures
              (Layers.failover_contiguous spans ~halted ~live)
              "failover phases are not contiguous from halt to live"
        | _ -> check failures false "failover phases missing");
    Probe.span probe "Cluster.shutdown" (fun () -> Cluster.shutdown w.cluster);
    let prekill =
      List.filter_map
        (fun (at, lat) -> if at - lat < shape.kill_at then Some (Time.to_ms_f lat) else None)
        !(w.completions)
    in
    check failures (List.length prekill >= 1000 || size = Small)
      (Printf.sprintf "only %d requests before the kill" (List.length prekill));
    let outage_ms =
      match outage_ms with
      | Some t -> Time.to_ms_f t
      | None ->
          check failures false "no completion after the kill";
          0.
    in
    let failed = shed + errors + still_open in
    let layers, fingerprint =
      if not with_layers then ([], "")
      else
        Probe.span probe "metrics.export" (fun () ->
            let layers, fingerprint = world_layers w.eng w.cluster ~ops:launched in
            ( layers
              @ [
                  ("apps.requests", float_of_int launched);
                  ("apps.ok", float_of_int ok);
                  ("apps.shed", float_of_int shed);
                  ("apps.errors", float_of_int (errors + still_open));
                  ("apps.prekill_requests", float_of_int (List.length prekill));
                ],
              fingerprint ))
    in
    {
      sim =
        [
          ("sim_p50_ms", Layers.quantile prekill 0.5, "ms");
          ("sim_p99_ms", Layers.quantile prekill 0.99, "ms");
          ("outage_ms", outage_ms, "ms");
          ("error_rate", float_of_int failed /. float_of_int (max 1 launched), "ratio");
        ];
      attempted = launched;
      failed;
      failures = List.rev !failures;
      layers;
      fingerprint;
      host_s;
      gc;
      heap_mb;
    }
end

(* {1 chaos: a fileserver fault campaign, one domain} *)

module Chaos_campaign = struct
  let count = function Full -> 8 | Small -> 1
  let horizon = Time.sec 3

  (* One world in [Chaosrun]'s shape, for set-up timing: its fast-failover
     cluster is [Slo.default_config] with a quiet monitor. *)
  let config =
    {
      Slo.default_config with
      Cluster.lagmon = Some { Lagmon.default_config with Lagmon.quiet = true };
    }

  let file_bytes = 32 * 1024 * 1024

  let build probe ~seed =
    let eng = Probe.span probe "Engine.create" (fun () -> Engine.create ~seed ()) in
    let link, client =
      Probe.span probe "Link.create+Host.create" (fun () ->
          let link =
            Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
              ~seed_split:(Engine.prng eng) ()
          in
          (link, Host.create eng ~ip:client_ip (Link.endpoint_b link)))
    in
    let app = Fileserver.run ~params:{ Fileserver.default_params with Fileserver.file_bytes } in
    ignore
      (Probe.span probe "Cluster.create" (fun () ->
           Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app ()));
    ignore
      (Probe.span probe "Loadgen.verified_start" (fun () ->
           Loadgen.verified_start client ~server:server_ip ~port:80
             ~target:"/f" ~expect_bytes:file_bytes ~requests:1 ()))

  let run ?(with_layers = false) probe ~size ~seed () =
    let count = count size in
    (* Each run's Evlog is reduced to its counts as soon as the run returns,
       in a span of its own, so a [Chaosrun.run] span times the program
       only: holding every world's Evlog, or hashing its export, would cost
       more than the run. *)
    let evs = ref Layers.evstats_empty and handed = ref None in
    let on_trace = if with_layers then Some (fun ev -> handed := Some ev) else None in
    let run sched =
      let outcome =
        Probe.span probe "Chaosrun.run" (fun () ->
            Chaosrun.run ?on_trace ~det_shard:true ~workload:Chaosrun.Fileserver ~replicas:2
              sched)
      in
      Option.iter
        (fun ev ->
          handed := None;
          Probe.span probe "Evlog.reduce" (fun () ->
              evs := Layers.evstats_add !evs (Layers.evstats_of ev)))
        !handed;
      outcome
    in
    let m = meter_start () in
    let report =
      Chaos.run_campaign ~root_seed:seed ~count ~replicas:2 ~horizon
        ~workload:"fileserver" ~run ~jobs:1 ()
    in
    let failures = ref [] in
    Probe.span probe "checks" (fun () ->
        List.iter
          (fun r ->
            let v = r.Chaos.rr_outcome.Chaos.verdict in
            check failures
              (not (Chaos.verdict_failing v))
              (Printf.sprintf "seed %d: %s" r.Chaos.rr_schedule.Chaos.sched_seed
                 (Chaos.verdict_label v)))
          report.Chaos.rep_results);
    let host_s, gc, heap_mb = meter_stop m in
    let outcomes = List.map (fun r -> r.Chaos.rr_outcome) report.Chaos.rep_results in
    let nfail = List.length !failures in
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    let outages = List.length (List.filter (fun o -> o.Chaos.verdict = Chaos.V_outage) outcomes) in
    let layers, fingerprint =
      if not with_layers then ([], "")
      else
        Probe.span probe "metrics.export" (fun () ->
            ( Layers.of_evstats !evs ~ops:(max 1 (sum (fun o -> o.Chaos.o_completed)))
              @ [
                  ("ftlinux.digest_points", float_of_int (sum (fun o -> o.Chaos.o_sections)));
                  ("apps.chaos_failovers", float_of_int (sum (fun o -> o.Chaos.o_failovers)));
                ],
              Chaos.report_to_json report ))
    in
    {
      sim =
        [
          ("error_rate", float_of_int nfail /. float_of_int count, "ratio");
          ("seeds", float_of_int count, "count");
          ("outages", float_of_int outages, "count");
          ("failovers", float_of_int (sum (fun o -> o.Chaos.o_failovers)), "count");
        ];
      attempted = count;
      failed = nfail;
      failures = List.rev !failures;
      layers;
      fingerprint;
      host_s;
      gc;
      heap_mb;
    }
end

(* {1 Set-up: one world of each workload, built and dropped} *)

let build_world probe workload ~size ~seed =
  match workload with
  | `Compress -> ignore (Compress.build probe ~seed ~params:(Compress.params ~size ~seed))
  | `Web -> ignore (Web.build probe ~seed ~shape:(Web.shape size))
  | `Chaos -> Chaos_campaign.build probe ~seed

(* The traced run's extra timeline: compress's unreplicated baseline, which
   the measured repetitions take from the first one's memo.  Returns
   whether it reproduced that memo. *)
let trace_baseline probe workload ~size ~seed =
  match workload with
  | `Compress ->
      let params = Compress.params ~size ~seed in
      Probe.begin_timeline probe "baseline";
      Compress.standalone probe ~seed ~params = Compress.baseline ~size ~seed ~params
  | `Web | `Chaos -> true

let run_rep ?with_layers probe workload ~size ~seed =
  match workload with
  | `Compress -> Compress.run ?with_layers probe ~size ~seed ()
  | `Web -> Web.run ?with_layers probe ~size ~seed ()
  | `Chaos -> Chaos_campaign.run ?with_layers probe ~size ~seed ()

let workload_of_string = function
  | "compress" -> Some `Compress
  | "web" -> Some `Web
  | "chaos" -> Some `Chaos
  | _ -> None

