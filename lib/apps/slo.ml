open Ftsim_sim
open Ftsim_hw
open Ftsim_netstack
open Ftsim_ftlinux

(* SLO reporter: a replicated Mongoose served to closed-loop ApacheBench
   workers through an injected primary fail-stop, with per-request latency
   split into pre-fault / failover-window / post-recovery phases.

   The failover window is not guessed from histogram windows: its bounds
   come from the pinned failover.* Evlog spans (detect begin .. golive
   end), and completions are classified post-hoc by pure time comparison
   against those bounds — so the phase split is exact, to the nanosecond
   the spans record. *)

let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"

let default_config =
  {
    Cluster.default_config with
    topology = Topology.small;
    hb_period = Time.ms 5;
    hb_timeout = Time.ms 25;
    driver_load_time = Time.ms 200;
    lagmon = Some Lagmon.default_config;
  }

type report = {
  fail_at : Time.t;
  window : (Time.t * Time.t) option;
      (* failover window: begin of the pinned "failover.detect" span to end
         of the pinned "failover.golive" span; None if the fault never
         triggered a failover *)
  span_bounds_ok : bool;
      (* the span-derived bounds equal the cluster's own halt/completion
         timestamps *)
  pre : Metrics.Hist.t;  (* completions with done_at < window lo, ms *)
  fo : Metrics.Hist.t;  (* completions inside [lo, hi], ms *)
  post : Metrics.Hist.t;  (* completions with done_at > window hi, ms *)
  completions : (Time.t * Time.t) list;
      (* every successful request as (done_at, latency), oldest first *)
  completed : int;
  errors : int;
  lag_verdict : Lagmon.verdict option;  (* final, when the monitor ran *)
  lag_worst : Lagmon.verdict option;
}

let failover_split eng completions =
  let evs = Evlog.events (Engine.evlog eng) in
  let window =
    match
      ( Evlog.Query.span_of ~comp:"ft.cluster" ~name:"failover.detect" evs,
        Evlog.Query.span_of ~comp:"ft.cluster" ~name:"failover.golive" evs )
    with
    | Some (detect_begin, _), Some (_, golive_end) ->
        Some (detect_begin, golive_end)
    | _ -> None
  in
  let pre = Metrics.Hist.create ()
  and fo = Metrics.Hist.create ()
  and post = Metrics.Hist.create () in
  List.iter
    (fun (at, latency) ->
      let h =
        match window with
        | None -> pre
        | Some (lo, hi) -> if at < lo then pre else if at > hi then post else fo
      in
      Metrics.Hist.record h (Time.to_ms_f latency))
    completions;
  (window, pre, fo, post)

let run eng ?(config = default_config) ?(concurrency = 16)
    ?(page_bytes = 10 * 1024) ?(cpu_per_request = Time.ms 1)
    ?(listen_shards = 1) ?admission ?(warmup = Time.ms 200)
    ?(fail_at = Time.ms 600) ?(run_for = Time.ms 2400) () =
  if fail_at <= warmup then invalid_arg "Slo.run: fail_at must be after warmup";
  if run_for <= fail_at then invalid_arg "Slo.run: run_for must be after fail_at";
  let link =
    Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100)
      ~seed_split:(Engine.prng eng) ()
  in
  let params =
    {
      Mongoose.default_params with
      Mongoose.page_bytes;
      cpu_per_request;
      listen_shards;
      admission;
    }
  in
  let cluster =
    Cluster.create eng ~config ~link:(Link.endpoint_a link)
      ~app:(Mongoose.run ~params) ()
  in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:fail_at;
  let client = Host.create eng ~ip:client_ip (Link.endpoint_b link) in
  (* Let the server boot and listen before offering load. *)
  Engine.run ~until:warmup eng;
  let completions = ref [] in
  let ab =
    Loadgen.ab_start client ~server:server_ip ~port:80 ~target:"/"
      ~concurrency
      ~on_complete:(fun ~at ~latency ->
        completions := (at, latency) :: !completions)
      ()
  in
  Engine.run ~until:run_for eng;
  Loadgen.ab_stop ab;
  Cluster.shutdown cluster;
  (* Drain: let in-flight requests and timers settle so the engine ends
     quiet (the stopper pattern of the bench harness). *)
  Engine.run ~until:(run_for + Time.ms 100) eng;
  let stats = Loadgen.ab_stats ab in
  let completions = List.rev !completions in
  let window, pre, fo, post = failover_split eng completions in
  let span_bounds_ok =
    match
      ( window,
        Cluster.primary_halted_at cluster,
        Cluster.failover_completed_at cluster )
    with
    | Some (lo, hi), Some halted, Some completed -> lo = halted && hi = completed
    | None, None, None -> true
    | _ -> false
  in
  let lagmon = Cluster.lagmon cluster in
  {
    fail_at;
    window;
    span_bounds_ok;
    pre;
    fo;
    post;
    completions;
    completed = Metrics.Counter.value stats.Loadgen.completed;
    errors = Metrics.Counter.value stats.Loadgen.errors;
    lag_verdict = Option.map Lagmon.verdict lagmon;
    lag_worst = Option.map Lagmon.worst lagmon;
  }

(* The phase-split percentile table `ftsim slo` prints. *)
let print_table r =
  let cell h q =
    if Metrics.Hist.count h = 0 then "-"
    else Printf.sprintf "%.2f" (Metrics.Hist.quantile h q)
  in
  let row label h =
    Printf.printf "%-16s %8d %10s %10s %10s %10s\n" label (Metrics.Hist.count h)
      (cell h 0.5) (cell h 0.9) (cell h 0.99) (cell h 0.999)
  in
  (match r.window with
  | Some (lo, hi) ->
      Printf.printf
        "failover window: %.3f ms .. %.3f ms (%.3f ms, from pinned \
         failover.* spans%s)\n"
        (Time.to_ms_f lo) (Time.to_ms_f hi)
        (Time.to_ms_f (hi - lo))
        (if r.span_bounds_ok then ", bounds verified" else
           ", BOUNDS MISMATCH vs cluster timestamps")
  | None -> Printf.printf "failover window: none (fault did not trigger)\n");
  Printf.printf "%-16s %8s %10s %10s %10s %10s  (latency, ms)\n" "phase" "reqs"
    "p50" "p90" "p99" "p999";
  row "pre-fault" r.pre;
  row "failover" r.fo;
  row "post-recovery" r.post;
  Printf.printf "completed %d, errors %d" r.completed r.errors;
  (match (r.lag_verdict, r.lag_worst) with
  | Some v, Some w ->
      Printf.printf "; replication health: %s (worst: %s)"
        (Lagmon.verdict_label v) (Lagmon.verdict_label w)
  | _ -> ());
  print_newline ()
