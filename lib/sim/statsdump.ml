(* Periodic one-line metric snapshots, behind `ftsim --stats-interval`.

   A recurring raw Engine.timer walks the engine's metrics registry and
   prints a compact line of the interesting counters/gauges/histograms
   through the domain's [Sink] (stderr by default, keeping stdout
   parseable).  The callback is pure reads plus host I/O — it never
   suspends and never touches simulated state, so arming it cannot perturb
   the deterministic schedule. *)

let prefixes = [ "lag"; "msglayer."; "replay."; "det."; "failover." ]

let matches name =
  List.exists
    (fun p ->
      String.length name >= String.length p
      && String.sub name 0 (String.length p) = p)
    prefixes
  (* Per-channel cursor gauges ("lag.chan37.emitted", ...) would swamp the
     line on workloads with many channels; the full set stays available via
     --metrics-json. *)
  && not
       (let rec has_chan i =
          i + 5 <= String.length name
          && (String.sub name i 5 = ".chan" || has_chan (i + 1))
        in
        has_chan 0)

let snapshot_line ?label eng =
  let b = Buffer.create 128 in
  Printf.bprintf b "[stats%s t=%.3fs]"
    (match label with Some l -> " " ^ l | None -> "")
    (Time.to_sec_f (Engine.now eng));
  let hist_cells name h =
    if Metrics.Hist.count h > 0 then
      Printf.bprintf b " %s{n=%d p50=%.3g p99=%.3g p999=%.3g}" name
        (Metrics.Hist.count h)
        (Metrics.Hist.quantile h 0.5)
        (Metrics.Hist.quantile h 0.99)
        (Metrics.Hist.quantile h 0.999)
  in
  Metrics.Registry.iter (Engine.metrics eng) (fun name v ->
      if matches name then
        match v with
        | Metrics.Registry.V_counter c -> Printf.bprintf b " %s=%d" name c
        | Metrics.Registry.V_gauge g -> Printf.bprintf b " %s=%g" name g
        | Metrics.Registry.V_hist h -> hist_cells name h);
  Buffer.contents b

let arm ?label eng ~every =
  if every <= 0 then invalid_arg "Statsdump.arm: interval must be positive";
  (* Lines go through the domain-local [Sink]: under a multi-domain campaign
     the coordinator drains them, so snapshot lines from concurrent runs
     never tear. *)
  let rec next () = ignore (Engine.timer eng ~at:(Engine.now eng + every) tick)
  and tick () =
    Sink.line (snapshot_line ?label eng);
    next ()
  in
  next ()
