(* One benchmark run, end to end.

   --trace 0 measures the end-to-end metrics: repetitions of the workload
   with the same seed, as many as fill S seconds at the workload's nominal
   repetition time and at least [min_reps], with [setup_reps] world
   constructions spread between them.  --trace 1 publishes the per-layer
   metrics from an untraced repetition (the GC counts), a traced one and
   an untraced one with the same per-layer reduction (the counts the
   traced one must reproduce, and the baseline for its overhead), then
   traced constructions and the micro ops.  The last stdout line is the
   result object. *)

let min_reps = 3
let setup_reps = 60

(* {1 Metric catalogue} *)

(* Gated in BENCHMARK.json.  [host_s] is not among them: on a shared VM its
   spread across runs of identical work exceeds any bound the benchmark
   may set, so it is published on the report line instead. *)
let end_to_end = [ ("setup_s", "s"); ("heap_mb", "MB"); ("alloc_gb", "GB") ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.host_ns_per_event", "ns");
    ("sim.timers_armed", "count");
    ("sim.timers_cancelled_share", "ratio");
    ("sim.procs_spawned", "count");
    ("sim.evlog_emitted", "count");
    ("sim.evlog_dropped", "count");
    ("sim.engine_create_ms", "ms");
    ("sim.event_ns", "ns");
    ("sim.event_iters", "count");
    ("sim.timer_arm_cancel_ns", "ns");
    ("sim.timer_arm_cancel_iters", "count");
    ("sim.evlog_emit_ns", "ns");
    ("sim.evlog_emit_iters", "count");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("gc.minor_s", "s");
    ("gc.remembered_set_s", "s");
    ("gc.major_s", "s");
    ("hw.mailbox_msgs_per_op", "count");
    ("hw.mailbox_bytes_per_op", "B");
    ("hw.propagate_p50_us", "us");
    ("hw.mailbox_send_recv_ns", "ns");
    ("hw.mailbox_send_recv_iters", "count");
    ("kernel.mutex_lock_unlock_ns", "ns");
    ("kernel.mutex_lock_unlock_iters", "count");
    ("netstack.segs", "count");
    ("netstack.bytes", "B");
    ("netstack.rto", "count");
    ("netstack.rto_per_kseg", "1/kseg");
    ("netstack.accept_overflow", "count");
    ("netstack.segment_ns", "ns");
    ("netstack.segment_iters", "count");
    ("ftlinux.det_sections", "count");
    ("ftlinux.det_lock_wait_ms", "ms");
    ("ftlinux.det_contended", "count");
    ("ftlinux.records", "count");
    ("ftlinux.records_per_frame", "ratio");
    ("ftlinux.replay_busy_ms", "ms");
    ("ftlinux.replay_gate_stalls", "count");
    ("ftlinux.tuple_lag_p50_us", "us");
    ("ftlinux.tuple_lag_p99_us", "us");
    ("ftlinux.commit_flushes", "count");
    ("ftlinux.commit_wait_p50_us", "us");
    ("ftlinux.commit_wait_p99_us", "us");
    ("ftlinux.failover_detect_ms", "ms");
    ("ftlinux.failover_drain_ms", "ms");
    ("ftlinux.failover_reload_ms", "ms");
    ("ftlinux.failover_golive_ms", "ms");
    ("ftlinux.cluster_create_ms", "ms");
    ("ftlinux.digest_points", "count");
    ("ftlinux.det_section_ns", "ns");
    ("ftlinux.det_section_iters", "count");
    ("apps.requests", "count");
    ("apps.prekill_requests", "count");
    ("apps.ok", "count");
    ("apps.shed", "count");
    ("apps.errors", "count");
    ("apps.chaos_seed_host_ms_p50", "ms");
    ("apps.chaos_seed_host_ms_max", "ms");
    ("apps.chaos_failovers", "count");
    ("trace.overhead", "ratio");
  ]

(* {1 Output} *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let json_metric (name, v, unit) =
  Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit

let json_object items =
  "{" ^ String.concat "," (List.map json_metric items) ^ "}"

(* Every metric of [catalogue], in its order; one the run did not produce
   (it does not apply to the workload) reads 0. *)
let json_metrics catalogue values =
  json_object
    (List.map
       (fun (name, unit) ->
         (name, Option.value ~default:0. (List.assoc_opt name values), unit))
       catalogue)

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" correct
    attempted failed metrics

let finite xs = List.for_all (fun (_, v) -> Float.is_finite v) xs

(* {1 Runs} *)

type opts = {
  workload : [ `Compress | `Web | `Chaos ];
  name : string;
  seed : int;
  seconds : float;
  size : Worlds.size;
  out_dir : string;
}

let rep o ?with_layers probe =
  Worlds.run_rep ?with_layers probe o.workload ~size:o.size ~seed:o.seed

let failures reps = List.concat_map (fun r -> r.Worlds.failures) reps

let report_failures reps =
  List.iter (Printf.eprintf "check failed: %s\n%!") (failures reps)

(* {2 --trace 0} *)

(* Measured CPU seconds of one repetition, for turning --seconds into a
   repetition count that does not depend on the machine's speed. *)
let nominal_rep_s = function `Compress -> 6. | `Web -> 5. | `Chaos -> 8.

let rep_count o =
  max min_reps
    (int_of_float (Float.round (o.seconds /. nominal_rep_s o.workload)))

type untraced = {
  reps : Worlds.rep list;
      (** in run order; the first fixed the simulated metrics and read the
          peak heap *)
  setup : float list;  (** CPU seconds per world construction *)
}

(* One world construction, timed by [probe] if it is traced; returns its
   CPU seconds.  It starts from a collected heap, so it does not pay for
   collecting whatever the run before it left behind. *)
let construct o probe =
  Gc.full_major ();
  let c0 = Probe.cpu_now () in
  Worlds.build_world probe o.workload ~size:o.size ~seed:o.seed;
  Probe.cpu_now () -. c0

let measure_untraced o =
  let n = rep_count o in
  (* Every repetition starts from a compacted heap, so the GC works at the
     same points in each. *)
  let fresh_rep () =
    Gc.compact ();
    rep o (Probe.untraced ())
  in
  let build () = construct o (Probe.untraced ()) in
  let rep1 = fresh_rep () in
  (* The constructions come after the first repetition, which read the
     peak heap, and are spread between the repetitions. *)
  let setup = ref [] and reps = ref [ rep1 ] in
  for i = 1 to n do
    for _ = 1 to (setup_reps * i / n) - (setup_reps * (i - 1) / n) do
      setup := build () :: !setup
    done;
    if i < n then reps := fresh_rep () :: !reps
  done;
  { reps = List.rev !reps; setup = !setup }

let repeatable = function
  | [] -> true
  | r1 :: reps -> List.for_all (fun r -> r.Worlds.sim = r1.Worlds.sim) reps

let untraced o =
  let u = measure_untraced o in
  let rep1 = List.hd u.reps in
  let host_s = Layers.median (List.map (fun r -> r.Worlds.host_s) u.reps) in
  let metrics =
    [
      ("setup_s", Layers.median u.setup);
      ("heap_mb", rep1.Worlds.heap_mb);
      ("alloc_gb", rep1.Worlds.gc.Layers.allocated_words *. 8. /. 1e9);
    ]
  in
  report_failures u.reps;
  if not (repeatable u.reps) then
    prerr_endline "check failed: a repetition changed a simulated metric";
  Printf.printf
    "{\"workload\":%S,\"seed\":%d,\"reps\":%d,\"sim\":%s,\"host\":%s,%s}\n"
    o.name o.seed (List.length u.reps) (json_object rep1.Worlds.sim)
    (json_object [ ("host_s", host_s, "s") ])
    (Printf.sprintf "\"host_s_reps\":[%s]"
       (String.concat ","
          (List.map (fun r -> Printf.sprintf "%.6f" r.Worlds.host_s) u.reps)));
  let correct =
    repeatable u.reps && failures u.reps = [] && finite metrics
    && Float.is_finite host_s
    && List.for_all (fun (_, v, _) -> Float.is_finite v) rep1.Worlds.sim
  in
  print_endline
    (result_line ~correct ~attempted:rep1.Worlds.attempted
       ~failed:rep1.Worlds.failed
       (json_metrics end_to_end metrics));
  correct

(* {2 --trace 1} *)

type traced = {
  rep1 : Worlds.rep;
      (** untraced and without the per-layer reduction, first in the
          process: the GC counts *)
  rep2 : Worlds.rep;  (** traced *)
  rep3 : Worlds.rep;
      (** untraced, with the same reduction as [rep2]: the per-layer counts
          it must reproduce, and the baseline for its overhead *)
  run_spans : Probe.span list;  (** the traced repetition's top-level spans *)
  baseline_spans : Probe.span list;  (** compress's traced standalone run *)
  baseline_repeats : bool;
  cpu0 : float;
  cpu1 : float;  (** the traced repetition's CPU clock, read independently *)
  gc_events_lost : int;  (** Runtime_events overwritten before a poll *)
  setup_spans : Probe.span list;
  micro : (string * (float * int)) list;
  run_id : string;
}

let overhead t = (t.rep2.Worlds.host_s /. t.rep3.Worlds.host_s) -. 1.

let measure_traced ?(micro_batches = Micro.batches) o =
  Gc.compact ();
  let rep1 = rep o (Probe.untraced ()) in
  let gc_phases = Probe.Gc_phases.start () in
  let run_id =
    Printf.sprintf "%s-seed%d-pid%d" o.name o.seed (Unix.getpid ())
  in
  let probe = Probe.traced ~run_id ~gc:(Some gc_phases) in
  Gc.compact ();
  Probe.begin_timeline probe "run";
  let cpu0 = Probe.cpu_now () in
  let rep2 = rep o ~with_layers:true probe in
  let cpu1 = Probe.cpu_now () in
  let baseline_repeats =
    Worlds.trace_baseline probe o.workload ~size:o.size ~seed:o.seed
  in
  let gc_events_lost = Probe.Gc_phases.stop gc_phases in
  Gc.compact ();
  let rep3 = rep o ~with_layers:true (Probe.untraced ()) in
  (* Set-up spans: traced constructions, one timeline each. *)
  let setup_probe = Probe.traced ~run_id ~gc:None in
  for i = 1 to setup_reps do
    Probe.begin_timeline setup_probe (Printf.sprintf "setup%02d" i);
    ignore (construct o setup_probe)
  done;
  {
    rep1;
    rep2;
    rep3;
    run_spans = Probe.timeline_spans probe "run";
    baseline_spans = Probe.timeline_spans probe "baseline";
    baseline_repeats;
    cpu0;
    cpu1;
    gc_events_lost;
    setup_spans = Probe.spans setup_probe;
    micro = Micro.all ~batches:micro_batches ();
    run_id;
  }

(* How much of the traced repetition's CPU time may be [uncovered]: the
   clock reads at the ends of its spans, and nothing else. *)
let gap_tolerance measured = 1e-3 +. (1e-3 *. measured)

let sum xs = List.fold_left ( +. ) 0. xs

(* Seconds of the traced repetition between its top-level spans that the
   probe spent polling Runtime_events, and that the GC took. *)
let polling t = sum (List.map (fun s -> s.Probe.sp_poll_cpu) t.run_spans)
let gap_gc t = sum (List.map (fun s -> s.Probe.sp_gap_gc) t.run_spans)

(* CPU seconds of the traced repetition that neither its top-level spans,
   nor the probe's polling, nor the GC account for: benchmark work between
   calls. *)
let uncovered t =
  sum (Probe.gaps ~cpu0:t.cpu0 ~cpu1:t.cpu1 t.run_spans) -. polling t -. gap_gc t

(* The traced run's invariants, as failure messages. *)
let trace_invariants t =
  let fails = ref [] in
  let check ok msg = if not ok then fails := msg :: !fails in
  let same f = f t.rep2 = f t.rep3 in
  check (same (fun r -> r.Worlds.sim))
    "traced simulated metrics differ from the untraced run";
  check (same (fun r -> r.Worlds.layers))
    "traced per-layer counts differ from the untraced run";
  check (same (fun r -> r.Worlds.fingerprint))
    "traced registry or Evlog differs from the untraced run";
  check (t.rep3.Worlds.sim = t.rep1.Worlds.sim)
    "a repetition changed a simulated metric";
  check t.baseline_repeats
    "the traced standalone baseline differs from the untraced one";
  let measured = t.cpu1 -. t.cpu0 in
  let gaps = Probe.gaps ~cpu0:t.cpu0 ~cpu1:t.cpu1 t.run_spans in
  check (List.for_all (fun g -> g >= 0.) gaps) "top-level host spans overlap";
  let gap = uncovered t in
  check
    (gap <= gap_tolerance measured)
    (Printf.sprintf
       "top-level spans leave %.6f s of the measured %.6f s uncovered" gap
       measured);
  List.iter
    (fun s ->
      List.iter
        (fun (ph, d) ->
          check (d <= Probe.span_wall s)
            (Printf.sprintf "gc.%s child (%.6f s) outlasts its span (%.6f s)"
               ph d (Probe.span_wall s)))
        s.Probe.sp_gc)
    t.run_spans;
  check (Float.is_finite (overhead t)) "no overhead figure";
  check (t.gc_events_lost = 0)
    (Printf.sprintf
       "Runtime_events overwrote %d events before a poll: GC phase times \
        are void"
       t.gc_events_lost);
  check
    (List.assoc_opt "sim.evlog_dropped" t.rep3.Worlds.layers = Some 0.)
    "the Evlog ring dropped events: every Evlog-derived number is void";
  List.rev !fails

(* The traced repetition's spans inside the measured region, the first run
   slice or chaos schedule through the checks, less chaos's Evlog
   reductions (benchmark work). *)
let measured_spans spans =
  let rec from_first_run = function
    | s :: rest
      when s.Probe.sp_name <> "Engine.run" && s.Probe.sp_name <> "Chaosrun.run"
      ->
        from_first_run rest
    | spans -> spans
  in
  let rec to_checks = function
    | s :: rest ->
        if s.Probe.sp_name = "checks" then [ s ] else s :: to_checks rest
    | [] -> []
  in
  List.filter
    (fun s -> s.Probe.sp_name <> "Evlog.reduce")
    (to_checks (from_first_run spans))

(* Every per-layer value of a traced run, by catalogue name. *)
let layer_values t =
  let layer name =
    Option.value ~default:0. (List.assoc_opt name t.rep3.Worlds.layers)
  in
  let named name spans = List.filter (fun s -> s.Probe.sp_name = name) spans in
  let cpu_ms spans = List.map (fun s -> Probe.span_cpu s *. 1e3) spans in
  let total f spans = List.fold_left (fun acc s -> acc +. f s) 0. spans in
  let gc_total ph =
    total
      (fun s -> Option.value ~default:0. (List.assoc_opt ph s.Probe.sp_gc))
      (measured_spans t.run_spans)
  in
  let events = layer "sim.events" in
  let per_event x = if events = 0. then 0. else x /. events in
  let seed_ms = cpu_ms (named "Chaosrun.run" t.run_spans) in
  let gc = t.rep1.Worlds.gc in
  t.rep3.Worlds.layers
  @ [
      ( "sim.host_ns_per_event",
        per_event
          (total Probe.span_cpu (named "Engine.run" t.run_spans) *. 1e9) );
      ( "sim.engine_create_ms",
        Layers.median (cpu_ms (named "Engine.create" t.setup_spans)) );
      ( "ftlinux.cluster_create_ms",
        Layers.median (cpu_ms (named "Cluster.create" t.setup_spans)) );
      ("gc.minor_words_per_event", per_event gc.Layers.minor_words);
      ("gc.promoted_words", gc.Layers.promoted_words);
      ("gc.major_collections", float_of_int gc.Layers.major_collections);
      ("gc.minor_s", gc_total "minor");
      ("gc.remembered_set_s", gc_total "remembered_set");
      ("gc.major_s", gc_total "major");
      ( "netstack.rto_per_kseg",
        Layers.rto_per_kseg ~rto:(layer "netstack.rto")
          ~segs:(layer "netstack.segs") );
      ("apps.chaos_seed_host_ms_p50", Layers.median seed_ms);
      ("apps.chaos_seed_host_ms_max", List.fold_left max 0. seed_ms);
      ("trace.overhead", overhead t);
    ]
  @ List.concat_map
      (fun (op, (ns, iters)) ->
        [ (op ^ "_ns", ns); (op ^ "_iters", float_of_int iters) ])
      t.micro

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let traced o =
  let t = measure_traced o in
  let invariants = trace_invariants t in
  List.iter (Printf.eprintf "trace invariant failed: %s\n%!") invariants;
  let reps = [ t.rep1; t.rep2; t.rep3 ] in
  report_failures reps;
  (* Spans are written out when the run ends. *)
  mkdir_p o.out_dir;
  let trace_file = Filename.concat o.out_dir (t.run_id ^ ".trace.json") in
  Out_channel.with_open_bin trace_file (fun oc ->
      output_string oc
        (Probe.to_chrome ~run_id:t.run_id
           (t.setup_spans @ t.run_spans @ t.baseline_spans)));
  let values = layer_values t in
  let correct = invariants = [] && finite values && failures reps = [] in
  Printf.printf
    "{\"workload\":%S,\"seed\":%d,\"trace\":%S,\"sim\":%s,\"polling_s\":%.6f,\"gap_gc_s\":%.6f,\"uncovered_s\":%.6f}\n"
    o.name o.seed trace_file (json_object t.rep1.Worlds.sim) (polling t) (gap_gc t)
    (uncovered t);
  print_endline
    (result_line ~correct ~attempted:t.rep1.Worlds.attempted
       ~failed:t.rep1.Worlds.failed
       (json_metrics per_layer values));
  correct
