(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4).  One subcommand per figure; `all` (the default) runs the
   full evaluation.  Shapes, not absolute numbers, are the reproduction
   target — see EXPERIMENTS.md for the paper-versus-measured record. *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux
open Ftsim_apps

let hr title =
  Printf.printf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* The experiment shape                                                *)
(* ------------------------------------------------------------------ *)

(* An experiment runs its sweep points (rows).  A row's runs are columns,
   most of them (column, server) pairs driven by one runner, and each run
   returns named numbers.  The experiment's BENCH_<name>.json holds every
   number as the gauge "<name>.<row>.<column>.<number>" (empty parts
   dropped) in element 0, then the registry of every engine its runs
   built, in creation order.  The registry serialisation is deterministic,
   so two same-seed bench runs write byte-identical files; host wall clock
   reaches stdout only, but for chaosparallel's gated gauges. *)
type nums = (string * float) list

let engines : Engine.t list ref = ref []   (* newest first *)
let numbers : nums ref = ref []
let get (n : nums) name = List.assoc name n
let join parts = String.concat "." (List.filter (fun p -> p <> "") parts)

(* The harness's only engine constructor, so the dump holds every run. *)
let new_engine () =
  let e = Engine.create () in
  engines := e :: !engines;
  e

let record key (n : nums) =
  List.iter (fun (name, v) -> numbers := (join [ key; name ], v) :: !numbers) n;
  n

(* One row: [runner] drives each (column, server) pair on a fresh engine. *)
let sweep row runner servers =
  List.map
    (fun (col, server) -> (col, record (join [ row; col ]) (runner (new_engine ()) server)))
    servers

(* How far [b] lies above [a], in percent (0 when [a] is not positive), and
   how far below: [0. -.] keeps an equal pair's drop a positive zero. *)
let gain_pct a b = if a > 0. then 100. *. ((b /. a) -. 1.) else 0.
let drop_pct a b = 0. -. gain_pct a b

(* The one table printer.  A column has a heading, a width (negative:
   left-aligned), a precision and a unit suffix its numbers carry inside
   the width. *)
type col = { head : string; width : int; prec : int; unit : string }
type cell = S of string | F of float

let col head width prec unit = { head; width; prec; unit }
let cells (n : nums) = List.map (fun (_, v) -> F v) n
let pick n names = List.map (fun name -> F (get n name)) names

let line cols row =
  String.concat " "
    (List.map2
       (fun c -> function
         | S s -> Printf.sprintf "%*s" c.width s
         | F v -> Printf.sprintf "%*.*f%s" (c.width - String.length c.unit) c.prec v c.unit)
       cols row)

let heading cols = line cols (List.map (fun c -> S c.head) cols)

let table cols rows =
  print_endline (heading cols);
  List.iter (fun row -> print_endline (line cols row)) rows

(* Base path from --trace-out; each experiment writes its newest engine's
   trace next to its BENCH_<name>.json, suffixed with the experiment name
   so a full run does not overwrite itself. *)
let trace_out : string option ref = ref None

let trace_path base name =
  let dir = Filename.dirname base and file = Filename.basename base in
  let stem, ext =
    match Filename.chop_suffix_opt file ~suffix:".jsonl" with
    | Some s -> (s, ".jsonl")
    | None -> (
        match Filename.chop_suffix_opt file ~suffix:".json" with
        | Some s -> (s, ".json")
        | None -> (file, ".json"))
  in
  Filename.concat dir (Printf.sprintf "%s_%s%s" stem name ext)

let dump_bench name =
  let oc = open_out (Printf.sprintf "BENCH_%s.json" name) in
  output_string oc "[";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",";
      output_string oc "\n";
      output_string oc
        (String.trim (Metrics.Registry.to_json (Engine.metrics e))))
    (List.rev !engines);
  output_string oc "\n]\n";
  close_out oc

(* Element 0's engine runs nothing: its registry carries the numbers. *)
let run_experiment name f quick =
  engines := [];
  numbers := [];
  let headline = Engine.metrics (new_engine ()) in
  f quick;
  List.iter
    (fun (key, v) ->
      Metrics.Gauge.set (Metrics.Registry.gauge headline (join [ name; key ])) v)
    !numbers;
  dump_bench name;
  Option.iter
    (fun base ->
      Scenario.write_trace ~prog:"bench" (Engine.evlog (List.hd !engines))
        (trace_path base name))
    !trace_out

(* The default cluster with a [capacity]-slot mailbox ring. *)
let with_ring capacity =
  {
    Cluster.default_config with
    mailbox_config =
      { Cluster.default_config.Cluster.mailbox_config with Mailbox.capacity };
  }

(* Effectively unbounded buffering: the primary streams without ever waiting
   for the secondary — the paper's "peak throughput attainable in a short
   burst". *)
let burst = Scenario.Replicated (with_ring 50_000_000)

let sustained = Scenario.Replicated Cluster.default_config

(* Figures 4 and 6 run each point on Ubuntu, the burst and the sustained
   server; their first table gives [rate] per server and the sustained
   share of Ubuntu. *)
let three_servers =
  [ ("ubuntu", Scenario.Standalone); ("peak", burst); ("sustained", sustained) ]

let three_table label rows rate =
  table
    [ col label (-10) 0 ""; col "Ubuntu" 12 0 ""; col "FT-peak" 12 0 "";
      col "FT-sustained" 14 0 ""; col "sust/Ubu%" 12 1 "" ]
    (List.map
       (fun (key, r) ->
         let v server = get (List.assoc server r) rate in
         (S key :: List.map (fun (server, _) -> F (v server)) three_servers)
         @ cells (record key [ ("sust_ubuntu_pct", 100. *. v "sustained" /. v "ubuntu") ]))
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 1 and Section 2.3: the memory model under memcached          *)
(* ------------------------------------------------------------------ *)

let memcached_layout m =
  let layout = Memlayout.create ~ram_bytes:(96 * 1024 * Scenario.mib 1) in
  Memcached.apply_load layout ~multiplier:m;
  layout

let fig1 _quick =
  hr "Figure 1: memory classification, memcached dataset sweep (96 GiB RAM)";
  table
    [ col "multiplier" (-12) 0 ""; col "Ignored%" 10 1 ""; col "Delayed%" 10 1 "";
      col "User%" 10 1 "" ]
    (List.map
       (fun m ->
         let key = Printf.sprintf "%dx" m in
         let i, d, u = Memlayout.fractions (memcached_layout m) in
         S key
         :: cells
              (record key
                 [ ("ignored_pct", 100. *. i); ("delayed_pct", 100. *. d);
                   ("user_pct", 100. *. u) ]))
       [ 3; 30; 60; 90; 120; 150; 180 ]);
  Printf.printf
    "(paper: at 180x ~15%% Ignored / ~20%% Delayed / ~65%% User; Ignored and\n\
    \ User grow with the dataset while Delayed shrinks)\n"

let sec23 _quick =
  hr "Section 2.3: outcome of a random memory error (Monte Carlo, 100k hits)";
  table
    [ col "multiplier" (-12) 0 ""; col "kernel-fatal%" 14 1 "";
      col "recovered%" 12 1 ""; col "app-killed%" 12 1 "" ]
    (List.map
       (fun m ->
         let key = Printf.sprintf "%dx" m in
         let layout = memcached_layout m in
         let prng = Prng.create ~seed:(1000 + m) in
         let fatal = ref 0 and recov = ref 0 and killed = ref 0 in
         let trials = 100_000 in
         for _ = 1 to trials do
           match Memlayout.hit_random_page layout prng with
           | Memlayout.Kernel_fatal -> incr fatal
           | Memlayout.Recovered -> incr recov
           | Memlayout.App_killed -> incr killed
         done;
         let pct x = 100. *. float_of_int !x /. float_of_int trials in
         S key
         :: cells
              (record key
                 [ ("kernel_fatal_pct", pct fatal); ("recovered_pct", pct recov);
                   ("app_killed_pct", pct killed) ]))
       [ 3; 90; 180 ]);
  Printf.printf
    "(paper 2.3: at the largest dataset ~15%% of errors are unrecoverable\n\
    \ kernel hits and ~35%% land in kernel memory overall; an app hit kills\n\
    \ the process.  FT-Linux masks the kernel-fatal and app-killed classes\n\
    \ by failing over to the peer partition.)\n"

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: PBZIP2 block-size sweep                            *)
(* ------------------------------------------------------------------ *)

(* The sustained rate is the block-completion rate once buffering effects
   have settled: we time-stamp every committed block and measure the rate
   over the last 60 %% of the run (the first 40 %% absorbs the burst phase,
   during which the mailbox ring is still filling). *)
let tail_rate series t_done =
  let buckets = Metrics.Series.buckets series in
  match buckets with
  | [] -> 0.0
  | _ ->
      let t_end = Time.to_sec_f t_done in
      let cut = 0.4 *. t_end in
      let blocks, t_first =
        List.fold_left
          (fun (acc, t_first) (t, v) ->
            let ts = Time.to_sec_f t in
            if ts >= cut then (acc +. v, Float.min t_first ts)
            else (acc, t_first))
          (0.0, infinity) buckets
      in
      if t_first = infinity || t_end <= t_first then 0.0
      else blocks /. (t_end -. t_first)

let run_pbzip2 ~block_kb ~file_mb eng server =
  let params =
    {
      Pbzip2.default_params with
      Pbzip2.file_bytes = Scenario.mib file_mb;
      block_bytes = block_kb * 1024;
    }
  in
  let cap = Time.sec 600 in
  let r = Scenario.pbzip2 eng ~cap server params in
  let dt = Option.value ~default:cap r.Scenario.done_at in
  let msgs, bytes = Scenario.traffic r.Scenario.started in
  let per_s n = float_of_int n /. Time.to_sec_f dt in
  let msgs_s = per_s msgs and bytes_s = per_s bytes in
  [ ("blocks_per_s", tail_rate r.Scenario.blocks dt); ("msgs_per_s", msgs_s);
    ("kb_per_s", bytes_s /. 1024.);
    ("bytes_per_msg", if msgs_s > 0. then bytes_s /. msgs_s else 0.) ]

let fig4_5 quick =
  let file_mb = if quick then 64 else 512 in
  hr
    (Printf.sprintf
       "Figure 4: PBZIP2 blocks/s vs block size (%d MiB file, 32 workers)"
       file_mb);
  let sizes = if quick then [ 25; 50; 100 ] else [ 25; 50; 100; 200; 400; 900 ] in
  let rows =
    List.map
      (fun kb ->
        let key = string_of_int kb in
        (key, sweep key (run_pbzip2 ~block_kb:kb ~file_mb) three_servers))
      sizes
  in
  three_table "block(KB)" rows "blocks_per_s";
  Printf.printf
    "(paper: FT ~80%% of Ubuntu at 50-100 KB; peak tracks Ubuntu; sustained\n\
    \ drops steadily below 50 KB as the secondary's replay falls behind)\n";
  hr "Figure 5: inter-replica traffic vs block size (unthrottled run)";
  table
    [ col "block(KB)" (-10) 0 ""; col "msgs/s" 14 0 ""; col "KB/s" 14 1 "";
      col "bytes/msg" 14 1 "" ]
    (List.map
       (fun (key, r) ->
         S key :: pick (List.assoc "peak" r) [ "msgs_per_s"; "kb_per_s"; "bytes_per_msg" ])
       rows);
  Printf.printf
    "(paper: ~34k msgs/s and 4.3 MB/s at 50 KB blocks; traffic grows\n\
    \ super-linearly as blocks shrink)\n"

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: Mongoose under ApacheBench, CPU-load sweep         *)
(* ------------------------------------------------------------------ *)

(* Closed-loop ab against Mongoose with [params] over the 1 Gb/s link. *)
let mongoose_ab params ~target ~concurrency ~warmup ~until eng server =
  let link = Scenario.gbit_link eng in
  let s = Scenario.start eng ~link server ~app:(Mongoose.run ~params) in
  Scenario.ab s ~target ~concurrency ~warmup ~until

let run_mongoose ~cpu_k ~warmup ~window eng server =
  let cpu_per_request = Time.us 100 * (1 lsl cpu_k) in
  let params =
    { Mongoose.default_params with Mongoose.workers = 32; cpu_per_request }
  in
  let w =
    mongoose_ab params ~target:"/page.html" ~concurrency:100 ~warmup
      ~until:(warmup + window) eng server
  in
  let per_s n = float_of_int n /. Time.to_sec_f window in
  [ ("msgs_per_s", per_s w.Scenario.msgs); ("kb_per_s", per_s w.Scenario.bytes /. 1024.);
    ("req_per_s", per_s w.Scenario.ops) ]

let fig6_7 quick =
  let warmup = Time.ms 400 in
  let window = if quick then Time.ms 600 else Time.ms 1500 in
  let ks = if quick then [ 0; 4; 8 ] else [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  hr "Figure 6: Mongoose req/s vs per-request CPU load (10 KB page, 100 conns)";
  let rows =
    List.map
      (fun k ->
        let key = string_of_int k in
        (key, sweep key (run_mongoose ~cpu_k:k ~warmup ~window) three_servers))
      ks
  in
  three_table "cpu-load" rows "req_per_s";
  Printf.printf
    "(paper: FT within 20%% of Ubuntu below ~1500 req/s, dropping sharply at\n\
    \ higher request rates; unlike PBZIP2 the peak rate also degrades)\n";
  hr "Figure 7: inter-replica traffic vs CPU load (sustained run)";
  table
    [ col "cpu-load" (-10) 0 ""; col "msgs/s" 14 0 ""; col "KB/s" 14 1 "";
      col "req/s" 12 0 "" ]
    (List.map (fun (key, r) -> S key :: cells (List.assoc "sustained" r)) rows)

(* ------------------------------------------------------------------ *)
(* Section 4.3: replicated Mongoose next to a non-replicated CPU hog   *)
(* ------------------------------------------------------------------ *)

let run_sec43 eng server =
  let link = Scenario.gbit_link eng in
  let params =
    {
      Mongoose.default_params with
      Mongoose.workers = 8;
      cpu_per_request = Time.ms 1;
    }
  in
  let s = Scenario.start eng ~link server ~app:(Mongoose.run ~params) in
  (* The non-replicated application: saturates all 32 cores when alone. *)
  let hog = Cpuhog.start s.Scenario.kernel ~threads:32 in
  let w =
    Scenario.ab s ~target:"/x" ~concurrency:5 ~warmup:(Time.ms 500)
      ~until:(Time.ms 2500)
  in
  Cpuhog.stop hog;
  [ ("req_per_s", float_of_int w.Scenario.ops /. 2.0);
    ("p50_ms", Metrics.Hist.quantile w.Scenario.latency 0.5 *. 1000.) ]

let sec43 _quick =
  hr "Section 4.3: replicated Mongoose + non-replicated CPU hog (32+1 cores)";
  (* A standalone server gets half the machine: 32 cores. *)
  let r =
    sweep "" run_sec43
      [ ("ubuntu", Scenario.Standalone);
        ("ft", Scenario.Replicated { Cluster.default_config with split = `Asymmetric 32 }) ]
  in
  table
    [ col "config" (-22) 0 ""; col "req/s" 12 0 ""; col "p50 latency" 14 2 "ms" ]
    (List.map2 (fun label (_, n) -> S label :: cells n)
       [ "Ubuntu (32 cores)"; "FT-Linux (32+1)" ] r);
  let v run = get (List.assoc run r) in
  let ratio =
    record ""
      [ ("throughput_ratio_pct", 100. *. v "ft" "req_per_s" /. v "ubuntu" "req_per_s");
        ("p50_delta_pct", gain_pct (v "ubuntu" "p50_ms") (v "ft" "p50_ms")) ]
  in
  Printf.printf "throughput ratio: %.1f%%   latency delta: %+.1f%%\n"
    (get ratio "throughput_ratio_pct")
    (get ratio "p50_delta_pct");
  Printf.printf
    "(paper: 760 vs 700 req/s = 91%%; latency 1.3 vs 1.4 ms = +8%%)\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: large file transfer with mid-stream failover              *)
(* ------------------------------------------------------------------ *)

(* A 64 KiB-chunk wget of [file_mb] over the 1 Gb/s link, to completion
   or [cap]: the server and the download with its byte count. *)
let wget_file ?fail_at ~target ~file_mb ~cap eng server =
  let link = Scenario.gbit_link eng in
  let params =
    {
      Fileserver.default_params with
      Fileserver.file_bytes = Scenario.mib file_mb;
      chunk_bytes = 64 * 1024;
    }
  in
  let s = Scenario.start eng ~link ?fail_at server ~app:(Fileserver.run ~params) in
  let w = Scenario.wget s ~target ~cap in
  (s, w, Option.value ~default:0 (Ivar.peek w.Loadgen.total))

(* Bytes, duration and MB/s overall and per 1 s bucket ("t<s>.mb_per_s"),
   and with [fail_at], when the takeover started and went live. *)
let run_fig8 ?fail_at ~file_mb eng server =
  let s, w, total =
    wget_file ?fail_at ~target:"/file" ~file_mb ~cap:(Time.sec 240) eng server
  in
  let dur = Time.to_sec_f (Engine.now eng) in
  let failover =
    let window c = (Cluster.failover_started_at c, Cluster.failover_completed_at c) in
    match Option.map window s.Scenario.cluster with
    | Some (Some a, Some b) ->
        [ ("detected_s", Time.to_sec_f a); ("live_s", Time.to_sec_f b);
          ("outage_s", Time.to_sec_f (b - a)) ]
    | _ -> []
  in
  [ ("bytes", float_of_int total); ("duration_s", dur);
    ("mb_per_s", float_of_int total /. dur /. 1e6) ]
  @ failover
  @ List.map
      (fun (t, r) -> (Printf.sprintf "t%.0f.mb_per_s" t, r /. 1e6))
      (Metrics.Series.rate_per_sec w.Loadgen.bytes_received)

let fig8 quick =
  let file_mb = if quick then 512 else 2048 in
  let fail_at = Time.sec (if quick then 2 else 6) in
  hr
    (Printf.sprintf
       "Figure 8: %d MiB HTTP transfer over 1 Gb/s (paper: 10 GB; scaled, \
        steady-state rates are size-independent)"
       file_mb);
  let steady =
    sweep "" (run_fig8 ~file_mb)
      [ ("linux", Scenario.Standalone); ("ft", sustained) ]
  in
  let r = steady @ sweep "" (run_fig8 ~fail_at ~file_mb) [ ("failover", sustained) ] in
  let v run = get (List.assoc run r) in
  let horizon =
    int_of_float
      (Float.round
         (Float.max (v "failover" "duration_s")
            (Float.max (v "linux" "duration_s") (v "ft" "duration_s"))))
  in
  let timeline =
    [ col "t(s)" (-6) 0 ""; col "Linux" 12 1 ""; col "FT-Linux" 12 1 "";
      col "FT+failover" 14 1 "" ]
  in
  print_endline (heading timeline ^ "   (MB/s per 1 s bucket)");
  for t = 0 to horizon do
    let rate (_, n) =
      F (Option.value ~default:0. (List.assoc_opt (Printf.sprintf "t%d.mb_per_s" t) n))
    in
    print_endline (line timeline (S (string_of_int t) :: List.map rate r))
  done;
  let share =
    record "" [ ("ft_of_linux_pct", 100. *. v "ft" "mb_per_s" /. v "linux" "mb_per_s") ]
  in
  let summary =
    [ col "scenario" (-22) 0 ""; col "bytes" 10 0 ""; col "duration" 11 1 "s";
      col "MB/s" 10 1 "" ]
  in
  print_newline ();
  print_endline (heading summary);
  List.iter2
    (fun label (run, n) ->
      print_endline
        (line summary (S label :: pick n [ "bytes"; "duration_s"; "mb_per_s" ])
        ^
        if run = "ft" then
          Printf.sprintf " (%.0f%% of Linux)" (get share "ft_of_linux_pct")
        else ""))
    [ "Linux"; "FT-Linux"; "FT-Linux + failover" ]
    r;
  (match List.assoc_opt "outage_s" (List.assoc "failover" r) with
  | Some outage ->
      Printf.printf
        "failover: detected at %.2fs, live at %.2fs (outage %.2fs; driver \
         reload dominates)\n"
        (v "failover" "detected_s") (v "failover" "live_s") outage
  | None -> Printf.printf "failover: did not trigger!\n");
  Printf.printf
    "(paper: FT reaches ~85%% of Ubuntu; on failure throughput drops to zero\n\
    \ for ~5 s — 99%% of it NIC driver reload — then recovers to the Ubuntu \
     rate)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

(* One ablation: each (label, column, server) run of [runner], one table
   line per run. *)
let ablation row runner cols runs =
  let r = sweep row runner (List.map (fun (_, key, server) -> (key, server)) runs) in
  table cols (List.map2 (fun (label, _, _) (_, n) -> S label :: cells n) runs r)

(* Closed-loop ab and a 512 MiB transfer over 1 Gb/s, measured in MB/s. *)
let ab_p50 eng server =
  let w =
    mongoose_ab
      { Mongoose.default_params with Mongoose.workers = 32 }
      ~target:"/x" ~concurrency:100 ~warmup:(Time.ms 300) ~until:(Time.ms 1300)
      eng server
  in
  [ ("req_per_s", float_of_int w.Scenario.ops);
    ("p50_ms", 1000. *. Metrics.Hist.quantile w.Scenario.latency 0.5) ]

let transfer eng server =
  let _, _, total =
    wget_file ~target:"/f" ~file_mb:512 ~cap:(Time.sec 60) eng server
  in
  [ ("mb_per_s", float_of_int total /. Time.to_sec_f (Engine.now eng) /. 1e6) ]

let ablations _quick =
  (* A: replica proximity (the paper's motivation: 0.55 us core-to-core vs
     135 us LAN, with RDMA in between).  The same replicated web server,
     with only the replica-to-replica propagation delay changed. *)
  hr "Ablation A: replica proximity (inter-replica propagation delay)";
  let delay d =
    Scenario.Replicated
      {
        Cluster.default_config with
        Cluster.mailbox_config =
          { Mailbox.default_config with Mailbox.propagation_delay = d };
      }
  in
  ablation "proximity" ab_p50
    [ col "link" (-22) 0 ""; col "req/s" 12 0 ""; col "p50 latency" 12 2 "ms" ]
    [ ("intra-machine 0.55us", "intra", delay (Time.ns 550));
      ("RDMA-class 13.5us", "rdma", delay (Time.ns 13_500));
      ("LAN 135us", "lan", delay (Time.us 135)) ];
  Printf.printf
    "(the paper's motivation: physical separation multiplies replica\n\
    \ round-trips by ~2-3 orders of magnitude, taxing every output commit)\n";
  (* B: output commit on/off (the relaxation of 3.5: inside one machine,
     messages already in the shared-memory ring survive the sender, so the
     primary may release output without waiting for acknowledgement). *)
  hr "Ablation B: output commit strict vs relaxed (3.5), 512 MiB transfer";
  let commit output_commit =
    Scenario.Replicated { Cluster.default_config with output_commit }
  in
  ablation "commit" transfer
    [ col "mode" (-22) 0 ""; col "MB/s" 12 1 "" ]
    [ ("strict (default)", "strict", commit true); ("relaxed", "relaxed", commit false) ];
  (* C: the wake_up_process replay cost — the secondary's serial bottleneck
     (4.1) — swept on the PBZIP2 sustained point that collapses. *)
  hr "Ablation C: replay wake latency vs PBZIP2 sustained rate (25 KB blocks)";
  let params =
    {
      Pbzip2.default_params with
      Pbzip2.file_bytes = Scenario.mib 96;
      block_bytes = 25 * 1024;
    }
  in
  let cap = Time.sec 120 in
  let wake eng server =
    let r = Scenario.pbzip2 eng ~cap server params in
    let t_done = Option.value ~default:cap r.Scenario.done_at in
    [ ("blocks_per_s", tail_rate r.Scenario.blocks t_done) ]
  in
  ablation "wake" wake
    [ col "wake (us)" (-12) 0 ""; col "blocks/s" 14 0 "" ]
    (List.map
       (fun us ->
         ( string_of_int us,
           Printf.sprintf "%dus" us,
           Scenario.Replicated
             { Cluster.default_config with Cluster.wake_latency = Time.us us } ))
       [ 15; 30; 55; 110 ]);
  (* D: the cost of the third replica (6 extension): the same transfer
     unreplicated, with one backup, and with two backups (quorum 1). *)
  hr "Ablation D: replica count vs transfer rate (512 MiB over 1 Gb/s)";
  let replicas n = Scenario.Replicated { Cluster.default_config with replicas = n } in
  ablation "replicas" transfer
    [ col "replicas" (-22) 0 ""; col "MB/s" 12 1 "" ]
    [ ("1 (unreplicated)", "1", Scenario.Standalone);
      ("2 (primary+backup)", "2", replicas 2); ("3 (quorum 1 of 2)", "3", replicas 3) ];
  Printf.printf
    "(with quorum-1 stability the third replica is nearly free on the\n\
    \ output path: the faster backup's acknowledgement releases output)\n"

(* ------------------------------------------------------------------ *)
(* Chaos campaigns: fault-schedule sweeps with the divergence checker  *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: a robustness experiment over the reproduction
   itself.  Derives N random fault/perturbation schedules per replica
   count, runs each under the client-consistency oracle and the digest
   divergence checker, and reports the verdict distribution plus how much
   comparison surface (digest sections + per-thread syscall folds) each
   campaign covered. *)
(* --jobs: worker domains for chaos campaigns (0/unset = auto, all cores
   but the coordinator's).  The merged report is byte-identical whatever
   the value; only wall-clock changes. *)
let jobs_override : int option ref = ref None

let effective_jobs () =
  match !jobs_override with
  | Some n when n >= 1 -> n
  | _ -> Chaos.default_jobs ()

let chaos quick =
  hr "Chaos campaigns: randomized fault schedules + divergence checking";
  let count = if quick then 6 else 25 in
  let horizon = Time.sec 3 in
  let jobs = effective_jobs () in
  let cols =
    [ col "workload" (-12) 0 ""; col "config" (-16) 0 ""; col "ok" 5 0 "ok";
      col "div" 6 0 "div"; col "viol" 7 0 "viol"; col "outage" 9 0 "outage";
      col "fo" 6 0 "fo"; col "points" 12 0 "pts"; col "wall" 7 1 "s" ]
  in
  print_endline (heading cols);
  List.iter
    (fun (replicas, workload) ->
      let name = Chaosrun.workload_to_string workload in
      let wall0 = Unix.gettimeofday () in
      let run = Chaosrun.run ~workload ~replicas in
      let report =
        Chaos.run_campaign ~root_seed:42 ~count ~replicas ~horizon ~workload:name
          ~run ~jobs ()
      in
      let wall = Unix.gettimeofday () -. wall0 in
      let outcomes = List.map (fun rr -> rr.Chaos.rr_outcome) report.Chaos.rep_results in
      let count_of p = float_of_int (List.length (List.filter p outcomes)) in
      let sum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
      let n =
        record
          (Printf.sprintf "%s.r%d" name replicas)
          [ ("ok", count_of (fun o -> o.Chaos.verdict = Chaos.V_ok));
            ( "divergences",
              count_of (fun o ->
                  match o.Chaos.verdict with Chaos.V_divergence _ -> true | _ -> false) );
            ( "violations",
              count_of (fun o ->
                  match o.Chaos.verdict with Chaos.V_client_violation _ -> true | _ -> false) );
            ("outages", count_of (fun o -> o.Chaos.verdict = Chaos.V_outage));
            ("failovers", sum (fun o -> o.Chaos.o_failovers));
            ("points", sum (fun o -> o.Chaos.o_sections)) ]
      in
      print_endline
        (line cols
           ((S name :: S (Printf.sprintf "%2dx replicas" replicas) :: cells n)
           @ [ F wall ]));
      match report.Chaos.rep_minimal with
      | None -> ()
      | Some (s, _, runs) ->
          Printf.printf "  minimal repro after %d shrink runs: %s\n" runs
            (Format.asprintf "%a" Chaos.pp_schedule s))
    [ (2, Chaosrun.Fileserver); (2, Chaosrun.Mongoose); (3, Chaosrun.Fileserver) ];
  Printf.printf
    "(div/viol must be zero: a divergence is a replication bug, a violation\n\
    \ a broken client guarantee; outages are excused total-failure runs)\n"

(* ------------------------------------------------------------------ *)
(* Chaosparallel: campaign throughput vs worker domains                *)
(* ------------------------------------------------------------------ *)

(* Harness-scaling experiment: the same fileserver campaign at jobs in
   {1, 2, 4, 8}, measuring wall-clock seeds/sec and asserting the merged
   report stays byte-identical to the sequential run at every width (the
   determinism contract of the domain-pool merge).  seeds_per_sec and
   speedup_x are wall-clock numbers — the only non-simulated metrics any
   bench publishes — so the regress gate compares them with a wide
   tolerance, while report_identical is exact.  BENCH_chaosparallel.json is
   therefore NOT byte-stable across runs; CI must not cmp two runs of it. *)
let chaosparallel quick =
  hr "Chaos parallel: campaign seeds/sec vs worker domains";
  let count = if quick then 32 else 1000 in
  let horizon = Time.sec 3 in
  let run = Chaosrun.run ~workload:Chaosrun.Fileserver ~replicas:2 in
  let campaign jobs =
    let wall0 = Unix.gettimeofday () in
    let report =
      Chaos.run_campaign ~root_seed:42 ~count ~replicas:2 ~horizon
        ~workload:"fileserver" ~run ~jobs ()
    in
    (Chaos.report_to_json report, Unix.gettimeofday () -. wall0)
  in
  Printf.printf "%d-seed fileserver campaign, horizon %s (cores: %d)\n" count
    (Time.to_string horizon)
    (Domain.recommended_domain_count ());
  let json1, wall1 = campaign 1 in
  let all_identical = ref true in
  table
    [ col "jobs" 6 0 ""; col "wall(s)" 12 2 ""; col "seeds/s" 10 1 "";
      col "speedup" 11 2 "x"; col "report" 10 0 "" ]
    (List.map
       (fun jobs ->
         let json, wall = if jobs = 1 then (json1, wall1) else campaign jobs in
         let identical = String.equal json json1 in
         if not identical then all_identical := false;
         let n =
           record (Printf.sprintf "j%d" jobs)
             [ ("seeds_per_sec", float_of_int count /. wall); ("speedup_x", wall1 /. wall);
               ("report_identical", if identical then 1.0 else 0.0) ]
         in
         (F (float_of_int jobs) :: F wall :: pick n [ "seeds_per_sec"; "speedup_x" ])
         @ [ S (if identical then "identical" else "DIVERGED") ])
       [ 1; 2; 4; 8 ]);
  Printf.printf
    "(acceptance: every report byte-identical to jobs=1; >=3x speedup at\n\
    \ jobs=4 on 4+ cores.  The regress gate holds report_identical exactly\n\
    \ and the wall-clock seeds_per_sec / speedup_x within a wide\n\
    \ machine-noise tolerance against bench/baseline/BENCH_chaosparallel.json)\n";
  if not !all_identical then begin
    Printf.printf "chaosparallel: MERGE DETERMINISM VIOLATED\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Batch: sync-tuple streaming with batching off vs on                 *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures what the batched sync-tuple streaming
   optimisation buys.  Each workload runs twice — once with
   [Msglayer.unbatched] (one wire frame per record, the pre-batching
   behaviour) and once with the default batching config — and reports the
   replication messages and bytes per application operation.  The
   per-op gauges land in BENCH_batch.json and are the surface the
   bench-regress CI gate diffs against bench/baseline/. *)

(* --replay-workers: size the backups' replay-executor pools of the
   scaling experiment's clusters, [scaling_config] (default 1 = the serial
   drain the committed baselines were recorded with). *)
let replay_workers_override : int option ref = ref None

let effective_replay_workers () =
  match !replay_workers_override with Some n -> n | None -> 1

(* Closed-loop memcached clients: each does [iters] set+get pairs with
   fixed-size values over [keys] keys of its own, so every response has a
   known length and the loop needs no protocol parser.  Returns the
   operations completed once every client has quit, and shuts the server
   down. *)
let memcached_clients s ~clients ~iters ~keys =
  let host = Scenario.client s in
  let ops = ref 0 and finished = ref 0 in
  let value = String.make 64 'v' in
  for cl = 0 to clients - 1 do
    ignore
      (Host.spawn host
         (Printf.sprintf "mc-client-%d" cl)
         (fun () ->
           let c =
             Tcp.connect (Host.stack host) ~host:Scenario.server_ip ~port:11211
           in
           let buf = Buffer.create 256 in
           let read_exactly n =
             while Buffer.length buf < n do
               match Tcp.recv c ~max:4096 with
               | [] -> raise Tcp.Connection_closed
               | cs -> Buffer.add_string buf (Payload.concat_to_string cs)
             done;
             Buffer.clear buf
           in
           (try
              for i = 1 to iters do
                let key = Printf.sprintf "k%d-%d" cl (i mod keys) in
                Tcp.send c
                  (Payload.of_string
                     (Printf.sprintf "set %s %d\r\n%s" key
                        (String.length value) value));
                read_exactly 8 (* STORED\r\n *);
                incr ops;
                Tcp.send c (Payload.of_string (Printf.sprintf "get %s\r\n" key));
                (* VALUE 64\r\n + 64 value bytes *)
                read_exactly (10 + String.length value);
                incr ops
              done;
              Tcp.send c (Payload.of_string "quit\r\n")
            with Tcp.Connection_closed -> ());
           incr finished))
  done;
  Scenario.drive s.Scenario.eng ~cap:(Time.sec 120) ~stop:(fun () ->
      !finished = clients);
  Scenario.stop s;
  !ops

(* A run's operations, its replication messages (also per operation, with
   the bytes) and its operations per second of [dur] seconds. *)
let per_op ~ops ~msgs ~bytes ~dur =
  let ops = float_of_int ops in
  let per v = if ops > 0. then float_of_int v /. ops else 0. in
  [ ("ops", ops); ("msgs", float_of_int msgs); ("msgs_per_op", per msgs);
    ("bytes_per_op", per bytes); ("ops_per_sec", if dur > 0. then ops /. dur else 0.) ]

let batch_memcached ~iters eng server =
  let link = Scenario.gbit_link eng in
  let s = Scenario.start eng ~link server ~app:(fun api -> Memcached.server api) in
  let ops = memcached_clients s ~clients:4 ~iters ~keys:8 in
  let msgs, bytes = Scenario.traffic s in
  per_op ~ops ~msgs ~bytes ~dur:(Time.to_sec_f (Engine.now eng))

let batch_mongoose ~window eng server =
  let w =
    mongoose_ab
      { Mongoose.default_params with Mongoose.workers = 32 }
      ~target:"/page.html" ~concurrency:50 ~warmup:(Time.ms 300)
      ~until:(Time.ms 300 + window) eng server
  in
  per_op ~ops:w.Scenario.ops ~msgs:w.Scenario.msgs ~bytes:w.Scenario.bytes
    ~dur:(Time.to_sec_f window)

(* One "op" is a 64 KiB chunk served. *)
let batch_fileserver ~file_mb eng server =
  let s, _, total =
    wget_file ~target:"/file" ~file_mb ~cap:(Time.sec 120) eng server
  in
  let msgs, bytes = Scenario.traffic s in
  per_op ~ops:(total / (64 * 1024)) ~msgs ~bytes
    ~dur:(Time.to_sec_f (Engine.now eng))

let batch quick =
  hr "Batch: replication traffic, sync-tuple batching off vs on";
  let on = Msglayer.default_batch in
  Printf.printf
    "batching: records<=%d, bytes<=%d, window=%s, ack_every=%d, ack_delay=%s\n"
    on.Msglayer.batch_records on.Msglayer.batch_bytes
    (Time.to_string on.Msglayer.batch_window)
    on.Msglayer.ack_every
    (Time.to_string on.Msglayer.ack_delay);
  let iters = if quick then 150 else 600 in
  let window = if quick then Time.ms 600 else Time.ms 1500 in
  let file_mb = if quick then 64 else 256 in
  let cols =
    [ col "workload" (-12) 0 ""; col "mode" (-5) 0 ""; col "ops" 8 0 ""; col "msgs" 10 0 "";
      col "msgs/op" 10 2 ""; col "bytes/op" 10 1 ""; col "ops/s" 10 0 "" ]
  in
  let batched batch = Scenario.Replicated { Cluster.default_config with Cluster.batch } in
  print_endline (heading cols);
  List.iter
    (fun (name, runner) ->
      let r = sweep name runner [ ("off", batched Msglayer.unbatched); ("on", batched on) ] in
      List.iter (fun (mode, n) -> print_endline (line cols (S name :: S mode :: cells n))) r;
      let per_op mode = get (List.assoc mode r) "msgs_per_op" in
      let reduction =
        record name [ ("msgs_per_op_reduction_pct", drop_pct (per_op "off") (per_op "on")) ]
      in
      Printf.printf "%-12s msgs/op reduction: %.1f%%\n" ""
        (get reduction "msgs_per_op_reduction_pct"))
    [ ("memcached", batch_memcached ~iters); ("mongoose", batch_mongoose ~window);
      ("fileserver", batch_fileserver ~file_mb) ];
  Printf.printf
    "(acceptance: memcached msgs/op must drop by >=20%% with default batching;\n\
    \ the CI bench-regress gate fails on >10%% drift from bench/baseline/)\n"

(* ------------------------------------------------------------------ *)
(* Scaling: det-section sharding off vs on, worker-count sweep         *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: measures what the per-channel deterministic-section
   core buys over the namespace-global mutex and total order.  Each
   workload runs at several worker counts with det sharding off and on;
   per run we record the application rate plus the det-core overhead
   instruments (det.lock_wait_ns, the det.contended counters).  The runs use the
   bounded (sustained) mailbox, so the replay-backpressure regime where
   the global lock couples every sync object is the one measured.  The
   ops/s gauges land in BENCH_scaling.json under "scaling." and are
   diffed by the bench-regress CI gate; lock wait and contention counts
   are informational. *)

(* A run's rate and the det-core overhead instruments its engine
   recorded. *)
let det_overhead eng ops_per_s =
  let reg = Engine.metrics eng in
  let h = Metrics.Registry.hist reg "det.lock_wait_ns" in
  let wait_ms =
    if Metrics.Hist.count h = 0 then 0.0
    else float_of_int (Metrics.Hist.count h) *. Metrics.Hist.mean h /. 1e6
  in
  let c k = Metrics.Counter.value (Metrics.Registry.counter reg k) in
  [ ("ops_per_sec", ops_per_s); ("lock_wait_ms", wait_ms);
    ( "contended",
      float_of_int (c "det.contended.misc" + c "det.contended.fs" + c "det.contended.obj") );
    ("sections", float_of_int (c "det.sections")) ]

(* One frame per record and a small ring: the secondary's per-record
   replay charge makes it the slow side, so the primary hits mailbox
   backpressure and appends block {e inside} det sections.  That is the
   regime where the namespace-global mutex couples every sync object —
   one thread stalled flushing stalls all of them — and where per-channel
   streams let independent objects keep moving.  With default batching,
   appends only stage and never block in-section, so neither variant would
   ever observe contention. *)
let scaling_config ?replay_workers ~det_shard () =
  let replay_workers =
    match replay_workers with
    | Some n -> n
    | None -> effective_replay_workers ()
  in
  Scenario.Replicated
    { (with_ring 256) with Cluster.det_shard; replay_workers; batch = Msglayer.unbatched }

let scaling_pbzip2 ~workers ~file_mb eng server =
  let params =
    {
      Pbzip2.default_params with
      Pbzip2.file_bytes = Scenario.mib file_mb;
      block_bytes = 25 * 1024;
      workers;
    }
  in
  let cap = Time.sec 300 in
  let r = Scenario.pbzip2 eng ~cap server params in
  let dur = Time.to_sec_f (Option.value ~default:cap r.Scenario.done_at) in
  det_overhead eng (float_of_int (Pbzip2.block_count params) /. dur)

(* Pure compute, no shared sync objects beyond spawn/join: the control —
   sharding must not change it. *)
let scaling_cpuhog ~threads ~slices eng server =
  let t_done = ref None in
  let app (api : Api.t) =
    let ths =
      List.init threads (fun i ->
          api.Api.thread.spawn
            (Printf.sprintf "hog-%d" i)
            (fun () ->
              for _ = 1 to slices do
                api.Api.thread.compute (Time.ms 1)
              done))
    in
    List.iter api.Api.thread.join ths;
    if Kernel.name api.Api.kernel = "primary" then
      t_done := Some (Engine.now eng)
  in
  let s = Scenario.start eng server ~app in
  Scenario.drive eng ~cap:(Time.sec 300) ~stop:(fun () -> !t_done <> None);
  Scenario.stop s;
  let dur = Time.to_sec_f (Option.value ~default:(Time.sec 300) !t_done) in
  det_overhead eng (float_of_int (threads * slices) /. dur)

(* The closed-loop memcached clients of the batch experiment, on a striped
   store: with [lock_stripes] > 1 each stripe's mutex is its own channel,
   so this is the workload where per-object channels have the most
   independent objects to spread over. *)
let scaling_memcached ~workers ~iters ~clients eng server =
  let link = Scenario.gbit_link eng in
  let params =
    {
      Memcached.default_params with
      Memcached.worker_threads = workers;
      lock_stripes = 8;
    }
  in
  let s = Scenario.start eng ~link server ~app:(Memcached.server ~params) in
  let ops = memcached_clients s ~clients ~iters ~keys:32 in
  let dur = Time.to_sec_f (Engine.now eng) in
  det_overhead eng (if dur > 0. then float_of_int ops /. dur else 0.)

let scaling quick =
  hr "Scaling: det-section sharding off vs on (per-object channels)";
  let worker_counts = if quick then [ 8; 16 ] else [ 8; 16; 32 ] in
  let pb_file_mb = if quick then 16 else 64 in
  let hog_slices = if quick then 100 else 400 in
  let mc_iters = if quick then 100 else 400 in
  let cols =
    [ col "workload" (-12) 0 ""; col "workers" 8 0 ""; col "shard" (-5) 0 "";
      col "ops/s" 12 0 ""; col "lock-wait(ms)" 14 2 ""; col "contended" 10 0 "";
      col "sections" 10 0 "" ]
  in
  print_endline (heading cols);
  List.iter
    (fun (name, runner) ->
      List.iter
        (fun w ->
          let key = Printf.sprintf "%s.w%d" name w in
          let r =
            sweep key (runner w)
              [ ("off", scaling_config ~det_shard:false ());
                ("on", scaling_config ~det_shard:true ()) ]
          in
          List.iter
            (fun (mode, n) ->
              print_endline (line cols (S name :: F (float_of_int w) :: S mode :: cells n)))
            r;
          let v mode = get (List.assoc mode r) in
          let gain =
            record key
              [ ("shard_gain_pct", gain_pct (v "off" "ops_per_sec") (v "on" "ops_per_sec")) ]
          in
          Printf.printf
            "%-12s %8s shard: %+.1f%% ops/s, lock wait %.2f -> %.2f ms\n" ""
            "" (get gain "shard_gain_pct") (v "off" "lock_wait_ms")
            (v "on" "lock_wait_ms"))
        worker_counts)
    [ ("pbzip2", fun w -> scaling_pbzip2 ~workers:w ~file_mb:pb_file_mb);
      ("cpuhog", fun w -> scaling_cpuhog ~threads:w ~slices:hog_slices);
      ( "memcached",
        (* Closed-loop clients: concurrency must scale with the server's
           workers or the offered load never reaches the backpressure
           knee. *)
        fun w -> scaling_memcached ~workers:w ~iters:mc_iters ~clients:(2 * w) ) ];
  Printf.printf
    "(acceptance: at 16+ workers the lock-heavy workloads' det lock wait must\n\
    \ be lower sharded and no workload may regress >10%%; the CI bench-regress\n\
    \ gate diffs the scaling.*.ops_per_sec gauges against bench/baseline/)\n"

(* ------------------------------------------------------------------ *)
(* Replay: serial drain vs parallel replay executors                   *)
(* ------------------------------------------------------------------ *)

(* The backup's serial replay drain is the system-wide ceiling PR 5 left
   behind (ROADMAP open item 1): pbzip2's sharded sections stream faster
   than one replay process can consume, so the 256-slot ring backpressures
   the primary and ops/s flatlines from 16 workers up.  This sweep holds
   the workload fixed and varies only the executor-pool size, so the rw1
   column IS the serial baseline the rw4 column must beat. *)
let replay quick =
  hr "Replay: serial drain vs parallel replay executors (pbzip2, shard on)";
  let worker_counts = if quick then [ 8; 16 ] else [ 8; 16; 32 ] in
  let pb_file_mb = if quick then 16 else 64 in
  let cols =
    [ col "workers" (-8) 0 ""; col "replay-workers" 14 0 ""; col "ops/s" 12 0 "";
      col "lock-wait(ms)" 14 2 ""; col "sections" 10 0 "" ]
  in
  print_endline (heading cols);
  List.iter
    (fun w ->
      let key = Printf.sprintf "pbzip2.w%d" w in
      let pool rw =
        (Printf.sprintf "rw%d" rw, scaling_config ~replay_workers:rw ~det_shard:true ())
      in
      let r = sweep key (scaling_pbzip2 ~workers:w ~file_mb:pb_file_mb) [ pool 1; pool 4 ] in
      List.iter2
        (fun rw (_, n) ->
          print_endline
            (line cols
               (S (string_of_int w) :: F rw
               :: pick n [ "ops_per_sec"; "lock_wait_ms"; "sections" ])))
        [ 1.; 4. ] r;
      let ops rw = get (List.assoc rw r) "ops_per_sec" in
      let gain = record key [ ("parallel_gain_pct", gain_pct (ops "rw1") (ops "rw4")) ] in
      Printf.printf "%-8s %14s parallel: %+.1f%% ops/s vs serial drain\n" "" ""
        (get gain "parallel_gain_pct"))
    worker_counts;
  Printf.printf
    "(acceptance: pbzip2 ops/s with 4 replay executors strictly above the\n\
    \ serial drain at 16 and 32 workers; the CI bench-regress gate diffs\n\
    \ the replay.*.ops_per_sec gauges against bench/baseline/)\n"

(* ------------------------------------------------------------------ *)
(* Latency: percentiles through replica death (the telemetry tier)     *)
(* ------------------------------------------------------------------ *)

(* The headline production metric: per-request latency percentiles split
   into pre-fault / failover-window / post-recovery phases, with the window
   bounds taken from the pinned failover.* trace spans.  The phase
   percentiles land in latency.* gauges whose *_ms suffixes the regression
   gate treats as lower-is-better, so a tail-latency regression through
   failover fails CI like a throughput regression would. *)
let latency quick =
  hr "Latency: p50/p99/p999 through replica death (mongoose, closed loop)";
  let concurrency = if quick then 8 else 16 in
  let run_for = Time.ms (if quick then 1800 else 2400) in
  let r = Slo.run (new_engine ()) ~concurrency ~fail_at:(Time.ms 600) ~run_for () in
  Slo.print_table r;
  let window =
    match r.Slo.window with
    | Some (lo, hi) ->
        [ ("failover.window_ms", Time.to_ms_f (hi - lo));
          ("failover.bounds_verified", if r.Slo.span_bounds_ok then 1.0 else 0.0) ]
    | None -> []
  in
  let phase name h =
    (name ^ ".count", float_of_int (Metrics.Hist.count h))
    :: List.filter_map
         (fun (q, p) ->
           if Metrics.Hist.count h > 0 then
             Some (Printf.sprintf "%s.%s_ms" name q, Metrics.Hist.quantile h p)
           else None)
         [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]
  in
  ignore
    (record ""
       (window @ phase "pre" r.Slo.pre @ phase "fo" r.Slo.fo @ phase "post" r.Slo.post
       @ [ ("completed.ops_per_sec", float_of_int r.Slo.completed /. Time.to_sec_f run_for);
           ("errors", float_of_int r.Slo.errors) ]));
  Printf.printf
    "(acceptance: the failover window equals the pinned failover.* span\n\
    \ bounds; the CI bench-regress gate diffs latency.*.p{50,90,99,999}_ms\n\
    \ [lower is better] and latency.completed.ops_per_sec against\n\
    \ bench/baseline/BENCH_latency.json)\n"

(* ------------------------------------------------------------------ *)
(* Re-protection: online backup regeneration under load                *)
(* ------------------------------------------------------------------ *)

(* The lifecycle experiment: kill the primary under closed-loop load with
   re-protection on, and measure (a) time from the kill to the epoch switch
   that restores Protected, and (b) the throughput dip while the snapshot
   transfer runs — the promoted primary keeps serving while it journals the
   record stream and the fresh backup replays.  A Memlayout with a large
   User class stretches the copy window so the transfer phase is long
   enough to hold a measurable request count. *)
let reprotect quick =
  hr "Re-protection: online backup regeneration under load (mongoose)";
  let eng = new_engine () in
  let link = Scenario.gbit_link eng in
  let user_mb = if quick then 384 else 768 in
  let concurrency = if quick then 8 else 16 in
  let layout = Memlayout.create ~ram_bytes:(4 * 1024 * Scenario.mib 1) in
  Memlayout.alloc_user layout (Scenario.mib user_mb);
  let config =
    {
      Slo.default_config with
      Cluster.lagmon = Some { Lagmon.default_config with Lagmon.quiet = true };
      reprotect = true;
      regen_delay = Time.ms 50;
      regen_layout = Some layout;
    }
  in
  let params =
    {
      Mongoose.default_params with
      Mongoose.page_bytes = 10 * 1024;
      cpu_per_request = Time.us 200;
    }
  in
  let s =
    Scenario.start eng ~link (Scenario.Replicated config)
      ~app:(Mongoose.run ~params)
  in
  let cluster = Option.get s.Scenario.cluster in
  let ab =
    Loadgen.ab_start (Scenario.client s) ~server:Scenario.server_ip ~port:80
      ~target:"/" ~concurrency ()
  in
  let st = Loadgen.ab_stats ab in
  let completed () = Metrics.Counter.value st.Loadgen.completed in
  (* Phase boundaries come from the lifecycle API: the transfer window is
     [Regenerating .. Protected], sampled exactly at the transitions. *)
  let t_regen = ref None and c_regen = ref 0 in
  let t_prot = ref None and c_prot = ref 0 in
  Cluster.on_transition cluster (fun tr ->
      match tr.Cluster.tr_to with
      | Cluster.Regenerating ->
          if !t_regen = None then begin
            t_regen := Some tr.Cluster.tr_at;
            c_regen := completed ()
          end
      | Cluster.Protected when tr.Cluster.tr_from = Cluster.Regenerating ->
          if !t_prot = None then begin
            t_prot := Some tr.Cluster.tr_at;
            c_prot := completed ()
          end
      | _ -> ());
  let warmup = Time.ms 300 and kill_at = Time.ms 800 in
  Cluster.kill cluster ~role:Replica_set.Primary ~at:kill_at;
  Engine.run ~until:warmup eng;
  let c0 = completed () in
  Engine.run ~until:kill_at eng;
  let c1 = completed () in
  Scenario.drive eng ~cap:(Time.sec 6) ~stop:(fun () -> !t_prot <> None);
  let post_from = Engine.now eng in
  let c2 = completed () in
  Engine.run ~until:(post_from + Time.ms 500) eng;
  let c3 = completed () in
  Loadgen.ab_stop ab;
  Scenario.stop s;
  let rate c c' w = float_of_int (c' - c) /. Time.to_sec_f w in
  let pre = rate c0 c1 (kill_at - warmup) in
  let post = rate c2 c3 (Time.ms 500) in
  (match (!t_regen, !t_prot) with
  | Some tr, Some tp when tp > tr ->
      let transfer = tp - tr in
      let regen = rate !c_regen !c_prot transfer in
      let ttp = tp - kill_at in
      let n =
        record ""
          [ ("time_to_protected.window_ms", Time.to_ms_f ttp);
            ("transfer.window_ms", Time.to_ms_f transfer); ("pre.ops_per_sec", pre);
            ("regen.ops_per_sec", regen); ("post.ops_per_sec", post);
            ("dip_pct", drop_pct pre regen); ("epoch", float_of_int (Cluster.epoch cluster)) ]
      in
      table
        [ col "phase" (-22) 0 ""; col "window(ms)" 12 1 ""; col "ops/s" 14 0 "" ]
        [
          [ S "pre-fault (protected)"; F (Time.to_ms_f (kill_at - warmup)); F pre ];
          [ S "regenerating (transfer)"; F (Time.to_ms_f transfer); F regen ];
          [ S "post-switch (protected)"; F (Time.to_ms_f (Time.ms 500)); F post ];
        ];
      Printf.printf
        "time to re-protected: %s after the kill (epoch %d, lifecycle %s)\n"
        (Time.to_string ttp) (Cluster.epoch cluster)
        (Replica_set.lifecycle_label (Cluster.state cluster));
      let dip = get n "dip_pct" in
      Printf.printf
        "throughput dip during transfer: %.1f%% (%d MiB user copy%s)\n" dip
        user_mb
        (if dip < 0. then
           "; negative: the survivor serves unprotected — no output-commit \
            wait — until the switch"
         else "")
  | _ -> Printf.printf "re-protection did not complete within the cap\n");
  Printf.printf
    "(acceptance: the dip during the snapshot transfer stays under 20%%; the\n\
    \ CI bench-regress gate diffs reprotect.*.ops_per_sec and the\n\
    \ time-to-protected / transfer windows against\n\
    \ bench/baseline/BENCH_reprotect.json)\n"

(* ------------------------------------------------------------------ *)
(* C10K: open-loop arrivals through replica death                      *)
(* ------------------------------------------------------------------ *)

(* Not a paper figure: the C10K serving tier.  A replicated Mongoose with a
   4-shard listener group, bounded per-shard backlogs and admission control
   takes an open-loop arrival sweep through a primary kill; per-request
   latency is phase-split on the pinned failover.* spans exactly as in the
   latency experiment.  Each tier launches 10% more arrivals than its
   nominal concurrency target so the connections completed before the
   arrival window closes don't drag the high-water mark below the target.
   Every gauge derives from simulated time and deterministic counters, so
   two same-seed runs produce byte-identical BENCH_c10k.json. *)
let c10k_tier ~target eng server =
  let conns = target + (target / 10) in
  let rate = 2.0 *. float_of_int target in
  let link = Scenario.gbit_link eng in
  let params =
    {
      Mongoose.default_params with
      Mongoose.workers = 32;
      page_bytes = 10 * 1024;
      (* Accepts cheap, service expensive: the worker pool (not the accept
         path) is the bottleneck, so overload piles into the admission
         window and the controller actually sheds.  Service capacity is
         roughly cores/cpu_per_request ~ 4k req/s, far below the offered
         10-20k/s, which also keeps >= the nominal connection count open
         concurrently through the kill. *)
      cpu_per_request = Time.ms 1;
      accept_cost = Time.us 250;
      queue_capacity = 512;
      listen_shards = 4;
      accept_backlog = Some 512;
      overflow = `Drop;
      (* Below the natural in-flight concurrency the contended CPU
         sustains (the FIFO quantum scheduler keeps roughly 24-48 workers
         inside the admit..release window under flood), so the controller
         demonstrably sheds at the overloaded tiers. *)
      admission = Some 16;
    }
  in
  let s =
    Scenario.start eng ~link ~fail_at:(Time.ms 600) server
      ~app:(Mongoose.run ~params)
  in
  let client = Scenario.client s in
  (* Let the server boot and listen before arrivals begin. *)
  Engine.run ~until:(Time.ms 200) eng;
  let completions = ref [] in
  let ol =
    Loadgen.ol_start client ~server:Scenario.server_ip ~port:80 ~target:"/"
      ~rate ~conns ~poisson:true ~seed:7
      ~on_complete:(fun ~at ~latency ->
        completions := (at, latency) :: !completions)
      ()
  in
  Scenario.drive eng ~cap:(Time.sec 90) ~stop:(fun () ->
      Ivar.is_filled (Loadgen.ol_done ol));
  Scenario.stop s;
  Engine.run ~until:(Engine.now eng + Time.ms 100) eng;
  let st = Loadgen.ol_stats ol in
  let _, pre, fo, post = Slo.failover_split eng !completions in
  let c name =
    Metrics.Counter.value
      (Metrics.Registry.counter (Engine.metrics eng)
         (Printf.sprintf "tcp.10.0.0.1.%s" name))
  in
  let shed = Metrics.Counter.value st.Loadgen.ol_shed in
  let p999 h =
    if Metrics.Hist.count h > 0 then Metrics.Hist.quantile h 0.999 else 0.0
  in
  let count k = float_of_int k in
  [ ("conns", count conns); ("peak_conns", count (Loadgen.ol_peak ol));
    ("ok", count (Metrics.Counter.value st.Loadgen.ol_ok)); ("shed", count shed);
    ("errors", count (Metrics.Counter.value st.Loadgen.ol_errors));
    ("pre.p999_ms", p999 pre); ("fo.p999_ms", p999 fo); ("post.p999_ms", p999 post);
    ("accept_overflow", count (c "accept_overflow_drop" + c "accept_overflow_rst"));
    ("shed_rate", float_of_int shed /. float_of_int conns) ]

let c10k quick =
  hr "C10K: open-loop arrivals through replica death (sharded listeners)";
  let tiers = if quick then [ 1_000; 2_500 ] else [ 1_000; 5_000; 10_000 ] in
  (* Fast-failover timings from the SLO config, but on the full paper
     testbed topology: C10K-scale concurrency needs the 64-core machine —
     on [Topology.small] the workers' computes starve packet processing
     through the FIFO quantum scheduler and the admission window never
     fills. *)
  let server =
    Scenario.Replicated
      { Slo.default_config with Cluster.topology = Topology.opteron_testbed }
  in
  let rows =
    List.map
      (fun target ->
        let key = Printf.sprintf "c%d" target in
        (target, List.assoc "" (sweep key (c10k_tier ~target) [ ("", server) ])))
      tiers
  in
  table
    [ col "target" (-8) 0 ""; col "conns" 8 0 ""; col "peak" 8 0 ""; col "ok" 8 0 "";
      col "shed" 8 0 ""; col "errors" 8 0 ""; col "pre-p999" 10 3 "";
      col "fo-p999" 10 3 ""; col "post-p999" 10 3 ""; col "ovf" 8 0 "" ]
    (List.map
       (fun (target, n) ->
         S (string_of_int target)
         :: pick n
              [ "conns"; "peak_conns"; "ok"; "shed"; "errors"; "pre.p999_ms";
                "fo.p999_ms"; "post.p999_ms"; "accept_overflow" ])
       rows);
  (* Canonical headline keys come from the largest tier. *)
  (match List.rev rows with
  | (target, n) :: _ ->
      ignore (record "" (("target_conns", float_of_int target) :: n))
  | [] -> ());
  Printf.printf
    "(acceptance: the top tier holds >= its nominal connection count \n\
    \ concurrently open through the kill with a finite p999 in every phase;\n\
    \ the CI bench-regress gate diffs c10k.*.p999_ms, c10k.*.shed_rate and\n\
    \ c10k.*.accept_overflow [all lower-better] against\n\
    \ bench/baseline/BENCH_c10k.json)\n"

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1, "Figure 1: memory classification under memcached");
    ("sec23", sec23, "Section 2.3: random memory-error outcomes");
    ("fig4", fig4_5, "Figures 4+5: PBZIP2 throughput and traffic vs block size");
    ("fig5", fig4_5, "alias of fig4 (shared runs)");
    ("fig6", fig6_7, "Figures 6+7: Mongoose throughput and traffic vs CPU load");
    ("fig7", fig6_7, "alias of fig6 (shared runs)");
    ("sec43", sec43, "Section 4.3: mixing replicated and non-replicated apps");
    ("fig8", fig8, "Figure 8: 1 Gb/s transfer with failover");
    ("ablation", ablations, "Ablations: proximity, output commit, wake latency");
    ("chaos", chaos, "Chaos campaigns: random fault schedules + divergence checks");
    ("chaosparallel", chaosparallel, "Campaign seeds/sec vs worker domains (deterministic merge)");
    ("batch", batch, "Batched sync-tuple streaming: traffic with batching off vs on");
    ("scaling", scaling, "Det-section sharding off vs on: overhead vs worker count");
    ("replay", replay, "Backup replay: serial drain vs parallel replay executors");
    ("latency", latency, "Latency percentiles through replica death (phase-split SLO)");
    ("reprotect", reprotect, "Re-protection: regeneration time and transfer-phase throughput dip");
    ("c10k", c10k, "C10K: open-loop arrivals through replica death (sharded listeners + admission)");
  ]

(* [all] runs every experiment once, in table order: fig5 and fig7 only
   name fig4's and fig6's runs. *)
let aliases = [ "fig5"; "fig7" ]

let run_all quick =
  List.iter
    (fun (name, f, _) ->
      if not (List.mem name aliases) then run_experiment name f quick)
    experiments

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  (* Strip flags (and --trace-out's value) before dispatching on the
     experiment name. *)
  let int_flag flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
        Printf.eprintf "bench: %s requires a non-negative integer, got %S\n"
          flag v;
        exit 1
  in
  let rec strip = function
    | [] -> []
    | "--quick" :: rest -> strip rest
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        strip rest
    | [ "--trace-out" ] ->
        Printf.eprintf "bench: --trace-out requires a PATH argument\n";
        exit 1
    | (("--replay-workers" | "--jobs") as flag) :: v :: rest ->
        let n = int_flag flag v in
        if n < 1 then begin
          Printf.eprintf "bench: %s requires N >= 1\n" flag;
          exit 1
        end;
        (if flag = "--jobs" then jobs_override else replay_workers_override) := Some n;
        strip rest
    | [ (("--replay-workers" | "--jobs") as flag) ] ->
        Printf.eprintf "bench: %s requires an N argument\n" flag;
        exit 1
    | a :: rest -> a :: strip rest
  in
  let args = strip (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [] | [ "all" ] ->
      Printf.printf "FT-Linux reproduction: full evaluation%s\n"
        (if quick then " (quick mode)" else "");
      run_all quick
  | [ name ] -> (
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, f, _) ->
          (* Only scaling reads --replay-workers and only chaos --jobs. *)
          List.iter
            (fun (flag, given, reader) ->
              if given && name <> reader then begin
                Printf.eprintf "bench: %s applies only to %s and all\n" flag
                  reader;
                exit 1
              end)
            [
              ("--replay-workers", !replay_workers_override <> None, "scaling");
              ("--jobs", !jobs_override <> None, "chaos");
            ];
          run_experiment name f quick
      | None ->
          Printf.eprintf "unknown experiment %S; available:\n" name;
          List.iter
            (fun (n, _, d) -> Printf.eprintf "  %-8s %s\n" n d)
            experiments;
          exit 1)
  | _ ->
      Printf.eprintf
        "usage: bench [EXPERIMENT] [--quick] [--trace-out PATH] \
         [--replay-workers N] [--jobs N]\n";
      exit 1
