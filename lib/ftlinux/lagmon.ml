open Ftsim_sim

(* Replication-health monitor.

   A recurring raw Engine.timer samples the primary's append LSN against the
   backup's ack watermark (overall and per Det channel), the backup's replay
   queue depth, and the append-to-ack RTT probe, publishing lag gauges /
   histograms and — unless [quiet] — channel-tagged Evlog counters.

   Determinism contract: a sample is pure reads + Metrics updates (+ Evlog
   counters when not quiet).  It never suspends, never touches Det or any
   namespace state, and never sends a message, so enabling the monitor
   cannot perturb the deterministic replay order; with [quiet] set it adds
   no events at all, leaving same-seed traces byte-identical to
   monitor-off runs. *)

type verdict = Ok | Retired | Lagging | Stalled

let verdict_label = function
  | Ok -> "ok"
  | Retired -> "retired"
  | Lagging -> "lagging"
  | Stalled -> "stalled"

let rank = function Ok -> 0 | Retired -> 1 | Lagging -> 2 | Stalled -> 3
let worse a b = if rank a >= rank b then a else b

type config = {
  period : Time.t;  (* sampling interval *)
  lag_records : int;  (* verdict Lagging at/above this append-ack gap *)
  stall_after : Time.t;
      (* verdict Stalled when the watermark makes no progress this long
         while a gap is open.  Must sit well above the heartbeat timeout:
         a dead peer is detected and [alive] goes false before a healthy
         run could ever be called stalled. *)
  quiet : bool;  (* suppress Evlog emission (gauges/hists still update) *)
}

let default_config =
  { period = Time.ms 10; lag_records = 64; stall_after = Time.ms 150; quiet = false }

type source = {
  appended : unit -> int;  (* primary: highest assigned LSN *)
  acked : unit -> int;  (* primary: highest acked LSN *)
  replayed : unit -> int;  (* backup: contiguous replay watermark *)
  queue_depth : unit -> int;  (* backup: frames + records not yet replayed *)
  rtt : unit -> Time.t option;  (* primary: last append-to-ack round trip *)
  channels : unit -> (int * int * int) list;
      (* (channel, sections emitted, sections acked) per Det channel *)
  alive : unit -> bool;
      (* false once replication legitimately ended (peer declared dead,
         failover started): the monitor freezes instead of reporting a
         stall that is really a death already being handled *)
}

type t = {
  eng : Engine.t;
  cfg : config;
  name : string;
  mutable src : source;
  regenerating : unit -> bool;
      (* while true, the stall timer is held back: a regeneration
         catch-up gap is expected to be large but is making progress by
         construction — it may be Lagging, never Stalled *)
  mutable timer : Engine.handle option;
  mutable stopped : bool;
  mutable retired : bool;
  mutable cur : verdict;
  mutable worst : verdict;
  mutable transitions : (Time.t * verdict) list;  (* newest first *)
  mutable samples : int;
  mutable last_ack : int;  (* highest watermark seen *)
  mutable last_progress : Time.t;  (* last time the gap was closed or shrank *)
  g_lsn : Metrics.Gauge.t;
  g_ack : Metrics.Gauge.t;
  g_queue : Metrics.Gauge.t;
  g_rtt : Metrics.Gauge.t;
  h_lag : Metrics.Hist.t;
}

let sample t =
  let now = Engine.now t.eng in
  t.samples <- t.samples + 1;
  let app = t.src.appended () and ack = t.src.acked () in
  let lag = max 0 (app - ack) in
  let depth = t.src.queue_depth () in
  Metrics.Gauge.set t.g_lsn (float_of_int lag);
  Metrics.Gauge.set t.g_ack (float_of_int ack);
  Metrics.Gauge.set t.g_queue (float_of_int depth);
  (match t.src.rtt () with
  | Some rtt -> Metrics.Gauge.set t.g_rtt (float_of_int rtt)
  | None -> ());
  Metrics.Hist.record t.h_lag (float_of_int lag);
  let reg = Engine.metrics t.eng in
  let chans = t.src.channels () in
  List.iter
    (fun (c, emitted, acked) ->
      Metrics.Gauge.set
        (Metrics.Registry.gauge reg (Printf.sprintf "%s.chan%d.emitted" t.name c))
        (float_of_int emitted);
      Metrics.Gauge.set
        (Metrics.Registry.gauge reg (Printf.sprintf "%s.chan%d.acked" t.name c))
        (float_of_int acked))
    chans;
  if not t.cfg.quiet then begin
    let ev = Engine.evlog t.eng in
    Evlog.counter ev ~comp:"ft.lagmon" "lsn_lag" (float_of_int lag);
    Evlog.counter ev ~comp:"ft.lagmon" "queue_depth" (float_of_int depth);
    List.iter
      (fun (c, emitted, acked) ->
        Evlog.counter ev
          ~args:[ ("channel", Evlog.Int c) ]
          ~comp:"ft.lagmon" "chan_lag"
          (float_of_int (max 0 (emitted - acked))))
      chans
  end;
  (* Verdict.  Progress = the watermark advanced or the gap is closed; a
     gap that sits still for [stall_after] is a stall, a large-but-moving
     gap is lag. *)
  if ack > t.last_ack || lag = 0 || t.regenerating () then
    t.last_progress <- now;
  if ack > t.last_ack then t.last_ack <- ack;
  let v =
    if lag = 0 then Ok
    else if now - t.last_progress >= t.cfg.stall_after then Stalled
    else if lag >= t.cfg.lag_records then Lagging
    else Ok
  in
  if v <> t.cur then begin
    t.cur <- v;
    t.worst <- worse t.worst v;
    t.transitions <- (now, v) :: t.transitions;
    if not t.cfg.quiet then
      Evlog.emit (Engine.evlog t.eng) ~comp:"ft.lagmon" "verdict"
        ~args:
          [
            ("name", Evlog.Str t.name);
            ("verdict", Evlog.Str (verdict_label v));
            ("lag", Evlog.Int lag);
          ]
  end

let rec arm t =
  t.timer <-
    Some
      (Engine.timer t.eng
         ~at:(Engine.now t.eng + t.cfg.period)
         (fun () ->
           if not t.stopped then
             if t.src.alive () then begin
               sample t;
               arm t
             end
             (* Replication ended (peer dead / failover underway): the
                stream this monitor watches never resumes, so stop
                re-arming — a quiesced engine must be able to drain. *)))

let start ?(config = default_config) ?(regenerating = fun () -> false) eng
    ~name src =
  if config.period <= 0 then invalid_arg "Lagmon.start: period must be positive";
  let reg = Engine.metrics eng in
  let t =
    {
      eng;
      cfg = config;
      name;
      src;
      regenerating;
      timer = None;
      stopped = false;
      retired = false;
      cur = Ok;
      worst = Ok;
      transitions = [];
      samples = 0;
      last_ack = min_int;
      last_progress = Engine.now eng;
      g_lsn = Metrics.Registry.gauge reg (name ^ ".lsn");
      g_ack = Metrics.Registry.gauge reg (name ^ ".ack");
      g_queue = Metrics.Registry.gauge reg (name ^ ".queue_depth");
      g_rtt = Metrics.Registry.gauge reg (name ^ ".rtt");
      h_lag = Metrics.Registry.hist reg (name ^ ".lsn_hist");
    }
  in
  arm t;
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    match t.timer with
    | Some h ->
        t.timer <- None;
        Engine.cancel h
    | None -> ()
  end

(* A planned epoch switch retired this monitor's replica pair: record the
   terminal verdict instead of leaving the monitor frozen at whatever it
   last saw.  [worst] is untouched — it summarizes operational health
   while the pair was serving, and retirement is not a health event. *)
let retire t =
  if not t.retired then begin
    t.retired <- true;
    t.cur <- Retired;
    t.transitions <- (Engine.now t.eng, Retired) :: t.transitions;
    if not t.cfg.quiet then
      Evlog.emit (Engine.evlog t.eng) ~comp:"ft.lagmon" "verdict"
        ~args:
          [ ("name", Evlog.Str t.name); ("verdict", Evlog.Str "retired") ];
    stop t
  end

let set_source t src = t.src <- src
let verdict t = t.cur
let worst t = t.worst
let samples t = t.samples
let transitions t = List.rev t.transitions
