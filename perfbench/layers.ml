(* Per-layer numbers read from outside the simulator: the engine's metrics
   registry, its Evlog, and the GC's own counters.  Everything here is a
   pure function of a finished run. *)

open Ftsim_sim

(* {1 Order statistics} *)

(* Nearest-rank quantile of an unsorted sample; 0 for an empty one. *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let median xs = quantile xs 0.5

(* {1 Registry} *)

let counter reg name =
  match Metrics.Registry.find reg name with
  | Some (Metrics.Registry.V_counter n) -> n
  | _ -> 0

(* Sum of every counter whose name starts with [prefix] and ends with
   [suffix] (e.g. all TCP stacks' ["tcp.<ip>.segs_out"]). *)
let sum_counters reg ~prefix ~suffix =
  let has_prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let has_suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  List.fold_left
    (fun acc name ->
      if has_prefix name && has_suffix name then acc + counter reg name
      else acc)
    0 (Metrics.Registry.names reg)

(* Total of a histogram's samples (count x mean). *)
let hist_total reg name =
  match Metrics.Registry.find reg name with
  | Some (Metrics.Registry.V_hist h) -> float_of_int (Metrics.Hist.count h) *. Metrics.Hist.mean h
  | _ -> 0.

(* {1 Evlog} *)

let ms t = Time.to_ms_f t
let us t = Time.to_us_f t

(* Durations of every closed span named [name] in [comp]. *)
let span_durations evs ~comp ~name =
  List.map snd (Evlog.Query.durations ~comp ~name evs)

let count evs ~comp ~name = List.length (Evlog.Query.filter ~comp ~name evs)

(* Sync-tuple lag: [tuple.emit] on the primary to [tuple.consume] on the
   backup, matched by (ft_pid, thread_seq). *)
let tuple_lags evs =
  let emitted = Hashtbl.create 4096 in
  let key e = (Evlog.Query.int_arg e "ft_pid", Evlog.Query.int_arg e "thread_seq") in
  List.filter_map
    (fun (e : Evlog.event) ->
      if e.comp <> "ft.det" then None
      else if e.name = "tuple.emit" then begin
        Hashtbl.replace emitted (key e) e.at;
        None
      end
      else if e.name = "tuple.consume" then
        match Hashtbl.find_opt emitted (key e) with
        | Some at -> Some (e.at - at)
        | None -> None
      else None)
    evs

(* Output-commit wait: [record.append] of the tail record to the
   [output.commit] that released it, matched by lsn. *)
let commit_waits evs =
  let appended = Hashtbl.create 4096 in
  List.filter_map
    (fun (e : Evlog.event) ->
      match (e.comp, e.name, Evlog.Query.int_arg e "lsn") with
      | "ft.msglayer", "record.append", Some lsn ->
          Hashtbl.replace appended lsn e.at;
          None
      | "ft.namespace", "output.commit", Some lsn -> (
          match Hashtbl.find_opt appended lsn with
          | Some at -> Some (e.at - at)
          | None -> None)
      | _ -> None)
    evs

let failover_phases =
  [
    ("failover.detect", "ftlinux.failover_detect_ms");
    ("failover.drain_replay", "ftlinux.failover_drain_ms");
    ("failover.driver_reload", "ftlinux.failover_reload_ms");
    ("failover.golive", "ftlinux.failover_golive_ms");
  ]

(* The four pinned failover phases of one takeover, in order, as
   (name, begin, end); [None] unless all four closed. *)
let failover_spans evs =
  let find name = Evlog.Query.span_of ~comp:"ft.cluster" ~name evs in
  let spans = List.map (fun (n, _) -> (n, find n)) failover_phases in
  if List.for_all (fun (_, s) -> s <> None) spans then
    Some (List.map (fun (n, s) -> let b, e = Option.get s in (n, b, e)) spans)
  else None

(* The phases are contiguous and sum exactly to halt -> live. *)
let failover_contiguous spans ~halted ~live =
  let rec chain = function
    | (_, _, e) :: ((_, b, _) :: _ as rest) -> e = b && chain rest
    | _ -> true
  in
  match spans with
  | (_, b0, _) :: _ ->
      let _, _, e_last = List.nth spans (List.length spans - 1) in
      let sum = List.fold_left (fun acc (_, b, e) -> acc + (e - b)) 0 spans in
      chain spans && b0 = halted && e_last = live && sum = live - halted
  | [] -> false

(* Evlog-derived per-layer numbers of one run (or the sum over a chaos
   campaign's runs: each field adds).  Latency samples are kept raw so
   campaigns merge them before taking quantiles. *)
type evstats = {
  emitted : int;
  dropped : int;
  procs_spawned : int;
  mailbox_msgs : int;
  mailbox_bytes : int;
  propagate : Time.t list;
  rto : int;
  accept_overflow : int;
  records : int;
  frames : int;
  replay : Time.t list;
  tuple_lag : Time.t list;
  commit_wait : Time.t list;
  failover : (string * Time.t) list;  (** phase -> total duration *)
}

let evstats_empty =
  {
    emitted = 0; dropped = 0; procs_spawned = 0; mailbox_msgs = 0; mailbox_bytes = 0;
    propagate = []; rto = 0; accept_overflow = 0; records = 0; frames = 0; replay = [];
    tuple_lag = []; commit_wait = []; failover = [];
  }

let evstats_of ev =
  let evs = Evlog.events ev in
  let sends =
    List.filter
      (fun (e : Evlog.event) -> e.kind = Evlog.Span_begin)
      (Evlog.Query.filter ~comp:"hw.mailbox" ~name:"propagate" evs)
  in
  let bytes e = Option.value ~default:0 (Evlog.Query.int_arg e "bytes") in
  {
    emitted = Evlog.emitted ev;
    dropped = Evlog.dropped ev;
    procs_spawned = count evs ~comp:"sim.engine" ~name:"proc.spawn";
    mailbox_msgs = List.length sends;
    mailbox_bytes = List.fold_left (fun acc e -> acc + bytes e) 0 sends;
    propagate = span_durations evs ~comp:"hw.mailbox" ~name:"propagate";
    rto = count evs ~comp:"net.tcp" ~name:"rto";
    accept_overflow = count evs ~comp:"net.tcp" ~name:"accept.overflow";
    records = count evs ~comp:"ft.msglayer" ~name:"record.append";
    frames = count evs ~comp:"ft.msglayer" ~name:"frame.flush";
    replay = span_durations evs ~comp:"ft.msglayer" ~name:"replay";
    tuple_lag = tuple_lags evs;
    commit_wait = commit_waits evs;
    failover =
      (match failover_spans evs with
      | Some spans -> List.map (fun (n, b, e) -> (n, e - b)) spans
      | None -> []);
  }

let evstats_add a b =
  let add_assoc x y =
    List.map
      (fun (n, _) ->
        let get l = Option.value ~default:0 (List.assoc_opt n l) in
        (n, get x + get y))
      failover_phases
  in
  {
    emitted = a.emitted + b.emitted;
    dropped = a.dropped + b.dropped;
    procs_spawned = a.procs_spawned + b.procs_spawned;
    mailbox_msgs = a.mailbox_msgs + b.mailbox_msgs;
    mailbox_bytes = a.mailbox_bytes + b.mailbox_bytes;
    propagate = List.rev_append a.propagate b.propagate;
    rto = a.rto + b.rto;
    accept_overflow = a.accept_overflow + b.accept_overflow;
    records = a.records + b.records;
    frames = a.frames + b.frames;
    replay = List.rev_append a.replay b.replay;
    tuple_lag = List.rev_append a.tuple_lag b.tuple_lag;
    commit_wait = List.rev_append a.commit_wait b.commit_wait;
    failover = add_assoc a.failover b.failover;
  }

let sum_ms xs = List.fold_left (fun acc t -> acc +. ms t) 0. xs

(* The Evlog half of the per-layer table.  [ops] is the workload's unit of
   work (blocks, requests, verified responses) for the per-op ratios. *)
let of_evstats s ~ops =
  let per_op n = if ops = 0 then 0. else float_of_int n /. float_of_int ops in
  [
    ("sim.evlog_emitted", float_of_int s.emitted);
    ("sim.evlog_dropped", float_of_int s.dropped);
    ("sim.procs_spawned", float_of_int s.procs_spawned);
    ("hw.mailbox_msgs_per_op", per_op s.mailbox_msgs);
    ("hw.mailbox_bytes_per_op", per_op s.mailbox_bytes);
    ("hw.propagate_p50_us", median (List.map us s.propagate));
    ("netstack.rto", float_of_int s.rto);
    ("netstack.accept_overflow", float_of_int s.accept_overflow);
    ("ftlinux.records", float_of_int s.records);
    ( "ftlinux.records_per_frame",
      if s.frames = 0 then 0.
      else float_of_int s.records /. float_of_int s.frames );
    ("ftlinux.replay_busy_ms", sum_ms s.replay);
    ("ftlinux.tuple_lag_p50_us", quantile (List.map us s.tuple_lag) 0.5);
    ("ftlinux.tuple_lag_p99_us", quantile (List.map us s.tuple_lag) 0.99);
    ("ftlinux.commit_wait_p50_us", quantile (List.map us s.commit_wait) 0.5);
    ("ftlinux.commit_wait_p99_us", quantile (List.map us s.commit_wait) 0.99);
  ]
  @ List.map
      (fun (phase, metric) ->
        (metric, ms (Option.value ~default:0 (List.assoc_opt phase s.failover))))
      failover_phases

(* The registry half, for workloads whose engine the benchmark owns. *)
let of_registry reg =
  let c = counter reg in
  let armed = c "engine.timers_armed" in
  let segs = sum_counters reg ~prefix:"tcp." ~suffix:".segs_out" in
  [
    ("sim.events", float_of_int (c "engine.events_fired"));
    ("sim.timers_armed", float_of_int armed);
    ( "sim.timers_cancelled_share",
      if armed = 0 then 0. else float_of_int (c "engine.timers_cancelled") /. float_of_int armed );
    ("netstack.segs", float_of_int segs);
    ("netstack.bytes", float_of_int (sum_counters reg ~prefix:"tcp." ~suffix:".bytes_out"));
    ("ftlinux.det_sections", float_of_int (c "det.sections"));
    ("ftlinux.det_lock_wait_ms", hist_total reg "det.lock_wait_ns" /. 1e6);
    ( "ftlinux.det_contended",
      float_of_int (c "det.contended.misc" + c "det.contended.fs" + c "det.contended.obj") );
    ("ftlinux.replay_gate_stalls", float_of_int (c "replay.gate_stalls"));
    ("ftlinux.commit_flushes", float_of_int (c "msglayer.commit_flushes"));
  ]

(* RTOs per thousand segments sent. *)
let rto_per_kseg ~rto ~segs = if segs = 0. then 0. else rto /. (segs /. 1000.)

(* {1 GC} *)

type gc_delta = {
  minor_words : float;
  promoted_words : float;
  allocated_words : float;  (** minor + major allocations, less promotions *)
  major_collections : int;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let d f = f b -. f a in
  {
    minor_words = d (fun s -> s.Gc.minor_words);
    promoted_words = d (fun s -> s.Gc.promoted_words);
    allocated_words =
      d (fun s -> s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words);
    major_collections = b.major_collections - a.major_collections;
  }

(* Peak major heap, in MB. *)
let heap_mb (st : Gc.stat) = float_of_int st.top_heap_words *. 8. /. 1e6
