(* Host-side instrumentation.

   An untraced probe does nothing: the measured region's two clock reads
   belong to the caller.  A traced probe keeps a timeline of top-level host
   spans, one around every call the benchmark makes into a layer.  A span
   reads the clocks as its call starts and again as it ends, so work the
   benchmark does between two calls shows up as a gap between their spans
   rather than inside the next one.  Each span carries CPU and wall
   seconds, and the GC phase time that Runtime_events reported while it
   ran, as child spans (wall seconds). *)

let cpu_now () = Sys.time ()
let wall_now () = Unix.gettimeofday ()

type span = {
  sp_name : string;
  sp_timeline : string;
  sp_cpu0 : float;
  sp_cpu1 : float;
  sp_wall0 : float;
  sp_wall1 : float;
  sp_gc : (string * float) list;  (** GC phase -> wall seconds *)
  sp_poll_cpu : float;
      (** CPU seconds the probe spent polling Runtime_events just before and
          just after the span, outside it *)
  sp_gap_gc : float;
      (** wall seconds of GC (minor and major) that ended between the
          previous span and this one *)
}

let span_cpu s = s.sp_cpu1 -. s.sp_cpu0
let span_wall s = s.sp_wall1 -. s.sp_wall0

(* {1 GC phase time from Runtime_events} *)

module Gc_phases = struct
  (* The three phases reported: a whole minor collection, the remembered-set
     scan inside it, and a whole major slice. *)
  let tracked =
    Runtime_events.
      [
        (EV_MINOR, "minor");
        (EV_MINOR_REMEMBERED_SET, "remembered_set");
        (EV_MAJOR, "major");
      ]

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    open_at : (Runtime_events.runtime_phase, int64) Hashtbl.t;
    acc : (string, int64) Hashtbl.t;  (** ns since the last [take] *)
    lost : int ref;  (** events the ring overwrote before a poll *)
  }

  let start () =
    Runtime_events.start ();
    (* A second traced run in the same process finds the ring paused. *)
    Runtime_events.resume ();
    let open_at = Hashtbl.create 8 and acc = Hashtbl.create 8 in
    let lost = ref 0 in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ ts ph ->
          if List.mem_assoc ph tracked then
            Hashtbl.replace open_at ph (Runtime_events.Timestamp.to_int64 ts))
        ~runtime_end:(fun _ ts ph ->
          match (Hashtbl.find_opt open_at ph, List.assoc_opt ph tracked) with
          | Some t0, Some name ->
              Hashtbl.remove open_at ph;
              let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0 in
              let prev = Option.value ~default:0L (Hashtbl.find_opt acc name) in
              Hashtbl.replace acc name (Int64.add prev d)
          | _ -> ())
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
    in
    let t =
      { cursor = Runtime_events.create_cursor None; callbacks; open_at; acc; lost }
    in
    (* Skip whatever the ring already holds: only phases that end after
       [start] count. *)
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    Hashtbl.reset acc;
    t

  (* Poll the ring and return the phase time accumulated since the last
     call, in seconds, in [tracked] order. *)
  let take t =
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    let r =
      List.map
        (fun (_, name) ->
          let ns = Option.value ~default:0L (Hashtbl.find_opt t.acc name) in
          (name, Int64.to_float ns /. 1e9))
        tracked
    in
    Hashtbl.reset t.acc;
    r

  (* Stop polling; returns how many events the ring overwrote before a
     poll reached them (their phase time is missing). *)
  let stop t =
    ignore (take t);
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ();
    !(t.lost)
end

(* {1 Probes} *)

type t = {
  traced : bool;
  run_id : string;
  mutable timeline : string;
  mutable spans : span list;  (** newest first *)
  gc : Gc_phases.t option;
}

let make ~traced ~run_id ~gc = { traced; run_id; timeline = ""; spans = []; gc }
let untraced () = make ~traced:false ~run_id:"" ~gc:None
let traced ~run_id ~gc = make ~traced:true ~run_id ~gc

(* GC phase time since the last poll. *)
let take_gc t = match t.gc with Some g -> Gc_phases.take g | None -> []

(* Spans recorded from now on belong to timeline [name]; GC phases that
   ended before it began belong to none of them. *)
let begin_timeline t name =
  if t.traced then begin
    t.timeline <- name;
    ignore (take_gc t)
  end

let gc_work phases =
  List.fold_left
    (fun acc ph -> acc +. Option.value ~default:0. (List.assoc_opt ph phases))
    0. [ "minor"; "major" ]

(* A top-level span around [f ()]; its children are the GC phases that
   ended while [f] ran. *)
let span t name f =
  if not t.traced then f ()
  else begin
    let poll0 = cpu_now () in
    let gap_gc = take_gc t in
    let cpu0 = cpu_now () and wall0 = wall_now () in
    let r = f () in
    let cpu1 = cpu_now () and wall1 = wall_now () in
    let gc = take_gc t in
    let poll1 = cpu_now () in
    t.spans <-
      {
        sp_name = name;
        sp_timeline = t.timeline;
        sp_cpu0 = cpu0;
        sp_cpu1 = cpu1;
        sp_wall0 = wall0;
        sp_wall1 = wall1;
        sp_gc = gc;
        sp_poll_cpu = cpu0 -. poll0 +. (poll1 -. cpu1);
        sp_gap_gc = gc_work gap_gc;
      }
      :: t.spans;
    r
  end

(* One [Engine.run] slice. *)
let slice t run = span t "Engine.run" run

let spans t = List.rev t.spans

let timeline_spans t name = List.filter (fun s -> s.sp_timeline = name) (spans t)

(* The CPU seconds no span of [spans] (one timeline, in order) covers
   between [cpu0] and [cpu1]: before the first, between consecutive ones
   and after the last.  They include the probe's polling.  A negative gap
   means two spans overlap. *)
let gaps ~cpu0 ~cpu1 spans =
  let rec go prev = function
    | s :: rest -> (s.sp_cpu0 -. prev) :: go s.sp_cpu1 rest
    | [] -> [ cpu1 -. prev ]
  in
  go cpu0 spans

(* Chrome trace_event JSON of [all] (microsecond timestamps relative to
   the earliest), each carrying the run id; GC children are laid out at the
   start of their span. *)
let to_chrome ~run_id all =
  let origin = List.fold_left (fun acc s -> Float.min acc s.sp_wall0) infinity all in
  let us x = (x -. origin) *. 1e6 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let ev ~name ~cat ~ts ~dur ~args =
    if not !first then Buffer.add_char b ',';
    first := false;
    Printf.bprintf b
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%S,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%S%s}}"
      name cat cat ts dur run_id args
  in
  List.iter
    (fun s ->
      ev ~name:s.sp_name ~cat:s.sp_timeline ~ts:(us s.sp_wall0)
        ~dur:(span_wall s *. 1e6)
        ~args:(Printf.sprintf ",\"cpu_s\":%.9f" (span_cpu s));
      (* minor at the span's start, the remembered-set scan inside it, then
         major *)
      let gc ph = Option.value ~default:0. (List.assoc_opt ph s.sp_gc) in
      let child ph at =
        if gc ph > 0. then
          ev ~name:("gc." ^ ph) ~cat:s.sp_timeline ~ts:(us at)
            ~dur:(gc ph *. 1e6) ~args:""
      in
      child "minor" s.sp_wall0;
      child "remembered_set" s.sp_wall0;
      child "major" (s.sp_wall0 +. gc "minor"))
    all;
  Buffer.add_string b "]}";
  Buffer.contents b
