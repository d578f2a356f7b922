type level = Error | Warn | Info | Debug

type value = Int of int | Str of string | Float of float | Bool of bool

type kind =
  | Instant
  | Span_begin
  | Span_end
  | Counter of float
  | Log of level

type event = {
  seq : int;
  at : Time.t;
  comp : string;
  name : string;
  kind : kind;
  span : int;
  args : (string * value) list;
}

(* The ring is slot [i mod cap] for [i] in [first .. next_ring - 1]; slots
   outside that window still hold stale events but are never read.  Slots
   live in fixed-size chunks, each allocated on its first write, so a log
   costs memory in proportion to what it has recorded, not to [cap]. *)
type t = {
  mutable clock : unit -> Time.t;
  mutable cap : int;
  mutable chunks : event array array;
  mutable first : int;  (* ring index of the oldest retained event *)
  mutable next_ring : int;  (* ring index one past the newest event *)
  mutable next_seq : int;
  mutable next_span : int;
  mutable dropped_n : int;
  mutable dropped_c : Metrics.Counter.t option;
  mutable detail_on : bool;
  mutable subs : (int * (event -> unit)) list;  (* insertion order *)
  mutable next_sub : int;
  mutable pinned : event list;  (* newest first *)
}

type span = {
  sp_log : t;
  sp_id : int;
  sp_comp : string;
  sp_name : string;
  sp_pin : bool;
  mutable sp_open : bool;
}

let dummy =
  { seq = 0; at = 0; comp = ""; name = ""; kind = Instant; span = 0; args = [] }

let default_cap = 1 lsl 20
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits

let no_chunks cap = Array.make (((cap - 1) lsr chunk_bits) + 1) [||]

let slot_get t i =
  let j = i mod t.cap in
  t.chunks.(j lsr chunk_bits).(j land (chunk_size - 1))

let slot_set t i ev =
  let j = i mod t.cap in
  let c = j lsr chunk_bits in
  if Array.length t.chunks.(c) = 0 then
    t.chunks.(c) <- Array.make (min chunk_size (t.cap - (c lsl chunk_bits))) dummy;
  t.chunks.(c).(j land (chunk_size - 1)) <- ev

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Evlog.create: cap must be positive";
  {
    clock = (fun () -> 0);
    cap;
    chunks = no_chunks cap;
    first = 0;
    next_ring = 0;
    next_seq = 0;
    next_span = 0;
    dropped_n = 0;
    dropped_c = None;
    detail_on = false;
    subs = [];
    next_sub = 0;
    pinned = [];
  }

let set_clock t f = t.clock <- f
let set_dropped_counter t c = t.dropped_c <- Some c
let capacity t = t.cap
let set_detail t b = t.detail_on <- b
let detail t = t.detail_on
let emitted t = t.next_seq
let dropped t = t.dropped_n
let truncated t = t.dropped_n > 0

let drop t n =
  if n > 0 then begin
    t.dropped_n <- t.dropped_n + n;
    match t.dropped_c with Some c -> Metrics.Counter.add c n | None -> ()
  end

let set_capacity t cap =
  if cap < 1 then invalid_arg "Evlog.set_capacity: cap must be positive";
  let live = t.next_ring - t.first in
  let keep = min live cap in
  let kept = Array.init keep (fun i -> slot_get t (t.next_ring - keep + i)) in
  drop t (live - keep);
  t.chunks <- no_chunks cap;
  t.cap <- cap;
  t.first <- 0;
  t.next_ring <- keep;
  Array.iteri (slot_set t) kept

let subscribe t f =
  t.next_sub <- t.next_sub + 1;
  t.subs <- t.subs @ [ (t.next_sub, f) ];
  t.next_sub

let unsubscribe t token = t.subs <- List.filter (fun (k, _) -> k <> token) t.subs

let record t ~pin ~comp ~name ~kind ~span ~args =
  t.next_seq <- t.next_seq + 1;
  let ev = { seq = t.next_seq; at = t.clock (); comp; name; kind; span; args } in
  List.iter (fun (_, f) -> f ev) t.subs;
  if pin then t.pinned <- ev :: t.pinned
  else begin
    if t.next_ring - t.first = t.cap then begin
      t.first <- t.first + 1;
      drop t 1
    end;
    slot_set t t.next_ring ev;
    t.next_ring <- t.next_ring + 1
  end;
  ev

let emit t ?(pin = false) ?(args = []) ~comp name =
  ignore (record t ~pin ~comp ~name ~kind:Instant ~span:0 ~args)

let span_begin t ?(pin = false) ?(args = []) ~comp name =
  t.next_span <- t.next_span + 1;
  let id = t.next_span in
  ignore (record t ~pin ~comp ~name ~kind:Span_begin ~span:id ~args);
  { sp_log = t; sp_id = id; sp_comp = comp; sp_name = name; sp_pin = pin;
    sp_open = true }

let span_end t ?(args = []) sp =
  if sp.sp_open then begin
    sp.sp_open <- false;
    ignore
      (record t ~pin:sp.sp_pin ~comp:sp.sp_comp ~name:sp.sp_name ~kind:Span_end
         ~span:sp.sp_id ~args)
  end

let counter t ?(args = []) ~comp name v =
  ignore (record t ~pin:false ~comp ~name ~kind:(Counter v) ~span:0 ~args)

let log t ~comp lvl msg =
  ignore
    (record t ~pin:false ~comp ~name:"log" ~kind:(Log lvl) ~span:0
       ~args:[ ("msg", Str msg) ])

let events t =
  let ring =
    List.init (t.next_ring - t.first) (fun i -> slot_get t (t.first + i))
  in
  (* Both lists are individually seq-sorted; merge. *)
  let pinned = List.rev t.pinned in
  let rec merge a b =
    match (a, b) with
    | [], x | x, [] -> x
    | x :: a', y :: b' ->
        if x.seq < y.seq then x :: merge a' b else y :: merge a b'
  in
  merge ring pinned

(* {1 JSON rendering}

   All formatting is fixed-width-free and locale-independent so same-seed
   runs export byte-identical traces. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
  else Buffer.add_string b "null"

let buf_add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> buf_add_json_string b s
  | Float f -> buf_add_float b f
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let buf_add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    args;
  Buffer.add_char b '}'

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let kind_name = function
  | Instant -> "instant"
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Counter _ -> "counter"
  | Log _ -> "log"

let to_jsonl t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\":\"header\",\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}\n"
       t.cap t.next_seq t.dropped_n
       (if truncated t then "true" else "false"));
  List.iter
    (fun ev ->
      Buffer.add_string b
        (Printf.sprintf "{\"seq\":%d,\"at\":%d,\"comp\":" ev.seq ev.at);
      buf_add_json_string b ev.comp;
      Buffer.add_string b ",\"name\":";
      buf_add_json_string b ev.name;
      Buffer.add_string b ",\"kind\":\"";
      Buffer.add_string b (kind_name ev.kind);
      Buffer.add_char b '"';
      (match ev.kind with
      | Counter v ->
          Buffer.add_string b ",\"value\":";
          buf_add_float b v
      | Log lvl ->
          Buffer.add_string b ",\"level\":\"";
          Buffer.add_string b (level_name lvl);
          Buffer.add_char b '"'
      | _ -> ());
      if ev.span <> 0 then
        Buffer.add_string b (Printf.sprintf ",\"span\":%d" ev.span);
      if ev.args <> [] then begin
        Buffer.add_string b ",\"args\":";
        buf_add_args b ev.args
      end;
      Buffer.add_string b "}\n")
    (events t);
  Buffer.contents b

(* Chrome trace_event format, JSON-object form.  Components become
   processes (named via "M" metadata events); spans are async ("b"/"e")
   keyed by the span id so nesting across processes renders correctly. *)
let to_chrome t =
  let evs = events t in
  let comps =
    List.sort_uniq String.compare (List.map (fun e -> e.comp) evs)
  in
  let pid_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i c -> Hashtbl.replace tbl c (i + 1)) comps;
    fun c -> try Hashtbl.find tbl c with Not_found -> 0
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '\n'
  in
  List.iter
    (fun c ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
           (pid_of c));
      buf_add_json_string b c;
      Buffer.add_string b "}}")
    comps;
  let ts_of at = Printf.sprintf "%.3f" (float_of_int at /. 1000.) in
  List.iter
    (fun ev ->
      sep ();
      let pid = pid_of ev.comp in
      let common ph =
        Buffer.add_string b
          (Printf.sprintf "{\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"name\":"
             ph (ts_of ev.at) pid);
        buf_add_json_string b ev.name
      in
      (match ev.kind with
      | Instant | Log _ ->
          common "i";
          Buffer.add_string b ",\"s\":\"t\"";
          let args =
            match ev.kind with
            | Log lvl -> ("level", Str (level_name lvl)) :: ev.args
            | _ -> ev.args
          in
          if args <> [] then begin
            Buffer.add_string b ",\"args\":";
            buf_add_args b args
          end
      | Span_begin | Span_end ->
          common (match ev.kind with Span_begin -> "b" | _ -> "e");
          Buffer.add_string b ",\"cat\":";
          buf_add_json_string b ev.comp;
          Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" ev.span);
          if ev.args <> [] then begin
            Buffer.add_string b ",\"args\":";
            buf_add_args b ev.args
          end
      | Counter v ->
          common "C";
          Buffer.add_string b ",\"args\":{\"value\":";
          buf_add_float b v;
          Buffer.add_char b '}');
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}}\n"
       t.cap t.next_seq t.dropped_n
       (if truncated t then "true" else "false"));
  Buffer.contents b

let write_file t ~format path =
  let s = match format with `Jsonl -> to_jsonl t | `Chrome -> to_chrome t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

module Query = struct
  let filter ?comp ?name evs =
    List.filter
      (fun e ->
        (match comp with Some c -> e.comp = c | None -> true)
        && match name with Some n -> e.name = n | None -> true)
      evs

  let int_arg e k =
    match List.assoc_opt k e.args with Some (Int i) -> Some i | _ -> None

  let str_arg e k =
    match List.assoc_opt k e.args with Some (Str s) -> Some s | _ -> None

  let pair_spans evs =
    let ends = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match e.kind with
        | Span_end -> if not (Hashtbl.mem ends e.span) then Hashtbl.add ends e.span e
        | _ -> ())
      evs;
    List.filter_map
      (fun e ->
        match e.kind with
        | Span_begin -> Some (e, Hashtbl.find_opt ends e.span)
        | _ -> None)
      evs

  let durations ?comp ?name evs =
    List.filter_map
      (fun (b, e) ->
        match e with
        | Some e -> Some (b.name, e.at - b.at)
        | None -> None)
      (pair_spans (filter ?comp ?name evs))

  let span_of ?comp ~name evs =
    match pair_spans (filter ?comp ~name evs) with
    | (b, Some e) :: _ -> Some (b.at, e.at)
    | _ -> None
end
