(** Deterministic structured event tracing.

    An [Evlog.t] is a bounded ring buffer of typed events — instants, begin/end
    spans, counters and log lines — each stamped with the simulated clock and a
    monotonically increasing sequence number.  Because the simulation is
    deterministic and the log never reads the wall clock, two same-seed runs
    produce byte-identical exports; a trace is therefore a diffable artifact,
    not just a debugging aid.

    Exports: JSONL (one event per line, with a header line carrying
    truncation metadata) and Chrome [trace_event] JSON, which opens directly
    in Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev}).

    Overflow is never silent: when the ring wraps, each evicted event bumps
    {!dropped} (mirrored into a {!Metrics.Counter} when one is attached) and
    both exporters mark the trace as truncated in their headers.  Events
    emitted with [~pin:true] live outside the ring and survive any amount of
    wrapping — used for rare, load-bearing events such as failover phases. *)

type level = Error | Warn | Info | Debug

type value = Int of int | Str of string | Float of float | Bool of bool

type kind =
  | Instant
  | Span_begin
  | Span_end
  | Counter of float
  | Log of level

type event = {
  seq : int;  (** global emission order, dense from 1 *)
  at : Time.t;  (** simulated time of emission *)
  comp : string;  (** component, e.g. ["ft.msglayer"] *)
  name : string;
  kind : kind;
  span : int;  (** pairing id for [Span_begin]/[Span_end]; 0 otherwise *)
  args : (string * value) list;
}

type t

type span
(** A live span returned by {!span_begin}; pass it to {!span_end}. *)

val create : ?cap:int -> unit -> t
(** Fresh log.  [cap] is the ring capacity in events (default [1 lsl 20]).
    The ring stores events column-wise in [Bytes] chunks that hold no
    pointers, allocated as events arrive, so an unused capacity costs next
    to nothing and the GC never promotes a retained event:
    - 32 bytes per event, in chunks of 4,096 events;
    - 8 bytes per arg (16 for a float or an int wider than 40 bits), in
      chunks of 1,024 words;
    - for a [Str] arg, 8 bytes more and the string itself, in chunks of
      256 strings.

    A 3-arg event thus costs 56 bytes.  Comps, names and arg keys are
    interned in a vocabulary the log owns; [Str] values are not.  The
    vocabulary holds up to [2^20] strings and an event carries fewer than
    [2^19] args: an emission that would exceed either raises
    [Invalid_argument] and records nothing.  Pinned events are kept as
    {!event} records and never refused.
    The clock reads as 0 until {!set_clock}. *)

val set_clock : t -> (unit -> Time.t) -> unit
(** Attach the simulated-time source (the engine wires [fun () -> now]).
    Kept as a closure so [Evlog] does not depend on [Engine]. *)

val set_dropped_counter : t -> Metrics.Counter.t -> unit
(** Mirror ring evictions into a metrics counter
    (["evlog.dropped_events"] in the engine registry). *)

val capacity : t -> int

val set_detail : t -> bool -> unit
(** Enable high-volume instrumentation (per-park, per-timer-fire,
    per-segment events).  Callers gate such sites on {!detail}; default
    off so tuple- and failover-level events survive long runs. *)

val detail : t -> bool

(** {1 Emission} *)

val emit :
  t ->
  ?pin:bool ->
  ?args:(string * value) list ->
  comp:string ->
  string ->
  unit
(** Record an instant event.  [~pin:true] stores it outside the ring so it
    can never be evicted; pin only rare events. *)

val span_begin :
  t ->
  ?pin:bool ->
  ?args:(string * value) list ->
  comp:string ->
  string ->
  span
(** Open a span.  The begin event is recorded now; the matching end event is
    recorded by {!span_end}.  Span ids are globally unique per log. *)

val span_end : t -> ?args:(string * value) list -> span -> unit
(** Close a span (idempotent: a second call is ignored). *)

val counter : t -> ?args:(string * value) list -> comp:string -> string -> float -> unit
(** Record a counter sample (renders as a counter track in Perfetto). *)

val log : t -> comp:string -> level -> string -> unit
(** Record a log line as an event; used by [Trace] so human logs and machine
    traces are one stream. *)

(** {2 The writer}

    Every ring event is written by one writer, which puts each arg straight
    into the ring: open an event, add its args in order, close it.  What each
    entry point allocates on the OCaml heap, with no subscriber attached:
    - [begin_instant], [arg_int], [arg_str], [arg_bool] and [close]:
      nothing; [arg_float]: nothing beyond its boxed argument;
    - [begin_span]: the 6-word {!span};
    - [emit], [span_begin], [span_end] and [counter] with [~args]: what the
      call site builds, 8 words per arg (a list cell, a pair and the value's
      box) and 2 for the [Some] of [?args]; the log then copies it into the
      ring and keeps none of it.  [log]: nothing beyond its message.
    Use the writer where an event fires once per record, message or
    segment; the [~args] forms where it is rare.

    Compute every arg before opening the event: nothing may record into the
    same log while an event is open, and opening a second one raises
    [Invalid_argument].  Subscribers run after {!close}, so one that emits
    records after the event it was handed.  An arg that would overflow the
    vocabulary or the event's arg count (see {!create}) raises
    [Invalid_argument] and takes back the whole event: nothing is recorded
    and the log is ready for the next one.  A writer event cannot be
    pinned. *)

val begin_instant : t -> comp:string -> string -> unit
(** Open an instant event. *)

val begin_span : t -> comp:string -> string -> span
(** Open the begin event of a span; close the span later with {!span_end}.
    If the event is refused, the span is never recorded: do not end it. *)

val arg_int : t -> string -> int -> unit
(** Add an int arg to the open event. *)

val arg_str : t -> string -> string -> unit
(** Add a string arg to the open event. *)

val arg_float : t -> string -> float -> unit
val arg_bool : t -> string -> bool -> unit

val close : t -> unit
(** Record the open event: it takes its seq and the clock now, and the
    subscribers see it. *)

(** {1 Subscribers} *)

val subscribe : t -> (event -> unit) -> int
(** Register a callback invoked synchronously on every recorded event, once
    it is recorded and before any later event can evict it.  A ring event's
    record is decoded from the ring, so it equals what {!events} returns.
    Returns a token for {!unsubscribe}. *)

val unsubscribe : t -> int -> unit

(** {1 Inspection} *)

val emitted : t -> int
(** Total events ever recorded (including evicted ones). *)

val dropped : t -> int
(** Events evicted by ring wrap (pinned events never drop). *)

val truncated : t -> bool
(** [dropped t > 0]. *)

val events : t -> event list
(** Surviving events (ring + pinned), in emission ([seq]) order. *)

(** {1 Export} *)

val to_jsonl : t -> string
(** One JSON object per line.  Line 1 is a header:
    [{"type":"header","cap":...,"emitted":...,"dropped":...,"truncated":...}].
    Byte-identical across same-seed runs. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON (object form).  Components map to processes;
    spans use async begin/end ([ph:"b"]/[ph:"e"]) keyed by span id.
    Truncation metadata rides in [otherData].  Opens in Perfetto. *)

val write_file : t -> format:[ `Jsonl | `Chrome ] -> string -> unit
(** Write an export to a file, event by event through a 64 KB buffer: the
    bytes are those of {!to_jsonl} or {!to_chrome}, but the whole export is
    never held in memory.  [`Chrome] is picked by [.json] convention in
    callers; this function just trusts [format]. *)

(** {1 Querying} *)

module Query : sig
  (** Small combinators over {!events} for tests and reports. *)

  val filter : ?comp:string -> ?name:string -> event list -> event list
  (** Keep events matching the given component and/or name exactly. *)

  val int_arg : event -> string -> int option
  val str_arg : event -> string -> string option

  val pair_spans : event list -> (event * event option) list
  (** Match [Span_begin] events with their [Span_end] by span id, in begin
      order.  [None] means the span never closed. *)

  val span_of : ?comp:string -> name:string -> event list -> (Time.t * Time.t) option
  (** First closed span with the given name (and component, if given), as
      [(begin_at, end_at)]. *)

  val durations : ?comp:string -> ?name:string -> event list -> (string * Time.t) list
  (** All closed spans matching the filter, as [(name, duration)] in begin
      order. *)
end
