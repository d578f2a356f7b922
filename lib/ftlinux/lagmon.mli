(** Replication-health monitor.

    Periodically samples the primary's append LSN against the backup's ack
    watermark (overall and per {!Det} channel), the backup's replay queue
    depth, and the append-to-ack round-trip probe, publishing:

    - gauges [<name>.lsn] (append−ack gap in records), [<name>.ack],
      [<name>.queue_depth], [<name>.rtt] (ns), and per-channel cursors
      [<name>.chan<c>.emitted] / [<name>.chan<c>.acked];
    - a [<name>.lsn_hist] histogram of the sampled gap;
    - channel-tagged Evlog counters under component ["ft.lagmon"] (unless
      [quiet]);
    - a health verdict: [Ok] / [Lagging] (gap at/above [lag_records] but
      moving) / [Stalled] (open gap with no watermark progress for
      [stall_after]).

    Sampling runs as a raw {!Engine.timer} callback: pure reads plus
    metric updates, never suspending and never touching Det or namespace
    state — so enabling the monitor cannot perturb the deterministic
    replay order, and with [quiet] set same-seed traces stay byte-identical
    to monitor-off runs.  The timer stops re-arming once [alive] reports
    false (peer declared dead, failover underway), so a quiesced engine
    can drain. *)

open Ftsim_sim

type t

type verdict = Ok | Retired | Lagging | Stalled
(** [Retired]: the monitored pair was replaced by a {e planned} epoch
    switch (live re-protection) — a terminal administrative verdict, not a
    health event. *)

val verdict_label : verdict -> string
val worse : verdict -> verdict -> verdict
(** The more severe of the two
    ([Stalled] > [Lagging] > [Retired] > [Ok]). *)

type config = {
  period : Time.t;  (** sampling interval *)
  lag_records : int;  (** [Lagging] at/above this append−ack gap *)
  stall_after : Time.t;
      (** [Stalled] when an open gap sees no watermark progress for this
          long.  Keep it well above the heartbeat timeout so peer death is
          detected (and [alive] goes false) before a stall can be called. *)
  quiet : bool;
      (** suppress Evlog emission; gauges/histograms still update *)
}

val default_config : config
(** 10 ms period, 64-record lag threshold, 150 ms stall window, not
    quiet. *)

type source = {
  appended : unit -> int;  (** primary: highest assigned LSN *)
  acked : unit -> int;  (** primary: highest acked LSN *)
  replayed : unit -> int;  (** backup: contiguous replay watermark *)
  queue_depth : unit -> int;  (** backup: replay backlog *)
  rtt : unit -> Time.t option;  (** primary: last append-to-ack RTT *)
  channels : unit -> (int * int * int) list;
      (** per-channel [(channel, sections emitted, sections acked)] *)
  alive : unit -> bool;
      (** false once replication legitimately ended — the monitor freezes
          (and stops re-arming) instead of reporting a death being handled
          elsewhere as a stall *)
}

val start :
  ?config:config ->
  ?regenerating:(unit -> bool) ->
  Engine.t ->
  name:string ->
  source ->
  t
(** Start sampling.  [name] prefixes every published metric ("lag" for a
    classic pair; "lag.b0"/"lag.b1" per backup in a group; "lag.e<n>" per
    re-protection epoch).  While [regenerating] (default: never) reports
    true, the stall timer is held back: a regeneration catch-up gap may be
    [Lagging] but is never called [Stalled]. *)

val set_source : t -> source -> unit
(** Sample [source] from the next tick on: a regeneration's monitor follows
    the journal feed until the epoch switch, then the spliced pair. *)

val stop : t -> unit
(** Cancel the sampling timer.  Idempotent. *)

val retire : t -> unit
(** A planned epoch switch replaced the monitored pair: record a terminal
    [Retired] verdict (with a transition) and stop sampling, instead of
    leaving the monitor frozen at whatever it last observed.  [worst] is
    untouched — retirement is not a health event.  Idempotent. *)

val verdict : t -> verdict
(** Current verdict (frozen at its last value once [alive] goes false;
    [Retired] after {!retire}). *)

val worst : t -> verdict
(** Most severe verdict observed over the monitor's lifetime. *)

val samples : t -> int

val transitions : t -> (Time.t * verdict) list
(** Verdict changes in time order (the initial [Ok] is implicit). *)
