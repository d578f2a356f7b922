(** SLO reporter: tail latency through replica death.

    Runs a replicated {!Mongoose} under closed-loop ApacheBench load, injects
    a primary fail-stop, and splits per-request latency into pre-fault /
    failover-window / post-recovery phases.  The failover window's bounds are
    the pinned [failover.*] Evlog spans (begin of [failover.detect] to end of
    [failover.golive]), and completions are classified post-hoc by exact time
    comparison against those bounds — not by histogram-window granularity. *)

open Ftsim_sim
open Ftsim_ftlinux

val default_config : Cluster.config
(** Small topology, 5 ms heart-beats / 25 ms timeout, 200 ms driver reload,
    replication-health monitor on — one run settles in a few simulated
    seconds. *)

type report = {
  fail_at : Time.t;
  window : (Time.t * Time.t) option;
      (** failover window from the pinned spans; [None] if no failover *)
  span_bounds_ok : bool;
      (** span-derived bounds equal {!Cluster.primary_halted_at} /
          {!Cluster.failover_completed_at} *)
  pre : Metrics.Hist.t;  (** latency (ms) of completions before the window *)
  fo : Metrics.Hist.t;  (** completions inside the window (may be empty:
          the server is down for most of it) *)
  post : Metrics.Hist.t;  (** completions after the window *)
  completions : (Time.t * Time.t) list;
      (** every successful request as [(done_at, latency)], oldest first *)
  completed : int;
  errors : int;
  lag_verdict : Lagmon.verdict option;
  lag_worst : Lagmon.verdict option;
}

val run :
  Engine.t ->
  ?config:Cluster.config ->
  ?concurrency:int ->
  ?page_bytes:int ->
  ?cpu_per_request:Time.t ->
  ?listen_shards:int ->
  ?admission:int ->
  ?warmup:Time.t ->
  ?fail_at:Time.t ->
  ?run_for:Time.t ->
  unit ->
  report
(** Boot the cluster, warm up until [warmup] (default 200 ms), offer load
    with [concurrency] (default 16) workers, fail the primary at [fail_at]
    (default 600 ms), run until [run_for] (default 2.4 s), then classify.
    [listen_shards] / [admission] configure the server's accept-queue
    sharding and in-flight budget ({!Mongoose.params}).  Deterministic for
    a fixed engine seed. *)

val failover_split :
  Engine.t ->
  (Time.t * Time.t) list ->
  (Time.t * Time.t) option * Metrics.Hist.t * Metrics.Hist.t * Metrics.Hist.t
(** [failover_split eng completions] reads the failover window from
    [eng]'s pinned spans and records each [(done_at, latency)] completion's
    latency, in ms, into the pre-fault, failover or post-recovery
    histogram; without a window every completion is pre-fault.  Returns
    [(window, pre, fo, post)]. *)

val print_table : report -> unit
(** The phase-split p50/p90/p99/p999 table, window bounds first. *)
