(** Client-side load generators, run on a separate {!Ftsim_netstack.Host}
    across the modelled 1 Gb/s link — as the paper runs ApacheBench and
    wget on a client machine.

    [ab] is ApacheBench-like: closed-loop workers, one TCP connection per
    request (ab's default, no keep-alive).  [wget] downloads one file on one
    connection, recording a throughput time series — the probe of the
    failover experiment (Fig. 8). *)

open Ftsim_sim
open Ftsim_netstack

(** {1 ApacheBench} *)

type ab_stats = {
  completed : Metrics.Counter.t;
  errors : Metrics.Counter.t;
  latency : Metrics.Hist.t;  (** per-request seconds *)
  completions : Metrics.Series.t;  (** requests per time bucket *)
}

type ab

val ab_start :
  Host.t ->
  server:string ->
  port:int ->
  target:string ->
  concurrency:int ->
  ?on_complete:(at:Time.t -> latency:Time.t -> unit) ->
  unit ->
  ab
(** Start [concurrency] closed-loop request workers.  [on_complete] fires
    once per successful request with its completion time and latency (the
    SLO reporter collects raw completions through it). *)

val ab_stats : ab -> ab_stats

val ab_stop : ab -> unit
(** Workers finish their in-flight request and exit. *)

(** {1 Open-loop generator}

    The C10K client.  Arrivals are driven by a clock — fixed-rate or
    Poisson — not by completions, so a slowing server faces undiminished
    offered load and the concurrent-connection count grows until the
    server sheds or catches up.  Each arrival is one connection, one GET,
    one classified outcome. *)

type ol_stats = {
  ol_ok : Metrics.Counter.t;  (** verified 200s, full body received *)
  ol_shed : Metrics.Counter.t;  (** explicit zero-body 503 load sheds *)
  ol_errors : Metrics.Counter.t;
      (** everything else: resets, truncations, malformed responses *)
  ol_latency : Metrics.Hist.t;  (** per successful request, milliseconds *)
}

type ol

val ol_start :
  Host.t ->
  server:string ->
  port:int ->
  target:string ->
  rate:float ->
  conns:int ->
  ?poisson:bool ->
  ?seed:int ->
  ?on_complete:(at:Time.t -> latency:Time.t -> unit) ->
  unit ->
  ol
(** Launch [conns] request connections at [rate] arrivals per second —
    evenly spaced, or exponentially with [~poisson:true] drawn from a
    dedicated RNG stream seeded by [seed] (default 1), so the arrival
    pattern is a pure function of the parameters.  A request that has not
    completed 10 s after its connection established is aborted and counted
    as an error — necessary under fail-stop, where a fully-ACKed request to
    a silently dead primary would otherwise block its reader forever. *)

val ol_stats : ol -> ol_stats

val ol_peak : ol -> int
(** High-water mark of concurrently open connections. *)

val ol_launched : ol -> int

val ol_done : ol -> unit Ivar.t
(** Filled when every launched connection has completed. *)

(** {1 Client-consistency oracle}

    A verifying client for the chaos campaigns: it computes the exact byte
    stream the server must produce ([requests] back-to-back HTTP responses
    of [expect_bytes] zero bytes each on one connection) and checks every
    received byte against its absolute stream position — so output that is
    lost after commit, duplicated, or corrupted across a failover is
    flagged as a violation, and an early end of stream as truncation. *)

type oracle = {
  mutable completed : int;  (** responses fully verified *)
  requests : int;
  mutable violations : string list;
      (** prefix-consistency violations (corrupted, duplicated or
          misaligned bytes), newest first *)
  mutable truncated : bool;
      (** the stream ended before all responses arrived — excusable only
          by a total outage *)
  oracle_done : unit Ivar.t;
  mutable bytes_verified : int;
  mutable o_shed : int;
      (** explicit zero-body 503 sheds observed and retried (only under
          [allow_shed]) *)
}

val oracle_ok : oracle -> bool
(** No violations and not truncated. *)

val verified_start :
  Host.t ->
  server:string ->
  port:int ->
  target:string ->
  expect_bytes:int ->
  ?requests:int ->
  ?allow_shed:bool ->
  unit ->
  oracle
(** [allow_shed] (default false): treat the admission controller's exact
    zero-body 503 as a clean shed — the oracle retries the same request on
    the same connection instead of flagging a violation, preserving the
    exactly-once check for everything the server does commit to. *)

(** {1 wget} *)

type wget = {
  bytes_received : Metrics.Series.t;  (** per-second byte arrivals *)
  total : int Ivar.t;  (** filled with the byte count when complete *)
}

val wget_start :
  Host.t -> server:string -> port:int -> target:string -> ?bucket:Time.t -> unit -> wget
