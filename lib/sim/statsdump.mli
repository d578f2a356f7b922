(** Periodic one-line metric snapshots ([ftsim --stats-interval]).

    Every [every] of simulated time, prints one line of the engine's
    registry — counters and gauges verbatim, histograms as
    [{n p50 p99 p999}] cells — for names under lag, msglayer, replay, det
    and failover, less the per-channel ".chan" cursor gauges.

    The printer is a raw {!Engine.timer} callback: pure registry reads plus
    host I/O, never suspending and never touching simulated state, so it
    cannot perturb the deterministic schedule. *)

val arm : ?label:string -> Engine.t -> every:Time.t -> unit
(** Print one line every [every] of sim time, for as long as the engine
    runs, through the calling domain's {!Sink} (stderr by default; a
    multi-domain campaign coordinator redirects worker sinks so lines
    never tear across domains).  Raises [Invalid_argument] on a
    non-positive interval. *)
