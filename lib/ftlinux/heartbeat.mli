(** Heart-beat failure detection (§3.6).

    Each replica periodically sends a heart-beat over the mailbox; a replica
    that observes no peer activity for the timeout declares the peer failed
    (the caller then IPI-halts the suspect so a merely-slow replica cannot
    act as a rogue). *)

open Ftsim_sim

type t

val start :
  ?name:string ->
  spawn:(string -> (unit -> unit) -> Engine.proc) ->
  eng:Engine.t ->
  period:Time.t ->
  timeout:Time.t ->
  send:(seq:int -> unit) ->
  last_peer:(unit -> Time.t) ->
  on_failure:(unit -> unit) ->
  unit ->
  t
(** Arm the sender and monitor on cancellable engine timers.  [on_failure]
    fires at most once, in a fresh process spawned via [spawn] (failover
    blocks, so it needs process context); both timers then stop.  A send
    attempt on a halted partition silently stops the detector — the timer
    outlives the partition where the old sender thread died with it.

    [?name] labels this detector's trace events (component
    ["ft.heartbeat"]): per-period ["send"] instants when {!Evlog.detail} is
    on, and a pinned ["failure_detected"] instant when the monitor fires. *)

val stop : t -> unit
(** Silence the detector and cancel both timers eagerly (e.g. at shutdown,
    so the event queue drains immediately rather than at the next period). *)
