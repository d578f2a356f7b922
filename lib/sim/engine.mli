(** Discrete-event simulation engine.

    The engine multiplexes cooperative green threads ("processes") over a
    simulated nanosecond clock using OCaml 5 effect handlers.  A process runs
    until it suspends ({!sleep}, {!suspend} or a primitive built on them);
    the engine then advances the clock to the next pending event.

    A run is fully deterministic: events with equal timestamps fire in the
    order they were scheduled, and all randomness flows through the engine's
    seeded {!Prng}. *)

type t
(** A simulation world: clock, event queue, timer wheel, process table. *)

type handle
(** A cancellable timer armed with {!timer} (or indirectly via {!sleep} /
    {!with_timeout}). *)

type proc
(** Handle on a spawned process. *)

type exit_reason =
  | Normal  (** the process body returned *)
  | Killed  (** terminated by {!kill} (e.g. its partition was halted) *)
  | Exn of exn  (** the process body raised *)

exception Killed_exn
(** Raised inside a process being killed so that [Fun.protect] finalizers run.
    Process code should not catch it (catch-alls must re-raise). *)

val create : ?seed:int -> ?evlog_cap:int -> unit -> t
(** Fresh world at time 0.  Default [seed] is 42.  [evlog_cap] sizes the
    event-trace ring (see {!Evlog.create}). *)

val now : t -> Time.t
(** Current simulated time. *)

val prng : t -> Prng.t
(** The engine's root generator; subsystems should [Prng.split] it. *)

val metrics : t -> Metrics.Registry.t
(** The world's metrics registry.  The engine itself maintains
    ["engine.events_fired"], ["engine.timers_armed"],
    ["engine.timers_cancelled"], ["engine.timers_fired"] and
    ["engine.procs_spawned"]; subsystems register their own instruments
    here so one JSON dump covers the whole stack. *)

val evlog : t -> Evlog.t
(** The world's structured event trace.  The engine emits ["proc.spawn"],
    ["proc.exit"] and ["proc.kill"] instants under component ["sim.engine"],
    plus ["proc.park"] and ["timer.fire"] when {!Evlog.detail} is enabled;
    subsystems record their own events here so one trace covers the whole
    stack.  Ring evictions are mirrored into the ["evlog.dropped_events"]
    counter of {!metrics}. *)

val spawn : t -> ?name:string -> ?at:Time.t -> (unit -> unit) -> proc
(** [spawn t f] schedules process [f] to start at the current time (or at
    [~at], which must not be in the past). *)

val run : ?until:Time.t -> t -> unit
(** Run events until the queue empties, [until] is passed, or {!stop}.
    Returns with the clock at the last fired event (or at [until]).  Firing
    an event allocates nothing beyond what the event itself does. *)

val stop : t -> unit
(** Ask the main loop to return after the event currently firing. *)

val pending_events : t -> int

val live_procs : t -> int
(** Number of processes spawned and not yet exited.  If [run] returns with
    live processes and no pending events, they are deadlocked. *)

(** {1 Operations usable only from inside a process} *)

val self : unit -> proc
(** The calling process.  Allocates only the continuation the effect
    runtime builds (2 words). *)

val sleep : Time.t -> unit
(** Suspend the calling process for a simulated duration.  Backed by a
    cancellable timer: if the process is {!kill}ed while asleep, the event
    that unwinds it cancels the wakeup rather than leaving it to rot until
    its deadline.  A sleep allocates its continuation, the box that parks
    it and the timer's wheel entry, 15 words, plus 3 per wheel level the
    timer cascades through; no closure, since the waker is built once per
    process. *)

val sleep_until : Time.t -> unit
(** Suspend the calling process until an absolute instant.  An instant at or
    before the current time yields (the process resumes at the current time,
    after events already scheduled at this instant). *)

type timeout_outcome = [ `Done | `Timeout ]

val with_timeout :
  at:Time.t -> (proc -> (unit -> unit) -> (unit -> unit)) -> timeout_outcome
(** [with_timeout ~at register] parks the calling process like {!suspend},
    but with a deadline.  [register p wake] must register [wake] with some
    wakeup source and return a [withdraw] thunk that un-registers it.

    If [wake] runs first the deadline timer is cancelled and the call
    returns [`Done].  If the deadline fires first, [withdraw] runs
    {e synchronously in the timer's event context} — so a wake arriving
    later (even at the same instant) is not consumed by this waiter — and
    the call returns [`Timeout].  Exactly one of the two wins; the loser's
    callback is inert.  A deadline at or before the current time still parks
    the process and times out at the current instant. *)

val suspend : (proc -> (unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling process and invokes
    [register p waker].  Calling [waker ()] makes [p] runnable at the
    then-current simulated time.  The waker belongs to this one park: once
    the park has ended (woken, timed out, killed), calling it again, from
    whatever queue still holds it, does nothing, even while [p] is parked
    again.  This is the primitive from which every blocking structure but
    {!Gate} is built; a park allocates its continuation, its box and the
    waker closure, plus what [register] allocates. *)

val suspend_on : Waitq.t -> unit
(** [suspend_on q] parks the calling process on [q] until a
    {!Waitq.wake_one} or {!Waitq.wake_all} reaches it: the same park, events
    and trace as [suspend (fun _ w -> ignore (Waitq.add q w))], but the
    process queues its own entry, built when it first runs, so the park
    allocates only its continuation and box.  A process killed while parked
    here leaves its entry queued: that entry takes one wake, as a waker
    would, and resumes nothing. *)

(** {1 Gates}

    Guarded waits for conditions that many broadcasts re-check. *)

module Gate : sig
  type t
  (** A FIFO of parked processes, each waiting for its own guard.  Creating
      one allocates a single record.  A {!wait} that parks allocates its
      continuation, the box that parks it and a 5-word entry; re-checks
      allocate nothing, and a {!broadcast} allocates a few words whatever
      the number of waiters.  An entry records the park it joined with,
      so a broadcast drops the entry of a process that has left that park
      (killed while parked) rather than claiming a later one. *)

  val create : unit -> t

  val wait : t -> ready:(unit -> bool) -> unit
  (** [wait g ~ready] returns at once if [ready ()] holds.  Otherwise it
      parks the calling process on [g] until a {!broadcast} finds
      [ready ()] true; a {!kill} unwinds it as from any other park.  The
      result is [while not (ready ()) do (* park on a wait queue *) done]
      with every {!broadcast} a [Waitq.wake_all] — same resumption order,
      same [proc.park] trace, same events except their count — but a
      broadcast that finds the guard false leaves the fiber parked.
      [ready] runs in event context: it must not perform effects or call
      {!self}. *)

  val broadcast : t -> unit
  (** Re-check every process parked on [g], in FIFO order.  A waiter whose
      guard holds (or that was killed) resumes; the rest stay parked, in
      order, behind any process that parked meanwhile.  The whole wave is
      one event, fired where waking each waiter separately would have
      fired the first of its events; {!stop} (or an exception escaping a
      resumed process) defers the rest of the wave, which the next {!run}
      fires before anything scheduled after this broadcast.  A waiter
      whose guard is false costs one call of [ready] and allocates
      nothing. *)
end

(** {1 Process management} *)

val kill : proc -> unit
(** Terminate a process.  If it is blocked it is resumed with {!Killed_exn}
    at the current time; if running, it dies at its next suspension point.
    Idempotent. *)

val join : proc -> exit_reason
(** Block until the given process exits and return its reason. *)

val on_exit : proc -> (exit_reason -> unit) -> unit
(** Register a callback to run (immediately, possibly from the dying
    process's own event) when the process exits.  If it already exited the
    callback runs now. *)

val status : proc -> exit_reason option
(** [None] while the process has not exited. *)

val pid : proc -> int
val engine_of_proc : proc -> t

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Run a raw callback (not a process: it must not suspend) at time [at],
    which must be neither in the past nor {!Time.never}.
    Fire-and-forget; prefer {!timer} when the event may become irrelevant
    before it fires. *)

(** {1 Cancellable timers}

    Timers live in a hierarchical timer wheel (see {!Twheel}): O(1) arm and
    cancel, and a cancelled timer's callback is guaranteed never to run.
    Timers and heap events share one [(time, seq)] key space, so
    introducing a timer does not perturb the deterministic event order. *)

val timer : t -> at:Time.t -> (unit -> unit) -> handle
(** Arm [f] to run as a raw callback (it must not suspend) at time [at].
    [at] must be neither in the past nor {!Time.never}. *)

val cancel : handle -> unit
(** O(1).  Idempotent; a no-op once the timer has fired.  After [cancel]
    returns the callback will never run. *)

val timer_armed : handle -> bool
(** True while the timer is armed: not yet fired and not cancelled. *)
