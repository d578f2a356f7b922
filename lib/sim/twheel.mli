(** Hierarchical timer wheel: O(1) arm/cancel, deterministic expiry order.

    The wheel does not fire callbacks.  The owner drives it with {!advance}
    and drains expired entries from the due heap with {!pop_due}; entries
    become due in [(at, seq)] order, so an owner that merges the due heap
    with another [(at, seq)]-ordered source (the engine's event heap)
    preserves a single global deterministic order.  {!add} allocates its
    handle and nothing else; reads, {!advance} (cascades included) and
    {!pop_due} allocate nothing beyond the due heap's growth. *)

type 'a t
type 'a handle

(** An empty wheel at time 0. *)
val create : unit -> 'a t

(** Number of armed (neither fired nor cancelled) timers. *)
val live : 'a t -> int

(** Arm a timer at absolute time [at].  [seq] is the owner's tie-break key:
    entries expiring at the same instant become due in increasing [seq]
    order.  [at <= now t] is allowed; the entry is immediately due. *)
val add : 'a t -> at:Time.t -> seq:int -> 'a -> 'a handle

(** [cancel t h] disarms [h], a handle of [t].  O(1); idempotent; no-op
    after the timer has fired. *)
val cancel : 'a t -> 'a handle -> unit

val is_armed : 'a handle -> bool

(** A handle that belongs to no wheel and was never armed: {!is_armed} is
    false and {!cancel} a no-op.  A placeholder for a slot that holds one. *)
val unarmed : 'a handle

(** Earliest instant at which the wheel needs attention — an expired entry
    waiting in the due heap (returned as an instant [>= now t]) or an
    internal cascade step; {!Time.never} when no armed timers remain.  O(1).
    The owner must not advance simulated time past this point without
    calling {!advance}; up to just before it, {!advance} only moves the
    wheel's clock. *)
val next_event : 'a t -> Time.t

(** Move the wheel's clock to [upto], cascading slots and collecting entries
    with [at <= upto] into the due heap.  No callbacks run. *)
val advance : 'a t -> upto:Time.t -> unit

(** Expiry instant of the earliest armed due entry, skipping cancelled ones;
    {!Time.never} when none is due. *)
val due_at : 'a t -> Time.t

(** [seq] of that entry.  Call only after {!due_at} found one. *)
val due_seq : 'a t -> int

(** Pop the earliest armed due entry, marking it fired, and return its
    value.
    @raise Invalid_argument if none is due. *)
val pop_due : 'a t -> 'a
