(** Blocking synchronization for simulated processes: mutexes and counting
    semaphores.

    These are the *simulation-level* primitives used to build the model
    itself.  The kernel's pthread layer ({!Ftsim_kernel.Pthread}) is a
    separate, futex-based implementation — the thing the paper replicates —
    and does not use this module.  A wait on a condition that many
    broadcasts re-check belongs on an {!Engine.Gate}, whose broadcast
    re-checks every waiter in one event. *)

type outcome = [ `Woken | `Timeout ]

val wait_on : ?deadline:Time.t -> Waitq.t -> outcome
(** Park the calling process on a wait queue.  If [deadline] passes first the
    entry is cancelled (so it will not consume a wake) and [`Timeout] is
    returned. *)

module Mutex : sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  val is_locked : t -> bool

  val with_lock : t -> (unit -> 'a) -> 'a
end

module Semaphore : sig
  type t

  val create : int -> t
  val acquire : t -> unit
  val try_acquire : t -> bool
  val release : t -> unit
end
