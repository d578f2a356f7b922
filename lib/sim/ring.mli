(** Growable FIFO rings.

    The storage behind {!Bqueue} and the mailbox's propagation window.  A
    ring starts empty and doubles when full; a {!push} allocates nothing
    beyond that growth, a {!pop} nothing, and a popped slot is cleared, so
    a value is reachable only through whoever popped it. *)

type 'a t

val create : unit -> 'a t
(** An empty ring; its storage is allocated at the first {!push}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back. *)

val pop : 'a t -> 'a
(** Remove and return the front value.
    @raise Invalid_argument if the ring is empty. *)
