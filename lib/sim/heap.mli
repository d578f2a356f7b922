(** Array-backed binary min-heap, specialised to integer priorities.

    Used by the simulation engine as its event queue and by {!Twheel} as its
    due queue.  Ordering is lexicographic on [(prio, seq)]; callers that need
    FIFO behaviour among equal priorities pass increasing sequence numbers,
    as {!Engine} does.  Reads and pops allocate nothing. *)

type 'a t

val create : filler:'a -> unit -> 'a t
(** [filler] occupies every vacant slot, so a popped value is not kept
    reachable by the heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> prio:int -> seq:int -> 'a -> unit
(** [push h ~prio ~seq v] inserts [v].  Equal priorities pop in [seq]
    order. *)

val top_prio : 'a t -> int
(** Priority of the minimum entry; [max_int] when the heap is empty. *)

val top : 'a t -> 'a
(** Value of the minimum entry, left in place.
    @raise Invalid_argument if the heap is empty. *)

val top_seq : 'a t -> int
(** Sequence number of the minimum entry.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a
(** Remove the minimum entry and return its value.
    @raise Invalid_argument if the heap is empty. *)
