(** Physical-memory classification model (paper Fig. 1).

    The paper dumps the physical memory of a Linux machine running memcached
    and classifies every page by what happens if a detected-but-uncorrected
    memory error hits it, following the Linux hwpoison framework
    ([mm/memory-failure.c], Kleen [18]):

    - {b Ignored}: kernel pages Linux cannot recover — text, static data,
      slab (network buffers, inodes, dentries), page tables, per-CPU areas.
      An error here is fatal (or silently corrupting).
    - {b Delayed}: pages whose poisoning can be handled lazily — free pages,
      clean page cache — the kernel continues operating.
    - {b User}: anonymous user memory; an error kills the application.

    The model tracks bytes per class as a workload allocates, and can answer
    "what would a uniformly random memory error hit?". *)

type t

val create : ram_bytes:int -> t
(** Boot-time layout: kernel text/static and baseline slab are reserved as
    Ignored; everything else starts free (Delayed). *)

(** {1 Allocation events} *)

val alloc_user : t -> int -> unit
(** Anonymous user pages (e.g. memcached's item heap).  Page-table overhead
    (1/512 of the mapped size) is charged to Ignored automatically. *)

val free_user : t -> int -> unit

val alloc_slab : t -> int -> unit
(** Kernel slab: socket buffers, connection tracking, dentries — Ignored. *)

val alloc_page_cache : t -> int -> unit
(** Clean page cache — Delayed (recoverable). *)

val free_page_cache : t -> int -> unit

(** {1 Classification} *)

type classes = { ignored : int; delayed : int; user : int }
(** Bytes per class; they sum to [ram_bytes]. *)

val classify : t -> classes

val fractions : t -> float * float * float
(** [(ignored, delayed, user)] as fractions of total RAM. *)

type hit_outcome = Kernel_fatal | Recovered | App_killed

val hit_random_page : t -> Ftsim_sim.Prng.t -> hit_outcome
(** Outcome of a memory error on a uniformly random physical page. *)

exception Out_of_memory
