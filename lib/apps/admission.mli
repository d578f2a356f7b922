(** Admission control: a bounded in-flight work budget for the server apps.

    Saturated servers answer with an explicit load-shed response (HTTP 503,
    memcached [BUSY]) instead of queueing without bound, so overload
    degrades tail latency gracefully rather than collapsing the service.

    Deterministic under replication: the budget lives behind a replicated
    {!Ftsim_kernel.Pthread} mutex, so admit/shed decisions replay in the
    same order on the secondary — the invariant is that a decision is a
    pure function of replicated lock-acquisition order, never of wall-clock
    load observation. *)

open Ftsim_ftlinux

type t

val create : Api.t -> ?name:string -> limit:int -> unit -> t
(** A controller allowing at most [limit] in-flight units of work.
    [name] scopes the [admission.<kernel>.<name>.{admitted,shed}]
    counters. *)

val try_admit : t -> bool
(** Claim a slot: [true] = admitted (caller must {!release}),
    [false] = saturated (caller sheds). *)

val release : t -> unit
