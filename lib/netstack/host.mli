(** A client machine: plain engine environment, its own TCP stack, a NIC
    bound to one end of a link.  Used for the ApacheBench/wget-style load
    generators, which the paper runs on a separate machine across a 1 Gb/s
    link. *)

open Ftsim_sim

type t

val create : Engine.t -> ip:string -> Link.endpoint -> t

val stack : t -> Tcp.stack
val spawn : t -> string -> (unit -> unit) -> Engine.proc
