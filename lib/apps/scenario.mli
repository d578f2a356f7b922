(** One experiment's plumbing, shared by the bench harness and the [ftsim]
    CLI: a server, standalone or replicated, on an optional 1 Gb/s link; a
    client host at the link's far end; the drive loop; and one runner per
    client — PBZIP2 to completion, closed-loop ApacheBench over a
    measurement window, and wget to completion.  Each runner shuts the
    server down when its run ends. *)

open Ftsim_sim
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

val mib : int -> int
(** [mib n] is [n] MiB in bytes. *)

val server_ip : string
(** 10.0.0.1, where {!start} puts the server. *)

val gbit_link : Engine.t -> Link.t
(** The paper's client link: 1 Gb/s, 100 µs one way, lossless. *)

val drive : Engine.t -> cap:Time.t -> stop:(unit -> bool) -> unit
(** Run in 100 ms slices until [stop ()] holds, the clock reaches [cap], or
    the engine has nothing left to fire. *)

(** {1 The server} *)

type server =
  | Standalone  (** one partition running the application directly *)
  | Replicated of Cluster.config

type t = {
  eng : Engine.t;
  link : Link.t option;
  cluster : Cluster.t option;  (** [None] for a standalone server *)
  kernel : Kernel.t;  (** the standalone's kernel, or the primary's *)
}

val start :
  Engine.t -> ?link:Link.t -> ?fail_at:Time.t -> server -> app:Api.app -> t
(** Boot the server as {!server_ip} on [link]'s A end (no network without
    [link]), and with [fail_at], schedule the primary's fail-stop (a
    standalone server has no primary to kill). *)

val client : t -> Host.t
(** A client host, 10.0.0.9, on the B end of the server's link. *)

val stop : t -> unit
(** Shut the cluster down, if there is one. *)

val traffic : t -> int * int
(** Inter-replica messages and bytes so far; [(0, 0)] standalone. *)

(** {1 Runners} *)

type completion = {
  started : t;
  done_at : Time.t option;
      (** when the serving replica's copy finished; [None] at [cap] *)
  blocks : Metrics.Series.t;
      (** the serving replica's block commits, in 250 ms buckets *)
}

val pbzip2 :
  Engine.t -> ?fail_at:Time.t -> cap:Time.t -> server -> Pbzip2.params ->
  completion
(** Compress to completion or [cap].  The serving replica is the primary,
    or once the primary partition is down, the backup that took over. *)

type window = {
  ops : int;  (** requests completed inside the window *)
  msgs : int;  (** inter-replica messages inside the window *)
  bytes : int;
  latency : Metrics.Hist.t;  (** every request's latency, in seconds *)
}

val ab :
  t -> target:string -> concurrency:int -> warmup:Time.t -> until:Time.t ->
  window
(** Closed-loop ApacheBench from a fresh client, offered from now and
    counted over [warmup .. until]. *)

val wget : t -> target:string -> cap:Time.t -> Loadgen.wget
(** Download [target] from a fresh client to completion or [cap]. *)

val write_trace : prog:string -> Evlog.t -> string -> unit
(** Export [ev] to [path]: JSONL if the path ends in .jsonl, else Chrome
    trace_event JSON.  A file that cannot be written is reported on stderr
    as ["<prog>: cannot write trace: ..."]. *)
