(** The POSIX-like surface replicated applications are written against.

    Transparency is the paper's headline property: the {e same} application
    code runs unreplicated (the Ubuntu baseline), as the primary replica, or
    as the replaying secondary — only the [Api.t] implementation behind it
    changes (mirroring LD_PRELOAD interposition plus in-kernel syscall
    interception).  Applications in {!Ftsim_apps} take an [Api.t] and use
    nothing else.

    The surface is grouped into sub-records ([net], [fs], [thread], [env])
    and stream operations report end-of-stream and failure through an
    errno-style [result] instead of the old [[] = EOF] convention and
    exceptions.  This one choke point is also where the replica-divergence
    digests tap the syscall stream. *)

open Ftsim_sim
open Ftsim_netstack

type sock_impl = S_real of Tcp.conn | S_shadow of Shadow.conn
type sock = { mutable si : sock_impl }

type listener_impl =
  | L_real of Tcp.listener
  | L_shadow of { sh_port : int; sh_shard : int }
      (** one shard of a listener group on the replaying secondary: no real
          socket exists until go-live re-creates the group *)

type listener = { mutable li : listener_impl }

type thread = Engine.proc

type err = [ `Eof | `Reset | `Badfd ]
(** errno-style failures surfaced by stream operations:
    [`Eof] = orderly end of stream (0-byte read),
    [`Reset] = connection reset/closed under the caller ([ECONNRESET]),
    [`Badfd] = operation on an invalid descriptor ([EBADF]). *)

val err_to_string : err -> string

(** Network operations.  [recv] never returns [Ok []]: it blocks until data
    is available and reports end-of-stream as [Error `Eof].  Replicated:
    the primary logs each result (including error outcomes) into the
    per-thread syscall stream so the secondary replays the same sequence. *)
type net = {
  listen : port:int -> listener;
  listen_group :
    port:int ->
    shards:int ->
    backlog:int option ->
    overflow:Tcp.overflow ->
    listener list;
      (** SO_REUSEPORT-style group: one listener per shard, SYNs routed by
          4-tuple hash ({!Tcp.shard_of_tuple}).  [listen ~port] is the
          [shards = 1], unbounded-backlog special case. *)
  accept : listener -> (sock, err) result;
      (** Block for the next connection on this shard; [Error `Reset] when
          the listener has been closed.  Replicated: the primary logs each
          outcome into the accepting thread's syscall stream. *)
  close_listener : listener -> unit;
  recv : sock -> max:int -> (Payload.chunk list, err) result;
  send : sock -> Payload.chunk -> (unit, err) result;
  close : sock -> unit;
  poll : sock list -> timeout:Time.t -> sock list;
      (** epoll-style readiness wait over the given sockets; [[]] on
          timeout.  Replicated: the primary logs which indices were ready
          and the secondary replays them (§3.2). *)
}

(** File system (§6 extension): each replica owns a local Vfs whose state
    converges through deterministic replay — operations are ordered by
    deterministic sections and read lengths are logged.  [read] reports
    end-of-file as [Error `Eof] and a stale descriptor as [Error `Badfd]. *)
type fs = {
  open_ : path:string -> create:bool -> Ftsim_kernel.Vfs.fd;
  read : Ftsim_kernel.Vfs.fd -> max:int -> (Payload.chunk list, err) result;
  append : Ftsim_kernel.Vfs.fd -> Payload.chunk -> unit;
  close : Ftsim_kernel.Vfs.fd -> unit;
  size : path:string -> int option;
}

(** Thread and time operations. *)
type threads = {
  spawn : string -> (unit -> unit) -> thread;
  join : thread -> unit;
  compute : Time.t -> unit;  (** CPU-bound work *)
  gettimeofday : unit -> Time.t;
}

(** Launch environment, replicated into the FT-Namespace (§3). *)
type env = { getenv : string -> string option }

type t = {
  kernel : Ftsim_kernel.Kernel.t;
  pt : Ftsim_kernel.Pthread.t;  (** pthread library (hooked when replicated) *)
  thread : threads;
  env : env;
  net : net;
  fs : fs;
}

type app = t -> unit
(** An application entry point ("main"). *)
