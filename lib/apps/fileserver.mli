(** The in-house HTTP file server of the failover experiment (paper §4.4):
    a light-weight server that listens for connections and streams a large
    file to each, chosen by the paper precisely because its overheads are
    easy to break down. *)

open Ftsim_netstack
open Ftsim_ftlinux

type params = {
  port : int;
  file_bytes : int;  (** paper: 10 GB *)
  chunk_bytes : int;  (** application write size *)
  read_ns_per_byte : int;  (** file-system read cost *)
  listen_shards : int;
      (** accept-queue shards ({!Tcp.listen_group}); 1 = the classic
          single listener on the app-main thread *)
  accept_backlog : int option;  (** per-shard backlog bound; [None] = unbounded *)
  overflow : Tcp.overflow;  (** SYN fate when a shard's backlog is full *)
  admission : int option;
      (** concurrent-transfer budget ({!Admission}); saturated requests get
          a zero-body HTTP 503 and a close; [None] = admission off *)
}

val default_params : params

val run : ?params:params -> Api.app
(** Serve file downloads forever, one connection-handling thread per
    accepted connection. *)
