(** Memcached, in two roles.

    {b Memory model} (paper Fig. 1): the paper runs memcached under a
    CloudSuite load generator at dataset multipliers 3×–180× and classifies
    a physical-memory dump.  [apply_load] reproduces the footprint on a
    {!Ftsim_kernel.Memlayout}: anonymous user memory for the item heap,
    kernel slab for sockets/connection tracking (scaling with offered
    load), and a modest page cache.  Coefficients are calibrated so the
    180× point lands on the paper's ≈15 % Ignored / 20 % Delayed / 65 %
    User split; the shape across multipliers then follows from the model.

    {b Server} (for examples): a small text-protocol key-value cache
    runnable on the replicated API. *)

open Ftsim_netstack
open Ftsim_ftlinux

(** {1 Memory model} *)

type footprint = { user_bytes : int; slab_bytes : int; page_cache_bytes : int }

val apply_load : Ftsim_kernel.Memlayout.t -> multiplier:int -> unit
(** Allocate the footprint on the layout.  Raises
    [Ftsim_kernel.Memlayout.Out_of_memory] if the dataset does not fit. *)

(** {1 Key-value server} *)

type params = {
  port : int;
  worker_threads : int;
  lock_stripes : int;
      (** store-lock stripes (default 1 = one global store mutex); each
          stripe's mutex is its own replicated sync object, so the sharded
          det core streams distinct stripes on distinct channels *)
  listen_shards : int;
      (** accept-queue shards ({!Tcp.listen_group}); 1 = the classic
          single listener on the app-main thread *)
  accept_backlog : int option;  (** per-shard backlog bound; [None] = unbounded *)
  overflow : Tcp.overflow;  (** SYN fate when a shard's backlog is full *)
  admission : int option;
      (** concurrent-connection budget ({!Admission}); saturated
          connections get ["BUSY\r\n"] and a close; [None] = admission
          off *)
}

val default_params : params

val server : ?params:params -> Api.app
(** Protocol, line-oriented over TCP:
    ["set <key> <nbytes>\r\n<nbytes of value>"] → ["STORED\r\n"];
    ["get <key>\r\n"] → ["VALUE <nbytes>\r\n<value>"] or ["MISS\r\n"];
    ["quit\r\n"] closes. *)
