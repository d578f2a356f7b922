open Ftsim_sim
open Ftsim_netstack

type sock_impl = S_real of Tcp.conn | S_shadow of Shadow.conn
type sock = { mutable si : sock_impl }

type listener_impl =
  | L_real of Tcp.listener
  | L_shadow of { sh_port : int; sh_shard : int }

type listener = { mutable li : listener_impl }

type thread = Engine.proc

type err = [ `Eof | `Reset | `Badfd ]

let err_to_string = function
  | `Eof -> "EOF"
  | `Reset -> "ECONNRESET"
  | `Badfd -> "EBADF"

type net = {
  listen : port:int -> listener;
  listen_group :
    port:int ->
    shards:int ->
    backlog:int option ->
    overflow:Tcp.overflow ->
    listener list;
  accept : listener -> (sock, err) result;
  close_listener : listener -> unit;
  recv : sock -> max:int -> (Payload.chunk list, err) result;
  send : sock -> Payload.chunk -> (unit, err) result;
  close : sock -> unit;
  poll : sock list -> timeout:Time.t -> sock list;
}

type fs = {
  open_ : path:string -> create:bool -> Ftsim_kernel.Vfs.fd;
  read : Ftsim_kernel.Vfs.fd -> max:int -> (Payload.chunk list, err) result;
  append : Ftsim_kernel.Vfs.fd -> Payload.chunk -> unit;
  close : Ftsim_kernel.Vfs.fd -> unit;
  size : path:string -> int option;
}

type threads = {
  spawn : string -> (unit -> unit) -> thread;
  join : thread -> unit;
  compute : Time.t -> unit;
  gettimeofday : unit -> Time.t;
}

type env = { getenv : string -> string option }

type t = {
  kernel : Ftsim_kernel.Kernel.t;
  pt : Ftsim_kernel.Pthread.t;
  thread : threads;
  env : env;
  net : net;
  fs : fs;
}

type app = t -> unit
