(* Admission control for the serving path: a bounded in-flight budget so
   overload degrades into explicit load-shed responses instead of unbounded
   queueing.

   Replication: the budget counter is touched only inside critical sections
   of a replicated pthread mutex, so the lock-acquisition order — and with
   it every admit/shed decision — rides the sync-tuple stream and replays
   identically on the secondary.  No new wire records are needed. *)

open Ftsim_sim
open Ftsim_kernel
open Ftsim_ftlinux

type t = {
  pt : Pthread.t;
  mu : Pthread.mutex;
  limit : int;
  mutable in_flight : int;
  m_admitted : Metrics.Counter.t;
  m_shed : Metrics.Counter.t;
}

let create (api : Api.t) ?(name = "server") ~limit () =
  if limit < 1 then invalid_arg "Admission.create: limit must be >= 1";
  let reg = Engine.metrics (Kernel.engine api.Api.kernel) in
  (* Metric names are scoped by kernel so the primary's and the replaying
     secondary's controllers chart separately instead of double-counting. *)
  let m what =
    Metrics.Registry.counter reg
      (Printf.sprintf "admission.%s.%s.%s" (Kernel.name api.Api.kernel) name what)
  in
  {
    pt = api.Api.pt;
    mu = Pthread.mutex_create api.Api.pt;
    limit;
    in_flight = 0;
    m_admitted = m "admitted";
    m_shed = m "shed";
  }

let try_admit t =
  Pthread.mutex_lock t.pt t.mu;
  let ok = t.in_flight < t.limit in
  if ok then t.in_flight <- t.in_flight + 1;
  Pthread.mutex_unlock t.pt t.mu;
  if ok then Metrics.Counter.incr t.m_admitted
  else Metrics.Counter.incr t.m_shed;
  ok

let release t =
  Pthread.mutex_lock t.pt t.mu;
  if t.in_flight > 0 then t.in_flight <- t.in_flight - 1;
  Pthread.mutex_unlock t.pt t.mu
