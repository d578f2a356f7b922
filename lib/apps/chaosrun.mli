(** Workload scenario runner for chaos campaigns.

    Builds one complete simulation per schedule — a replicated server
    {!Cluster} of [replicas] (two, or three on a four-node machine), a
    client host across the modelled
    1 Gb/s link, the workload application, and a {!Loadgen.verified_start}
    client-consistency oracle — applies the schedule's fault injections and
    link-perturbation windows, runs to quiescence, and judges the run:
    replica-digest comparison and replay-divergence flags decide
    [V_divergence]; the oracle decides [V_client_violation]; a run that
    killed every replica is an [V_outage] (excusing a truncated client
    stream).  Runs are a pure function of the schedule's seed. *)

open Ftsim_sim
open Ftsim_ftlinux

type workload = Fileserver | Mongoose

val workload_of_string : string -> (workload, string) result
val workload_to_string : workload -> string

val config :
  ?det_shard:bool ->
  ?replay_workers:int ->
  ?reprotect:bool ->
  ?regen_delay:Time.t ->
  replicas:int ->
  unit ->
  Cluster.config
(** The cluster config {!run} builds: 5/25 ms heartbeats, a 200 ms driver
    reload and a quiet {!Lagmon} on a small machine (a four-node one for
    three replicas).  The knobs and their defaults are {!run}'s; pass the
    result to {!Cluster.check_config} to reject a shape before any run. *)

val run :
  ?on_trace:(Evlog.t -> unit) ->
  ?stats_interval:Time.t ->
  ?mutate:bool ->
  ?det_shard:bool ->
  ?replay_workers:int ->
  ?reprotect:bool ->
  ?regen_delay:Time.t ->
  ?listen_shards:int ->
  ?admission:int ->
  workload:workload ->
  replicas:int ->
  Chaos.schedule ->
  Chaos.outcome
(** [on_trace] receives the run's event log after the verdict is reached
    (used to dump the minimal repro's trace).  [stats_interval] arms a
    {!Statsdump} printer on each run's engine (stderr, labelled with the
    schedule index).  [mutate] (testing only) makes the secondary skip one
    sync tuple's digest fold, proving the checker detects a seeded
    divergence.  [det_shard], [replay_workers] and [reprotect] default to
    {!Cluster.default_config}'s.  [det_shard] (true there) selects the
    per-channel deterministic-section core; [false] restores the
    namespace-global total order.  [replay_workers] (1 there) sizes the
    backups' replay-executor pools (see {!Cluster.config}).

    Every injection resolves its target partition {e at fire time} through
    the cluster's accessors ([T_backup i] names backup [i mod (replicas -
    1)]), and a fault landing on an already-halted target is a no-op.  The
    run's failover count and outage test come from
    {!Cluster.failover_count} and {!Cluster.all_halted}.

    [reprotect] (false there; two replicas only — {!Cluster.create}
    raises with three) turns on live re-protection with a [regen_delay]
    dwell (default 50 ms); roles then move across failovers and epoch
    switches, and injections follow them.  Pair with
    {!Chaos.derive_multi} schedules to exercise kill → regenerate cycles
    of arbitrary length.

    [listen_shards] (default 1) runs the workload server on a
    {!Ftsim_netstack.Tcp.listen_group} of that many accept-queue shards;
    [admission] arms its {!Admission} controller with the given in-flight
    budget and the oracle's [allow_shed] retry path.  The oracle is a
    single sequential connection, so any admission limit admits it — the
    knobs stress the replicated accept/shed machinery under chaos without
    weakening the exactly-once check.

    Every run monitors replication health with a quiet {!Lagmon} (gauges
    and verdicts update, nothing reaches the Evlog — repro traces stay
    byte-identical to monitor-off runs); the worst verdict label lands in
    the outcome's [o_lag]. *)
