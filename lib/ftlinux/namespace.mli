(** FT-Namespace: the container that makes replication transparent.

    Applications launched inside an FT-Namespace are replicated on the
    secondary kernel (§3, "FT-Namespace"); applications outside it run
    normally.  Every namespace hands its application one syscall table
    ({!Api.t}), and each operation in it reads the namespace's role when
    it runs:

    - {!standalone} — direct execution (the "Ubuntu" baseline, and also how
      non-replicated applications run alongside a namespace);
    - {!primary} — records: pthread ops through deterministic sections,
      syscall results into the per-thread log, TCP logical-state deltas,
      output commit on egress;
    - {!secondary} — replays all of the above, and can {!go_live} at
      failover: a live survivor runs directly, a promoted one records like
      an original primary. *)

open Ftsim_netstack
open Ftsim_kernel

type t

val standalone :
  Kernel.t -> ?stack:Tcp.stack -> ?env:(string * string) list -> unit -> t

val primary :
  Kernel.t ->
  group:Msglayer.group ->
  ?stack:Tcp.stack ->
  ?env:(string * string) list ->
  ?det_shard:bool ->
  output_commit:bool ->
  unit ->
  t
(** Records into [group].  Installs pthread hooks and (when [stack] is
    given) TCP hooks.  [output_commit] is §3.5's rule: outbound data
    segments, and the ACKs of client input, wait until what precedes them
    is logged stably.  [det_shard]
    (default true) runs deterministic sections on per-object channels;
    [false] restores the namespace-global total order. *)

val secondary :
  Kernel.t -> ?env:(string * string) list -> ?det_shard:bool -> unit -> t
(** [env] must equal the primary's: the FT-Namespace launch procedure
    replicates the environment so both replicas start identically (§3).
    [det_shard] must match the primary's setting. *)

val record_handler : t -> Wire.record -> unit
(** The secondary's dispatch of incoming log records (pass to
    {!Msglayer.create_secondary}). *)

val start_app : t -> Api.app -> Api.thread
(** Launch the application's main thread in the namespace (ft_pid 0). *)

type promotion = {
  pr_group : Msglayer.group;
      (** where the promoted primary records: a fresh group that continues
          the replication journal at the survivor's replay point and
          journals alone until a regenerated backup joins it *)
  pr_output_commit : bool;
}

val go_live : t -> ?stack:Tcp.stack -> ?promote:promotion -> unit -> unit
(** Secondary, at failover: open every replay gate and, given the fresh
    [stack] that took over the NIC, make the shadow's TCP state real on
    it — re-listen each shadow listener group in the shard, backlog and
    overflow shape the replayed app registered, restore every live
    connection ({!Shadow.restore_all}), and requeue the restored
    connections the application never accepted onto their listeners in
    cid order.  Socket operations then run on [stack].

    With [promote], the survivor additionally becomes the next epoch's
    {e recording primary} (live re-protection): syscall results, TCP
    deltas and deterministic sections are recorded into [pr_group] exactly
    as an original primary would, continuing the old epoch's per-channel,
    per-thread and per-connection streams gaplessly — a backup regenerated
    later replays the journal from LSN 0 as one stream.  The digest is not
    sealed (see {!Det.promote}); callers bound comparisons against the dead
    primary with {!Digest.capture}.  Must be called at the quiesced point
    (replay idle). *)

val replay_idle : t -> bool
(** Secondary: replay has consumed everything delivered so far. *)

val go_solo : t -> unit
(** Primary, when every backup died: drop the TCP hooks (the caller also
    disables the message layer, releasing stability waiters). *)

val det_ops : t -> int

(** {1 Divergence checking} *)

val attach_digest : t -> Digest.t -> unit
(** Attach a divergence-checker recorder (see {!Digest}); folds the
    replicated launch environment immediately.  Must be called before
    {!start_app}. *)

val digest : t -> Digest.t option

val divergence : t -> string option
(** First replay divergence the secondary observed (a replayed record that
    did not match the application's behaviour), if any. *)

val mutate_skip_digest : t -> global_seq:int -> unit
(** Testing only: see {!Det.mutate_skip_digest}. *)

val chan_progress : t -> (int * int) list
(** Secondary: fresh cumulative per-channel replay cursors (see
    {!Det.chan_progress}); pass to {!Msglayer.create_secondary} so acks
    carry them. *)

val chan_restore : t -> (int * int) list -> unit
(** Secondary: re-mark cursors drained by {!chan_progress} when the ack
    that would have carried them could not be sent (see
    {!Det.chan_progress_restore}); pass to {!Msglayer.create_secondary}. *)

val chan_cursors : t -> (int * int * int) list
(** Every channel's [(channel, emitted, consumed)] cursors (pure read; see
    {!Det.chan_cursors}).  {!Lagmon} samples the primary's namespace. *)

val vfs_of : t -> Ftsim_kernel.Vfs.t
(** The namespace's local file system (replica-converged under replay). *)
