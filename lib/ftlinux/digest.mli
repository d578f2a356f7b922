(** Incremental cross-replica state digests.

    The divergence checker's measurement substrate: each replica carries a
    recorder that folds the observable effects of execution into rolling
    hashes, snapshotting after every deterministic section so the two
    replicas' digest {e sequences} can be compared index-by-index.

    Soundness rests on the sharded core's ordering guarantees (§3.3, plus
    the per-channel refinement): sections on one {e channel} are totally
    ordered across replicas (chan_seq order), sections on distinct channels
    may interleave differently, and system-call results replay in
    per-thread FIFO order.  So the recorder keeps

    - a {b per-channel digest} per channel id, mutated only inside
      deterministic sections claiming that channel (under the channel
      mutex / the secondary's per-channel replay gate), and
    - a {b per-thread digest} per ft_pid, folded at each net/time syscall.

    At every [det_end] the section header (chan_seq, ft_pid, thread_seq,
    payload) {e and the ending thread's current per-thread digest} are
    folded into each claimed channel's digest, then a per-channel snapshot
    [(fold index, digest)] is recorded.  Because a thread's program order
    is identical on both replicas, its per-thread digest at a given section
    is comparable even though other threads' syscalls interleave
    differently.  With sharding off every section rides channel 0 and the
    scheme degenerates to the old single totally-ordered stream.

    After a failover the secondary {!seal}s its recorder at go-live: later
    snapshots reflect live (non-replayed) execution and are excluded from
    comparison.  Output-commit instants are recorded as {!mark_commit}
    marks against the recorder-wide section count (the {e epoch}), so a
    divergence can be reported relative to the last committed boundary. *)

type t

type snapshot = { snap_section : int; snap_digest : int }

val create : unit -> t

(** {1 Folding} *)

val mix : int -> int -> int
(** The underlying 62-bit mixer (splitmix-style finalizer); exposed for
    callers that pre-combine values before folding. *)

val fold_chan : t -> chan:int -> int -> unit
(** Mix a value into one channel's digest.  Call only inside a
    deterministic section that claims [chan] (the value is then totally
    ordered across replicas within that channel's stream). *)

val fold_string : t -> string -> unit
(** Mix a string into channel 0's digest.  Call only at points that are
    totally ordered across replicas (namespace setup, or inside a
    deterministic section on the misc channel). *)

val fold_thread : t -> ft_pid:int -> int -> unit
(** Mix a value into [ft_pid]'s per-thread digest (per-thread FIFO points:
    net/time syscall results). *)

val section_end :
  t ->
  ft_pid:int ->
  thread_seq:int ->
  chans:(int * int) list ->
  payload:Wire.det_payload ->
  unit
(** The [det_end] tap: folds the section header and the ending thread's
    per-thread digest into each claimed channel's digest ([chans] are the
    tuple's (channel, chan_seq) pairs), then snapshots each stream. *)

(** {1 Boundaries} *)

val mark_commit : t -> lsn:int -> unit
(** Record an output-commit boundary at the current epoch (total sections
    digested). *)

val seal : t -> unit
(** Stop the comparable region (secondary go-live): snapshots taken after
    [seal] are excluded from {!comparable}. *)

type cap
(** A point-in-time comparison boundary that — unlike {!seal} — does not
    stop the recorder: the digest keeps folding, and a comparison given
    the cap only walks the folds recorded at or before the capture.

    This is the promotion case of live re-protection: a survivor promoted
    at failover keeps recording (its post-promotion sections are part of
    the stream a regenerated backup replays, so they must stay
    comparable), but against the {e dead} primary's digest only the folds
    up to the promotion point are meaningful — beyond it the two
    histories legitimately differ (records staged on the dead primary but
    never delivered vs the survivor's new-epoch execution). *)

val capture : t -> cap
(** Capture the current per-channel and per-thread fold counts. *)

(** {1 Comparison} *)

val sections : t -> int
(** Total deterministic sections digested (the epoch). *)

val comparable : t -> (int * snapshot list) list
(** Per-channel snapshots in the comparable region, channels in id order,
    each stream oldest first.  Bounded: beyond an internal per-channel cap
    only the rolling digest keeps advancing. *)

val value : t -> int
(** Final combined digest: every per-channel digest in channel order plus
    every per-thread digest in ft_pid order.  Only meaningful to compare
    across replicas on quiescent runs with no failover (both replicas
    executed the full program). *)

type divergence = {
  at_section : int;
      (** first differing fold's index within the diverging channel or
          thread stream *)
  in_channel : int option;
      (** [Some channel] when the divergence is in a channel's section
          stream *)
  in_thread : int option;
      (** [Some ft_pid] when the divergence is in a thread's syscall-result
          sequence rather than a channel's section stream *)
  primary_digest : int;
  secondary_digest : int;
  after_commit_lsn : int option;
      (** the last primary output-commit boundary at or before the
          divergence (by primary epoch), if any output had committed *)
}

val compare_replicas : primary:t -> secondary:t -> divergence option
(** Index-by-index comparison over the shared comparable prefixes: first
    each shared channel's per-section snapshot stream (reporting the
    mismatch the primary digested earliest, which subsumes every
    output-commit boundary), then — because syscall results replay in
    per-thread FIFO order — each thread's per-fold snapshot sequence.  The
    latter covers syscall-heavy applications that rarely enter
    deterministic sections. *)

val compare_replicas_capped :
  secondary_cap:cap option -> primary:t -> secondary:t -> divergence option
(** {!compare_replicas}, additionally bounding the walk over [secondary]'s
    streams by a {!cap} (channels/threads first seen after the capture
    contribute nothing).  Used for the historical pair (dead primary,
    promoted survivor): the survivor's digest has grown past the
    promotion point, so the comparison must stop there. *)

val thread_folds : t -> ft_pid:int -> int
(** Syscall results folded into [ft_pid]'s digest so far. *)

val comparison_points : t -> int
(** All per-channel section folds plus all per-thread folds: the total
    number of points at which a divergence could be detected. *)
