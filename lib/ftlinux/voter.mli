(** Majority voting across ≥3 replicas (paper §6, future work).

    Two-replica FT-Linux tolerates faults that hardware {e detects} (ECC,
    MCA).  Tolerating silent data corruption needs at least three replicas
    and a vote on outputs: each replica submits a digest of its n-th output
    unit; the voter releases a value once a majority agrees, and flags any
    replica that contradicts an established majority so it can be excluded
    (Triple Modular Redundancy in software).

    The voter is transport-agnostic: feed it digests from replicated
    [R_write] streams, packet checksums, or state snapshots. *)

type digest = int
(** Application-level output digest (e.g. [Hashtbl.hash] of the bytes). *)

type verdict =
  | Pending  (** no majority yet *)
  | Agreed of digest
  | Inconsistent  (** every replica differs: no majority possible *)

type t

val create : replicas:int -> t
(** [replicas] ≥ 3 and odd for a meaningful majority; raises otherwise
    unless [replicas = 2] (degenerate agreement-checking mode). *)

val submit : t -> replica:int -> seq:int -> digest -> unit
(** Record replica [replica]'s digest for output unit [seq].  A replica may
    submit each (replica, seq) pair once; duplicates raise. *)

val verdict : t -> seq:int -> verdict

val decided_prefix : t -> int
(** Largest [n] such that outputs [0..n-1] all have an [Agreed] verdict. *)

val divergent : t -> int list
(** Replicas that contradicted an [Agreed] majority at least once, sorted. *)

val is_faulty : t -> replica:int -> bool
