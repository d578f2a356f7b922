(** The replica-lifecycle vocabulary of {!Cluster}: a set is in one
    lifecycle state, runs at one epoch, and is made of members each
    carrying [(role, epoch)]. *)

open Ftsim_hw

type lifecycle =
  | Protected  (** every planned replica is live and replicating *)
  | Degraded
      (** the last backup died, or a backup took over from the primary;
          the survivor serves alone — outputs release unprotected until
          re-protection completes *)
  | Regenerating
      (** a fresh backup is booting/catching up while the primary keeps
          serving; ends in [Protected] (epoch switch) or back in
          [Degraded] (regeneration target died — clean abort) *)
  | Outage  (** no replica can serve *)

val lifecycle_label : lifecycle -> string

type role = Primary | Backup

val role_label : role -> string

type member = {
  m_role : role;
  m_epoch : int;  (** epoch at which this replica joined the set *)
  m_partition : Partition.t;
}
