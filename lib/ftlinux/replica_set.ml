open Ftsim_hw

type lifecycle = Protected | Degraded | Regenerating | Outage

let lifecycle_label = function
  | Protected -> "protected"
  | Degraded -> "degraded"
  | Regenerating -> "regenerating"
  | Outage -> "outage"

type role = Primary | Backup

let role_label = function Primary -> "primary" | Backup -> "backup"

type member = {
  m_role : role;
  m_epoch : int;  (* epoch at which this replica joined the set *)
  m_partition : Partition.t;
}
