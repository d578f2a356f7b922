open Ftsim_sim
open Ftsim_hw

(* Uncontended pthread operation. *)
let pthread_op_cost = Time.ns 200

(* Offset [gettimeofday] adds to the simulated clock, so wall-clock values
   are non-zero at boot. *)
let boot_epoch = Time.sec 1_000_000

type t = { part : Partition.t; cpu : Cpu.t; futexes : Futex.table }

let boot part () =
  Partition.check_alive part;
  {
    part;
    cpu = Cpu.create (Partition.engine part) ~cores:(Partition.cores part) ();
    futexes = Futex.create_table ~eng:(Partition.engine part) ();
  }

let partition t = t.part
let engine t = Partition.engine t.part
let cpu t = t.cpu
let futexes t = t.futexes
let name t = Partition.name t.part

let spawn_thread t ?name f = Partition.spawn t.part ?proc_name:name f

let compute t d = Cpu.consume t.cpu d

let pthread_op _t = Engine.sleep pthread_op_cost

let gettimeofday t = Engine.now (engine t) + boot_epoch
