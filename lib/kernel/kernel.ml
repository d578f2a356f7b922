open Ftsim_sim
open Ftsim_hw

type config = {
  quantum : Time.t;
  wake_latency : Time.t;
  pthread_op_cost : Time.t;
  syscall_cost : Time.t;
  boot_epoch : Time.t;
}

let default_config =
  {
    quantum = Time.ms 1;
    wake_latency = Time.us 55;
    pthread_op_cost = Time.ns 200;
    syscall_cost = Time.ns 300;
    boot_epoch = Time.sec 1_000_000;
  }

type t = {
  part : Partition.t;
  cpu : Cpu.t;
  futexes : Futex.table;
  cfg : config;
}

let boot part ?(config = default_config) () =
  Partition.check_alive part;
  {
    part;
    cpu =
      Cpu.create (Partition.engine part) ~cores:(Partition.cores part)
        ~quantum:config.quantum ();
    futexes = Futex.create_table ~eng:(Partition.engine part) ();
    cfg = config;
  }

let partition t = t.part
let engine t = Partition.engine t.part
let cpu t = t.cpu
let futexes t = t.futexes
let config t = t.cfg
let name t = Partition.name t.part

let spawn_thread t ?name f = Partition.spawn t.part ?proc_name:name f

let compute t d = Cpu.consume t.cpu d

let small_op _t d = if d > 0 then Engine.sleep d

let gettimeofday t = Engine.now (engine t) + t.cfg.boot_epoch
