(** Machine topology descriptions.

    A commodity multicore machine is described by its sockets, cores, NUMA
    nodes and RAM.  Partitioning (see {!Partition}) carves this inventory
    into fault-independent units, following the paper's observation that "a
    CPU socket or a NUMA node can be considered as an independent failure
    unit". *)

type spec = {
  sockets : int;
  cores_per_socket : int;
  numa_nodes : int;
  ram_bytes : int;
}

val total_cores : spec -> int
val ram_per_node : spec -> int
val cores_per_node : spec -> int

val opteron_testbed : spec
(** The paper's evaluation machine: four AMD Opteron 6376 processors with 16
    cores each (64 cores total) and 128 GB of RAM split into 8 equally sized
    NUMA nodes. *)

val small : spec
(** A small 8-core 2-node machine, convenient for tests. *)

val validate : spec -> (unit, string) result
(** Check internal consistency (cores divisible across nodes, positive
    sizes). *)
