type spec = {
  sockets : int;
  cores_per_socket : int;
  numa_nodes : int;
  ram_bytes : int;
}

let total_cores s = s.sockets * s.cores_per_socket
let ram_per_node s = s.ram_bytes / s.numa_nodes
let cores_per_node s = total_cores s / s.numa_nodes

let gib n = n * 1024 * 1024 * 1024

let opteron_testbed =
  { sockets = 4; cores_per_socket = 16; numa_nodes = 8; ram_bytes = gib 128 }

let small = { sockets = 2; cores_per_socket = 4; numa_nodes = 2; ram_bytes = gib 8 }

let validate s =
  if s.sockets <= 0 || s.cores_per_socket <= 0 then Error "no cores"
  else if s.numa_nodes <= 0 then Error "no NUMA nodes"
  else if s.ram_bytes <= 0 then Error "no RAM"
  else if total_cores s mod s.numa_nodes <> 0 then
    Error "cores not evenly divisible across NUMA nodes"
  else if s.ram_bytes mod s.numa_nodes <> 0 then
    Error "RAM not evenly divisible across NUMA nodes"
  else Ok ()
