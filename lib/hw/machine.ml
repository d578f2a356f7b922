open Ftsim_sim

type t = {
  eng : Engine.t;
  spec : Topology.spec;
  mutable parts : Partition.t list;
  mutable next_part_id : int;
  mutable used_cores : int;
  mutable used_ram : int;
  mutable used_nodes : int list;
  mutable mca_subs : (Fault.event -> unit) list;
  mutable coherency_hooks : (int * (unit -> int)) list;
  mutable events : Fault.event list;
}

let log = Trace.make "hw.machine"

let create eng spec =
  (match Topology.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Machine.create: " ^ e));
  {
    eng;
    spec;
    parts = [];
    next_part_id = 0;
    used_cores = 0;
    used_ram = 0;
    used_nodes = [];
    mca_subs = [];
    coherency_hooks = [];
    events = [];
  }

let engine t = t.eng
let spec t = t.spec

let find_partition t pid =
  List.find_opt (fun p -> Partition.id p = pid) t.parts

let free_cores t = Topology.total_cores t.spec - t.used_cores
let free_ram t = t.spec.Topology.ram_bytes - t.used_ram

let add_partition t ~name ~cores ~ram_bytes ~numa_nodes =
  if cores > free_cores t then invalid_arg "Machine.add_partition: not enough cores";
  if ram_bytes > free_ram t then invalid_arg "Machine.add_partition: not enough RAM";
  List.iter
    (fun n ->
      if n < 0 || n >= t.spec.Topology.numa_nodes then
        invalid_arg "Machine.add_partition: bad NUMA node";
      if List.mem n t.used_nodes then
        invalid_arg "Machine.add_partition: NUMA node already assigned")
    numa_nodes;
  t.next_part_id <- t.next_part_id + 1;
  let p =
    Partition.create t.eng ~id:t.next_part_id ~name ~cores ~ram_bytes ~numa_nodes
  in
  t.used_cores <- t.used_cores + cores;
  t.used_ram <- t.used_ram + ram_bytes;
  t.used_nodes <- numa_nodes @ t.used_nodes;
  t.parts <- p :: t.parts;
  p

let split_symmetric t =
  let half_cores = Topology.total_cores t.spec / 2 in
  let half_ram = t.spec.Topology.ram_bytes / 2 in
  let half_nodes = t.spec.Topology.numa_nodes / 2 in
  let nodes_a = List.init half_nodes Fun.id in
  let nodes_b = List.init half_nodes (fun i -> half_nodes + i) in
  let a =
    add_partition t ~name:"primary" ~cores:half_cores ~ram_bytes:half_ram
      ~numa_nodes:nodes_a
  in
  let b =
    add_partition t ~name:"secondary" ~cores:half_cores ~ram_bytes:half_ram
      ~numa_nodes:nodes_b
  in
  (a, b)

let split_asymmetric t ~primary_cores =
  let total = Topology.total_cores t.spec in
  if primary_cores >= total then
    invalid_arg "Machine.split_asymmetric: no cores left for secondary";
  let nodes = t.spec.Topology.numa_nodes in
  let primary_nodes = List.init (nodes - 1) Fun.id in
  let a =
    add_partition t ~name:"primary" ~cores:primary_cores
      ~ram_bytes:(t.spec.Topology.ram_bytes / 2)
      ~numa_nodes:primary_nodes
  in
  let b =
    add_partition t ~name:"secondary" ~cores:1
      ~ram_bytes:(Topology.ram_per_node t.spec)
      ~numa_nodes:[ nodes - 1 ]
  in
  (a, b)

let recommission t part ~name =
  if not (Partition.is_halted part) then
    invalid_arg "Machine.recommission: partition still live";
  if not (List.exists (fun p -> Partition.id p = Partition.id part) t.parts)
  then invalid_arg "Machine.recommission: unknown partition";
  (* Return the dead slice's inventory, then carve a replacement on the
     same cores/RAM/NUMA nodes under a fresh id.  The halted partition
     stays in the fault log's history but leaves the live table, so
     faults aimed at its old id are ignored as "unknown partition". *)
  let nodes = Partition.numa_nodes part in
  t.parts <- List.filter (fun p -> Partition.id p <> Partition.id part) t.parts;
  t.used_cores <- t.used_cores - Partition.cores part;
  t.used_ram <- t.used_ram - Partition.ram_bytes part;
  t.used_nodes <- List.filter (fun n -> not (List.mem n nodes)) t.used_nodes;
  Trace.infof log ~eng:t.eng
    "recommission: partition %d (%s) released; rebooting as %s"
    (Partition.id part) (Partition.name part) name;
  add_partition t ~name ~cores:(Partition.cores part)
    ~ram_bytes:(Partition.ram_bytes part) ~numa_nodes:nodes

let on_machine_check t f = t.mca_subs <- f :: t.mca_subs

let on_coherency_loss t ~partition_id h =
  t.coherency_hooks <- (partition_id, h) :: t.coherency_hooks

let apply t (f : Fault.t) =
  match find_partition t f.Fault.partition_id with
  | None ->
      Trace.warnf log ~eng:t.eng "fault for unknown partition %d ignored"
        f.Fault.partition_id
  | Some victim ->
      if Partition.is_halted victim then ()
      else begin
        let ev =
          {
            Fault.time = Engine.now t.eng;
            partition_id = f.Fault.partition_id;
            fault_kind = f.Fault.kind;
            detected_by = Fault.detection_of_kind f.Fault.kind;
          }
        in
        t.events <- ev :: t.events;
        Trace.warnf log ~eng:t.eng "%a" Fault.pp_event ev;
        if f.Fault.disrupts_coherency then begin
          (* Hooks report how many in-flight messages they actually lost;
             disruption of empty rings is a no-op end to end, so injecting
             [disrupts_coherency:true] is always safe for callers. *)
          let lost =
            List.fold_left
              (fun acc (pid, h) ->
                if pid = f.Fault.partition_id then acc + h () else acc)
              0 t.coherency_hooks
          in
          if lost > 0 then
            Trace.warnf log ~eng:t.eng
              "coherency disruption lost %d in-flight message(s)" lost
        end;
        Partition.halt victim;
        if ev.Fault.detected_by = Fault.Mca then
          List.iter (fun sub -> sub ev) t.mca_subs
      end

let inject t f = Engine.schedule t.eng ~at:f.Fault.at (fun () -> apply t f)

let inject_all t fs = List.iter (inject t) fs

let fault_log t = List.rev t.events
