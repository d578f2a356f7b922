open Ftsim_sim

type t = {
  sem : Sync.Semaphore.t;
  cores : int;
  quantum : Time.t;
  busy : Metrics.Counter.t;
}

let create _eng ~cores ?(quantum = Time.ms 1) () =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  if quantum <= 0 then invalid_arg "Cpu.create: quantum must be positive";
  { sem = Sync.Semaphore.create cores; cores; quantum; busy = Metrics.Counter.create () }

(* Release and re-acquire between quanta: with a FIFO semaphore this yields
   round-robin among contending threads. *)
let consume t d =
  if d < 0 then invalid_arg "Cpu.consume: negative duration";
  let remaining = ref d in
  while !remaining > 0 do
    let slice = min !remaining t.quantum in
    Sync.Semaphore.acquire t.sem;
    Engine.sleep slice;
    Metrics.Counter.add t.busy slice;
    Sync.Semaphore.release t.sem;
    remaining := !remaining - slice
  done

let busy_ns t = Metrics.Counter.value t.busy

let utilization t ~elapsed =
  if elapsed <= 0 then 0.0
  else float_of_int (busy_ns t) /. (float_of_int t.cores *. float_of_int elapsed)
