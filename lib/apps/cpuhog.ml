open Ftsim_sim
open Ftsim_kernel

type t = { mutable stopped : bool }

let start kernel ~threads =
  let t = { stopped = false } in
  for i = 1 to threads do
    ignore
      (Kernel.spawn_thread kernel
         ~name:(Printf.sprintf "cpuhog-%d" i)
         (fun () ->
           let slice = Time.ms 1 in
           while not t.stopped do
             Kernel.compute kernel slice
           done))
  done;
  t

let stop t = t.stopped <- true
