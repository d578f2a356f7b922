open Ftsim_sim

let latency = Time.us 1

let log = Trace.make "hw.ipi"

let send_halt eng target =
  Engine.schedule eng ~at:(Engine.now eng + latency) (fun () ->
      if not (Partition.is_halted target) then begin
        Trace.warnf log ~eng "IPI halt delivered to %s" (Partition.name target);
        Partition.halt target
      end)
