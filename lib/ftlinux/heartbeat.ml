open Ftsim_sim
open Ftsim_hw

(* Both halves run on cancellable engine timers rather than dedicated
   kernel threads: [stop] tears the detector down eagerly (no parked
   process lingering until its next period), which is what lets the event
   queue drain at shutdown.  Timers outlive the partition, so the send
   callback must absorb [Partition.Halted] — the moral equivalent of the
   old sender thread dying with its partition. *)
type t = {
  mutable stopped : bool;
  mutable send_h : Engine.handle option;
  mutable mon_h : Engine.handle option;
}

let start ?(name = "hb") ~spawn ~eng ~period ~timeout ~send ~last_peer
    ~on_failure () =
  if period <= 0 || timeout <= 0 then invalid_arg "Heartbeat.start";
  let t = { stopped = false; send_h = None; mon_h = None } in
  let ev = Engine.evlog eng in
  let rec arm_send seq ~at =
    t.send_h <-
      Some
        (Engine.timer eng ~at (fun () ->
             t.send_h <- None;
             if not t.stopped then begin
               (try
                  send ~seq;
                  if Evlog.detail ev then
                    Evlog.emit ev ~comp:"ft.heartbeat" "send"
                      ~args:
                        [ ("detector", Evlog.Str name); ("seq", Evlog.Int seq) ]
                with Partition.Halted _ -> t.stopped <- true);
               if not t.stopped then
                 arm_send (seq + 1) ~at:(Engine.now eng + period)
             end))
  in
  let rec arm_mon () =
    t.mon_h <-
      Some
        (Engine.timer eng ~at:(Engine.now eng + period) (fun () ->
             t.mon_h <- None;
             if not t.stopped then
               if Engine.now eng - last_peer () > timeout then begin
                 t.stopped <- true;
                 Evlog.emit ev ~pin:true ~comp:"ft.heartbeat" "failure_detected"
                   ~args:
                     [
                       ("detector", Evlog.Str name);
                       ("silence_ns", Evlog.Int (Engine.now eng - last_peer ()));
                     ];
                 (* [on_failure] may block (failover drains the log), so it
                    needs a process context; spawning on a halted partition
                    means the detector's own host is dead — stay silent. *)
                 try ignore (spawn "ft-hb-failure" on_failure)
                 with Partition.Halted _ -> ()
               end
               else arm_mon ()))
  in
  arm_send 0 ~at:(Engine.now eng);
  arm_mon ();
  t

let stop t =
  t.stopped <- true;
  (match t.send_h with Some h -> Engine.cancel h | None -> ());
  (match t.mon_h with Some h -> Engine.cancel h | None -> ());
  t.send_h <- None;
  t.mon_h <- None
