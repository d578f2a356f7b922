open Ftsim_sim
open Ftsim_hw

let default_driver_load_time = Time.ms 4950

type t = {
  eng : Engine.t;
  ep : Link.endpoint;
  driver_load_time : Time.t;
  mutable owner : Partition.t option;
  mutable up : bool;
}

let log = Trace.make "net.nic"

let create eng ?(driver_load_time = default_driver_load_time) ep =
  let t = { eng; ep; driver_load_time; owner = None; up = false } in
  Link.set_receiver ep None;
  t

let detach t =
  t.up <- false;
  t.owner <- None;
  Link.set_receiver t.ep None

let bind t ?owner ~rx () =
  t.up <- true;
  t.owner <- owner;
  Link.set_receiver t.ep (Some rx);
  match owner with
  | None -> ()
  | Some part ->
      Partition.on_halt part (fun () ->
          (* Only detach if this owner still holds the device. *)
          match t.owner with
          | Some p when Partition.id p = Partition.id part -> detach t
          | _ -> ())

let attach t ?owner ~rx () = bind t ?owner ~rx ()

let transfer t ~owner ~rx =
  Trace.infof log ~eng:t.eng "driver load started for %s (%a)"
    (Partition.name owner) Time.pp t.driver_load_time;
  let sp =
    Evlog.span_begin (Engine.evlog t.eng) ~comp:"net.nic" "driver.reload"
      ~args:[ ("owner", Evlog.Str (Partition.name owner)) ]
  in
  detach t;
  Engine.sleep t.driver_load_time;
  bind t ~owner ~rx ();
  Evlog.span_end (Engine.evlog t.eng) sp;
  Trace.infof log ~eng:t.eng "driver bound to %s" (Partition.name owner)

let transmit t pkt = if t.up then Link.transmit t.ep pkt
