open Ftsim_sim

type endpoint = {
  eng : Engine.t;
  bandwidth_bps : int;
  latency : Time.t;
  loss : float;
  prng : Prng.t;
  mutable busy_until : Time.t;  (* serialization: next transmit start *)
  mutable peer : endpoint option;
  mutable receiver : (Packet.t -> unit) option;
  (* Chaos perturbation: extra loss probability and extra propagation
     delay, adjustable at runtime (fault-injection windows). *)
  mutable extra_loss : float;
  mutable extra_delay : Time.t;
  dropped : Metrics.Counter.t;
  lost : Metrics.Counter.t;
}

type t = { a : endpoint; b : endpoint }

let make_endpoint eng ~bandwidth_bps ~latency ~loss ~prng =
  {
    eng;
    bandwidth_bps;
    latency;
    loss;
    prng;
    busy_until = 0;
    peer = None;
    receiver = None;
    extra_loss = 0.0;
    extra_delay = 0;
    dropped = Metrics.Counter.create ();
    lost = Metrics.Counter.create ();
  }

let create eng ~bandwidth_bps ~latency ?(loss = 0.0) ?seed_split () =
  if bandwidth_bps <= 0 then invalid_arg "Link.create: bandwidth";
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.create: loss";
  let prng =
    match seed_split with
    | Some g -> Prng.split g
    | None -> Prng.create ~seed:0x11ab
  in
  let a = make_endpoint eng ~bandwidth_bps ~latency ~loss ~prng in
  let b = make_endpoint eng ~bandwidth_bps ~latency ~loss ~prng in
  a.peer <- Some b;
  b.peer <- Some a;
  { a; b }

let endpoint_a t = t.a
let endpoint_b t = t.b

let serialization_ns ep bytes =
  (* bytes * 8 bits / bps, in ns *)
  let bits = bytes * 8 in
  int_of_float (Float.round (float_of_int bits *. 1e9 /. float_of_int ep.bandwidth_bps))

let perturb ep ?(loss = 0.0) ?(delay = 0) () =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.perturb: loss";
  if delay < 0 then invalid_arg "Link.perturb: delay";
  ep.extra_loss <- loss;
  ep.extra_delay <- delay

let clear_perturbation ep =
  ep.extra_loss <- 0.0;
  ep.extra_delay <- 0

let transmit ep pkt =
  let peer = match ep.peer with Some p -> p | None -> assert false in
  let now = Engine.now ep.eng in
  let start = max now ep.busy_until in
  let finish = start + serialization_ns ep (Packet.wire_size pkt) in
  ep.busy_until <- finish;
  let eff_loss = min 1.0 (ep.loss +. ep.extra_loss) in
  if eff_loss > 0.0 && Prng.float ep.prng 1.0 < eff_loss then
    (* Lost on the wire: serialization time is still consumed. *)
    Metrics.Counter.incr peer.lost
  else
    Engine.schedule ep.eng ~at:(finish + ep.latency + ep.extra_delay) (fun () ->
        match peer.receiver with
        | Some rx -> rx pkt
        | None -> Metrics.Counter.incr peer.dropped)

let set_receiver ep rx = ep.receiver <- rx

let dropped ep = Metrics.Counter.value ep.dropped
let lost ep = Metrics.Counter.value ep.lost
