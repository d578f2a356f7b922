open Ftsim_sim
open Ftsim_hw
open Ftsim_kernel
open Ftsim_netstack
open Ftsim_ftlinux

let mib n = n * 1024 * 1024
let server_ip = "10.0.0.1"
let client_ip = "10.0.0.9"

let gbit_link eng =
  Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) ()

(* Run until [stop] holds, the clock reaches [cap] or nothing is left to
   fire: [Engine.run] does not move the clock of an empty engine.  The
   100 ms slices keep runs from spinning on heart-beat timers after the
   workload finishes. *)
let drive eng ~cap ~stop =
  let rec loop () =
    if
      (not (stop ()))
      && Engine.now eng < cap
      && Engine.pending_events eng > 0
    then begin
      Engine.run ~until:(min cap (Engine.now eng + Time.ms 100)) eng;
      loop ()
    end
  in
  loop ()

type server = Standalone | Replicated of Cluster.config

type t = {
  eng : Engine.t;
  link : Link.t option;
  cluster : Cluster.t option;
  kernel : Kernel.t;
}

let start eng ?link ?fail_at server ~app =
  let ep = Option.map Link.endpoint_a link in
  match server with
  | Standalone ->
      let sa = Cluster.create_standalone eng ?link:ep ~app () in
      { eng; link; cluster = None; kernel = Cluster.standalone_kernel sa }
  | Replicated config ->
      let c = Cluster.create eng ~config ?link:ep ~app () in
      Option.iter
        (fun at -> Cluster.kill c ~role:Replica_set.Primary ~at)
        fail_at;
      { eng; link; cluster = Some c; kernel = Cluster.primary_kernel c }

let client t =
  match t.link with
  | Some link -> Host.create t.eng ~ip:client_ip (Link.endpoint_b link)
  | None -> invalid_arg "Scenario.client: the server has no link"

let stop t = Option.iter Cluster.shutdown t.cluster

let traffic t =
  match t.cluster with
  | Some c -> (Cluster.traffic_msgs c, Cluster.traffic_bytes c)
  | None -> (0, 0)

type completion = {
  started : t;
  done_at : Time.t option;
  blocks : Metrics.Series.t;
}

let pbzip2 eng ?fail_at ~cap server params =
  let booted = ref None and done_at = ref None in
  let blocks = Metrics.Series.create ~bucket:(Time.ms 250) in
  (* The run completes when the serving replica's copy does: the
     primary's, or once the primary partition is down, the copy of the
     backup taking over.  A backup's replay finishes later and does not
     count. *)
  let serving kernel =
    match !booted with
    | Some { cluster = Some c; _ } ->
        let p = Cluster.primary_partition c in
        Kernel.partition kernel == p || Partition.is_halted p
    | _ -> true
  in
  let app api =
    let on_block_done _ =
      if serving api.Api.kernel then
        Metrics.Series.add blocks ~at:(Engine.now eng) 1.0
    in
    Pbzip2.run ~params ~on_block_done api;
    if serving api.Api.kernel then done_at := Some (Engine.now eng)
  in
  let s = start eng ?fail_at server ~app in
  booted := Some s;
  drive eng ~cap ~stop:(fun () -> !done_at <> None);
  stop s;
  { started = s; done_at = !done_at; blocks }

type window = { ops : int; msgs : int; bytes : int; latency : Metrics.Hist.t }

let ab t ~target ~concurrency ~warmup ~until =
  let ab =
    Loadgen.ab_start (client t) ~server:server_ip ~port:80 ~target ~concurrency
      ()
  in
  let stats = Loadgen.ab_stats ab in
  let completed () = Metrics.Counter.value stats.Loadgen.completed in
  Engine.run ~until:warmup t.eng;
  let c0 = completed () and m0, b0 = traffic t in
  Engine.run ~until t.eng;
  let c1 = completed () and m1, b1 = traffic t in
  Loadgen.ab_stop ab;
  stop t;
  { ops = c1 - c0; msgs = m1 - m0; bytes = b1 - b0; latency = stats.latency }

let wget t ~target ~cap =
  let w =
    Loadgen.wget_start (client t) ~server:server_ip ~port:80 ~target ()
  in
  drive t.eng ~cap ~stop:(fun () -> Ivar.is_filled w.Loadgen.total);
  stop t;
  w

let write_trace ~prog ev path =
  let format = if Filename.check_suffix path ".jsonl" then `Jsonl else `Chrome in
  try Evlog.write_file ev ~format path
  with Sys_error msg -> Printf.eprintf "%s: cannot write trace: %s\n" prog msg
