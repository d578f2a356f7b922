(* Three replicas, two failures, one surviving service.

   An echo server runs on a primary and TWO backup partitions (quorum-1
   output commit, paper §6's configurable replica count).  One backup dies,
   then the primary dies; the surviving backup wins the LSN arbitration,
   takes over the NIC, and finishes the client's session on the same TCP
   connection.

   Run with:  dune exec examples/triple_replication.exe *)

open Ftsim_sim
open Ftsim_hw
open Ftsim_netstack
open Ftsim_ftlinux

let echo_app (api : Api.t) =
  let l = api.Api.net.listen ~port:80 in
  let rec serve () =
    match api.Api.net.accept l with
    | Error _ -> ()
    | Ok s ->
        let rec echo () =
          match api.Api.net.recv s ~max:4096 with
          | Error _ -> api.Api.net.close s
          | Ok cs ->
              List.iter (fun c -> ignore (api.Api.net.send s c)) cs;
              echo ()
        in
        echo ();
        serve ()
  in
  serve ()

let () =
  let eng = Engine.create ~seed:21 () in
  let link = Link.create eng ~bandwidth_bps:1_000_000_000 ~latency:(Time.us 100) () in
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 3;
      driver_load_time = Time.ms 400;
    }
  in
  let t =
    Cluster.create eng ~config ~link:(Link.endpoint_a link) ~app:echo_app ()
  in
  Cluster.kill t ~role:Replica_set.Backup ~at:(Time.ms 50);
  Cluster.kill t ~role:Replica_set.Primary ~at:(Time.ms 200);
  let client = Host.create eng ~ip:"10.0.0.9" (Link.endpoint_b link) in
  let messages = List.init 40 (fun i -> Printf.sprintf "msg-%02d|" i) in
  let result = Ivar.create () in
  ignore
    (Host.spawn client "client" (fun () ->
         let c = Tcp.connect (Host.stack client) ~host:"10.0.0.1" ~port:80 in
         let out = Buffer.create 64 in
         List.iter
           (fun m ->
             Tcp.send c (Payload.of_string m);
             let want = String.length m in
             let got = ref 0 in
             while !got < want do
               match Tcp.recv c ~max:4096 with
               | [] -> failwith "eof"
               | cs ->
                   got := !got + Payload.total_len cs;
                   Buffer.add_string out (Payload.concat_to_string cs)
             done;
             Engine.sleep (Time.ms 5))
           messages;
         Ivar.fill result (Buffer.contents out)));
  let rec drive () =
    if (not (Ivar.is_filled result)) && Engine.now eng < Time.sec 30 then begin
      Engine.run ~until:(Engine.now eng + Time.ms 100) eng;
      drive ()
    end
  in
  drive ();
  Cluster.shutdown t;
  Printf.printf "backup 0 halted: %b (t=50ms)\n"
    (Partition.is_halted (Cluster.backup_partition t 0));
  Printf.printf "primary halted:  %b (t=200ms)\n"
    (Partition.is_halted (Cluster.primary_partition t));
  (match Cluster.winner t with
  | Some w -> Printf.printf "takeover winner:  backup %d\n" w
  | None -> Printf.printf "takeover winner:  none!\n");
  match Ivar.peek result with
  | Some s when s = String.concat "" messages ->
      Printf.printf
        "client: all %d echoes received exactly once across two failures\n"
        (List.length messages)
  | Some s -> Printf.printf "client: CORRUPTED stream (%d bytes)\n" (String.length s)
  | None -> Printf.printf "client: did not finish\n"
