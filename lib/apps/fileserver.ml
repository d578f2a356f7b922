open Ftsim_sim
open Ftsim_netstack
open Ftsim_ftlinux

type params = {
  port : int;
  file_bytes : int;
  chunk_bytes : int;
  read_ns_per_byte : int;
  listen_shards : int;
  accept_backlog : int option;
  overflow : Tcp.overflow;
  admission : int option;
}

let default_params =
  {
    port = 80;
    file_bytes = 10 * 1024 * 1024 * 1024;
    chunk_bytes = 256 * 1024;
    read_ns_per_byte = 0;
    listen_shards = 1;
    accept_backlog = None;
    overflow = `Drop;
    admission = None;
  }

let shed_header =
  Http.response_header ~status:503 ~reason:"Service Unavailable"
    ~content_length:0 ()

let serve_one (api : Api.t) p ~adm sock =
  let reader =
    Http.reader_fn (fun max ->
        match api.Api.net.recv sock ~max with Ok cs -> cs | Error _ -> [])
  in
  match Http.read_headers reader with
  | None -> api.Api.net.close sock
  | Some _request ->
      let admitted =
        match adm with None -> true | Some a -> Admission.try_admit a
      in
      if not admitted then begin
        (* Transfers are whole-connection units of work here, so a shed is a
           zero-body 503 and an orderly close. *)
        ignore (api.Api.net.send sock (Payload.of_string shed_header));
        api.Api.net.close sock
      end
      else
        Fun.protect
          ~finally:(fun () ->
            match adm with Some a -> Admission.release a | None -> ())
          (fun () ->
            let send chunk =
              match api.Api.net.send sock chunk with
              | Ok () -> true
              | Error _ -> false
            in
            if
              send
                (Payload.of_string
                   (Http.response_header ~content_length:p.file_bytes ()))
            then begin
              let sent = ref 0 in
              let ok = ref true in
              while !ok && !sent < p.file_bytes do
                let n = min p.chunk_bytes (p.file_bytes - !sent) in
                if p.read_ns_per_byte > 0 then
                  api.Api.thread.compute (Time.ns (n * p.read_ns_per_byte));
                if send (Payload.zeroes n) then sent := !sent + n
                else ok := false
              done
            end;
            api.Api.net.close sock)

let run ?(params = default_params) (api : Api.t) =
  let p = params in
  let adm =
    Option.map
      (fun limit -> Admission.create api ~name:"fileserver" ~limit ())
      p.admission
  in
  (* Per-shard connection counters keep spawned thread names deterministic
     under replication: each acceptor thread numbers only its own
     connections, so replayed interleavings of sibling acceptors cannot
     reorder the names. *)
  let accept_from ~name_of listener =
    let rec loop i =
      match api.Api.net.accept listener with
      | Error _ -> ()
      | Ok sock ->
          ignore
            (api.Api.thread.spawn (name_of i) (fun () ->
                 serve_one api p ~adm sock));
          loop (i + 1)
    in
    loop 0
  in
  if p.listen_shards <= 1 && p.accept_backlog = None then
    (* pre-listener-group path, byte-identical: same listen call, same
       accept sequence and thread names, all on the app-main thread *)
    accept_from
      ~name_of:(Printf.sprintf "fileserver-conn-%d")
      (api.Api.net.listen ~port:p.port)
  else begin
    let listeners =
      api.Api.net.listen_group ~port:p.port ~shards:(max 1 p.listen_shards)
        ~backlog:p.accept_backlog ~overflow:p.overflow
    in
    match listeners with
    | [] -> assert false
    | l0 :: rest ->
        let acceptors =
          List.mapi
            (fun i l ->
              let shard = i + 1 in
              api.Api.thread.spawn
                (Printf.sprintf "fileserver-acceptor-%d" shard)
                (fun () ->
                  accept_from
                    ~name_of:(Printf.sprintf "fileserver-conn-%d-%d" shard)
                    l))
            rest
        in
        accept_from ~name_of:(Printf.sprintf "fileserver-conn-0-%d") l0;
        List.iter api.Api.thread.join acceptors
  end
