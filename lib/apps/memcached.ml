open Ftsim_sim
open Ftsim_netstack
open Ftsim_ftlinux

(* {1 Memory model}

   Calibration anchors (96 GiB RAM, multiplier 180): user 62.4 GiB (65 %),
   slab such that Ignored totals ~15 % with base kernel + page tables,
   page cache constant (memcached barely uses it). *)

type footprint = { user_bytes : int; slab_bytes : int; page_cache_bytes : int }

let mib n = n * 1024 * 1024

let footprint ~multiplier =
  if multiplier < 0 then invalid_arg "Memcached.footprint";
  {
    user_bytes = multiplier * mib 347;
    slab_bytes = mib 64 + (multiplier * mib 68);
    page_cache_bytes = mib 2048;
  }

let apply_load layout ~multiplier =
  let fp = footprint ~multiplier in
  Ftsim_kernel.Memlayout.alloc_slab layout fp.slab_bytes;
  Ftsim_kernel.Memlayout.alloc_page_cache layout fp.page_cache_bytes;
  Ftsim_kernel.Memlayout.alloc_user layout fp.user_bytes

(* {1 Key-value server} *)

type params = {
  port : int;
  worker_threads : int;
  lock_stripes : int;
  listen_shards : int;
  accept_backlog : int option;
  overflow : Tcp.overflow;
  admission : int option;
}

let default_params =
  {
    port = 11211;
    worker_threads = 8;
    lock_stripes = 1;
    listen_shards = 1;
    accept_backlog = None;
    overflow = `Drop;
    admission = None;
  }

let server ?(params = default_params) (api : Api.t) =
  let pt = api.Api.pt in
  (* Real memcached stripes its hash table's bucket locks; a stripe count of
     1 is the old single global store lock.  Each stripe's mutex is its own
     replicated sync object, so under the sharded det core operations on
     distinct stripes stream on distinct channels.  [Hashtbl.hash] is
     deterministic, so both replicas agree on every key's stripe. *)
  let stripes = max 1 params.lock_stripes in
  let store : (string, string) Hashtbl.t array =
    Array.init stripes (fun _ -> Hashtbl.create 1024)
  in
  let locks =
    Array.init stripes (fun _ -> Ftsim_kernel.Pthread.mutex_create pt)
  in
  let stripe key = Hashtbl.hash key mod stripes in
  let q : Api.sock Workqueue.t = Workqueue.create pt ~capacity:256 in
  let adm =
    Option.map
      (fun limit -> Admission.create api ~name:"memcached" ~limit ())
      params.admission
  in
  let handle sock =
    (* Accumulate bytes; the protocol is small-string based, so
       materializing is fine. *)
    let buf = Buffer.create 256 in
    let eof = ref false in
    let refill () =
      match api.Api.net.recv sock ~max:65536 with
      | Error (`Eof | `Reset | `Badfd) -> eof := true
      | Ok cs -> Buffer.add_string buf (Payload.concat_to_string cs)
    in
    let take_line () =
      let rec find () =
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some i ->
            let line = String.sub s 0 i in
            Buffer.clear buf;
            Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
            let line =
              if String.length line > 0 && line.[String.length line - 1] = '\r'
              then String.sub line 0 (String.length line - 1)
              else line
            in
            Some line
        | None ->
            if !eof then None
            else begin
              refill ();
              find ()
            end
      in
      find ()
    in
    let take_exact n =
      let rec wait () =
        if Buffer.length buf < n then
          if !eof then None
          else begin
            refill ();
            wait ()
          end
        else begin
          let s = Buffer.contents buf in
          let v = String.sub s 0 n in
          Buffer.clear buf;
          Buffer.add_string buf (String.sub s n (String.length s - n));
          Some v
        end
      in
      wait ()
    in
    let reply s = ignore (api.Api.net.send sock (Payload.of_string s)) in
    let rec loop () =
      match take_line () with
      | None -> ()
      | Some line -> (
          match String.split_on_char ' ' line with
          | [ "get"; key ] ->
              let i = stripe key in
              Ftsim_kernel.Pthread.mutex_lock pt locks.(i);
              let v = Hashtbl.find_opt store.(i) key in
              Ftsim_kernel.Pthread.mutex_unlock pt locks.(i);
              (match v with
              | Some v ->
                  reply (Printf.sprintf "VALUE %d\r\n" (String.length v));
                  reply v
              | None -> reply "MISS\r\n");
              loop ()
          | [ "set"; key; nbytes ] -> (
              match int_of_string_opt nbytes with
              | None ->
                  reply "ERROR\r\n";
                  loop ()
              | Some n -> (
                  match take_exact n with
                  | None -> ()
                  | Some v ->
                      let i = stripe key in
                      Ftsim_kernel.Pthread.mutex_lock pt locks.(i);
                      Hashtbl.replace store.(i) key v;
                      Ftsim_kernel.Pthread.mutex_unlock pt locks.(i);
                      reply "STORED\r\n";
                      loop ()))
          | [ "quit" ] -> ()
          | _ ->
              reply "ERROR\r\n";
              loop ())
    in
    loop ();
    api.Api.net.close sock
  in
  let handle sock =
    (* Connections are the unit of admitted work: a saturated cache answers
       BUSY and closes rather than queueing the session. *)
    match adm with
    | None -> handle sock
    | Some a ->
        if Admission.try_admit a then
          Fun.protect ~finally:(fun () -> Admission.release a) (fun () ->
              handle sock)
        else begin
          ignore (api.Api.net.send sock (Payload.of_string "BUSY\r\n"));
          api.Api.net.close sock
        end
  in
  let _workers =
    List.init params.worker_threads (fun w ->
        api.Api.thread.spawn
          (Printf.sprintf "memcached-worker-%d" w)
          (fun () ->
            let rec loop () =
              match Workqueue.pop pt q with
              | None -> ()
              | Some sock ->
                  handle sock;
                  loop ()
            in
            loop ()))
  in
  let accept_from listener =
    let rec loop () =
      match api.Api.net.accept listener with
      | Error _ -> ()
      | Ok sock ->
          Workqueue.push pt q sock;
          loop ()
    in
    loop ()
  in
  if params.listen_shards <= 1 && params.accept_backlog = None then
    (* pre-listener-group shape, byte-identical when the new knobs are off *)
    accept_from (api.Api.net.listen ~port:params.port)
  else begin
    let listeners =
      api.Api.net.listen_group ~port:params.port
        ~shards:(max 1 params.listen_shards) ~backlog:params.accept_backlog
        ~overflow:params.overflow
    in
    match listeners with
    | [] -> assert false
    | l0 :: rest ->
        let acceptors =
          List.mapi
            (fun i l ->
              api.Api.thread.spawn
                (Printf.sprintf "memcached-acceptor-%d" (i + 1))
                (fun () -> accept_from l))
            rest
        in
        accept_from l0;
        List.iter api.Api.thread.join acceptors
  end
