open Ftsim_sim
open Ftsim_netstack
open Ftsim_kernel

type t = {
  kernel : Kernel.t;
  pt : Pthread.t;
  det : Det.t option;  (* None: standalone *)
  shadow : Shadow.t option;  (* secondary: the replayed TCP state *)
  mutable stack : Tcp.stack option;
  (* recording primary: Tcp conn id -> replication cid *)
  cid_of_conn : (int, int) Hashtbl.t;
  mutable next_cid : int;
  (* recording primary: last D_ack_progress value emitted per cid (coalescing) *)
  acked_emitted : (int, int) Hashtbl.t;
  (* after failover: (port, shard) -> the open real listener standing in for
     a shadow listener group *)
  restored_listeners : (int * int, Tcp.listener) Hashtbl.t;
  (* sockets are real; false only while a secondary replays *)
  mutable live : bool;
  mutable output_commit : bool;
  vfs : Vfs.t;
  env : (string * string) list;
  mutable diverged : string option;  (* first replay divergence observed *)
}

let log = Trace.make "ft.namespace"

exception Replay_divergence of string

(* Record the first divergence on the namespace (so a chaos run can observe
   it even though the raise kills the app thread), then raise. *)
let diverge t what =
  let msg = Printf.sprintf "replay divergence: %s" what in
  if t.diverged = None then t.diverged <- Some msg;
  raise (Replay_divergence msg)

let det_exn t =
  match t.det with Some d -> d | None -> failwith "namespace: no det engine"

let shadow_of t =
  match t.shadow with Some s -> s | None -> failwith "namespace: no shadow"

(* The det engine of a recording primary, original or promoted at
   failover; [None] where real operations run unlogged (standalone, and a
   live survivor that was not promoted). *)
let recorder t =
  match t.det with
  | Some det when Det.role det = Det.Primary_role -> t.det
  | _ -> None

(* {1 Digest fold tags}

   Per-thread folds must combine the same values in the same per-thread
   order on both replicas; each operation gets a distinct tag so streams of
   different operations cannot collide. *)

let h_recv len data = Digest.mix (Digest.mix 1 len) (Payload.stream_hash 0x11 data)
let h_send len chunk = Digest.mix (Digest.mix 2 len) (Payload.stream_hash 0x11 [ chunk ])
let h_time v = Digest.mix 3 v
let h_accept cid = Digest.mix 4 cid
let h_close cid = Digest.mix 5 cid
let h_poll ready = List.fold_left Digest.mix 6 ready
let h_fs_open path = Digest.mix 10 (Payload.stream_hash 0x11 [ Payload.of_string path ])
let h_fs_read cs = Digest.mix (Digest.mix 11 (Payload.total_len cs)) (Payload.stream_hash 0x11 cs)
let h_fs_append chunk = Digest.mix (Digest.mix 12 (Payload.chunk_len chunk)) (Payload.stream_hash 0x11 [ chunk ])
let h_fs_close = 13

(* {1 Creation} *)

let make kernel ?det ?shadow ?stack ~env ~output_commit () =
  let pt = Pthread.create kernel in
  Option.iter (fun det -> Pthread.set_hooks pt (Some (Det.pthread_hooks det))) det;
  {
    kernel;
    pt;
    det;
    shadow;
    stack;
    cid_of_conn = Hashtbl.create 16;
    next_cid = 0;
    acked_emitted = Hashtbl.create 16;
    restored_listeners = Hashtbl.create 4;
    (* Only a replaying secondary starts with shadow sockets. *)
    live = Option.is_none shadow;
    output_commit;
    vfs = Vfs.create ();
    env;
    diverged = None;
  }

let cid_exn t c =
  match Hashtbl.find_opt t.cid_of_conn (Tcp.conn_id c) with
  | Some cid -> cid
  | None -> failwith "namespace: connection has no replication id"

let cid_opt t c = Hashtbl.find_opt t.cid_of_conn (Tcp.conn_id c)

(* A recording primary's TCP hooks: the stack's logical state goes into
   [group] as deltas, and output commit (§3.5) gates both egress data and
   the ACKs of client input. *)
let install_primary_tcp_hooks t group stack =
  let append r = ignore (Msglayer.group_append group r) in
  let wait_tail gate () =
    let lsn = Msglayer.group_last_lsn group in
    (* Flush-on-output-commit: the tail LSN may still sit in the batching
       stage buffer; [group_wait_stable] pushes it onto the wire (with the
       ack_now flag, so the secondary replies without its delayed-ack
       timer) before parking for its ack — the output-commit rule is never
       delayed past its covering ack by the batching window. *)
    Msglayer.group_wait_stable group ~lsn;
    (* Recorded after the wait returns: this is the instant the output
       actually became releasable (its covering ack had arrived). *)
    (match Det.digest (det_exn t) with
    | Some d -> Digest.mark_commit d ~lsn
    | None -> ());
    let ev = Engine.evlog (Kernel.engine t.kernel) in
    Evlog.begin_instant ev ~comp:"ft.namespace" "output.commit";
    Evlog.arg_int ev "lsn" lsn;
    Evlog.arg_str ev "gate" gate;
    Evlog.close ev
  in
  Tcp.set_hooks stack
    (Some
       {
         Tcp.on_accept =
           (fun c ->
             let cid = t.next_cid in
             t.next_cid <- cid + 1;
             Hashtbl.replace t.cid_of_conn (Tcp.conn_id c) cid;
             append
               (Wire.Tcp_delta
                  (Wire.D_new_conn
                     { cid; local = Tcp.local_addr c; remote = Tcp.remote_addr c })));
         on_input =
           (fun c data ->
             append (Wire.Tcp_delta (Wire.D_in_data { cid = cid_exn t c; data })));
         ack_gate =
           (fun _c ->
             (* The client's data may be acknowledged only once its logging
                is stable: otherwise a primary crash could lose input the
                client will never retransmit. *)
             if t.output_commit then wait_tail "ack" ());
         egress_gate =
           (fun c ~len ->
             (* The size of every output segment is streamed before it is
                sent, as the paper's primary does ("the primary will inform
                the replicas of the size of the packet", §3.4), and the
                traffic figures count it; the backup only checks the
                connection, and a restored stack re-segments from the
                shadow's unacknowledged output rather than replaying these
                sizes.  Output commit (§3.5) then holds the packet until
                everything that causally precedes it is stable on the
                secondary. *)
             (match cid_opt t c with
             | Some cid when len > 0 ->
                 append (Wire.Tcp_delta (Wire.D_out_seg { cid; len }))
             | _ -> ());
             if t.output_commit then wait_tail "egress" ());
         on_ack_progress =
           (fun c ~snd_una ->
             (* Coalesced: the shadow's trim granularity only bounds how
                much a failover retransmits, so emitting every 16 KiB of
                progress suffices and keeps the delta stream off the replay
                bottleneck. *)
             match cid_opt t c with
             | None -> ()
             | Some cid ->
                 let last =
                   Option.value ~default:0 (Hashtbl.find_opt t.acked_emitted cid)
                 in
                 if snd_una - last >= 16384 then begin
                   Hashtbl.replace t.acked_emitted cid snd_una;
                   append (Wire.Tcp_delta (Wire.D_ack_progress { cid; snd_una }))
                 end);
         on_peer_fin =
           (fun c ->
             append (Wire.Tcp_delta (Wire.D_peer_fin { cid = cid_exn t c })));
       })

let standalone kernel ?stack ?(env = []) () =
  make kernel ?stack ~env ~output_commit:false ()

let primary kernel ~group ?stack ?(env = []) ?(det_shard = true) ~output_commit
    () =
  let det = Det.create_primary ~shard:det_shard (Kernel.engine kernel) group in
  let t = make kernel ~det ?stack ~env ~output_commit () in
  Option.iter (install_primary_tcp_hooks t group) stack;
  t

let secondary kernel ?(env = []) ?(det_shard = true) () =
  let det = Det.create_secondary ~shard:det_shard (Kernel.engine kernel) in
  make kernel ~det ~shadow:(Shadow.create ()) ~env ~output_commit:false ()

(* {1 Real operations}

   An operation on the real clock, stack or file system.  A recording
   primary performs it, logs its result into the replication stream and
   folds the per-thread digest; everywhere else it runs directly.  An
   original and a promoted primary share these paths, so a promoted
   namespace records exactly what an original primary would and a
   regenerated backup can replay the whole journal as one stream. *)

let real_listener l = { Api.li = Api.L_real l }
let real_sock c = { Api.si = Api.S_real c }

let stack_exn t =
  match t.stack with
  | Some s -> s
  | None -> failwith "namespace: no network stack configured"

(* Connections accepted after [go_solo] (TCP hooks removed) have no
   replication id; their syscalls are simply not logged. *)
let log_conn_syscall t det c mk =
  match cid_opt t c with
  | Some cid -> Det.log_syscall det (mk cid)
  | None -> ()

let real_gettimeofday t =
  let v = Kernel.gettimeofday t.kernel in
  (match recorder t with
  | Some det ->
      Det.log_syscall det (Wire.R_gettimeofday v);
      Det.fold_syscall det (h_time v)
  | None -> ());
  v

let logged_accept t det rl =
  match Tcp.accept rl with
  | Some c ->
      log_conn_syscall t det c (fun cid -> Wire.R_accept cid);
      (match cid_opt t c with
      | Some cid -> Det.fold_syscall det (h_accept cid)
      | None -> ());
      Ok (real_sock c)
  | None ->
      (* Closed listener: the typed refusal is itself a logged syscall
         result (cid -1), so the replica's acceptor observes the same close
         at the same point in its per-thread stream. *)
      Det.log_syscall det (Wire.R_accept (-1));
      Det.fold_syscall det (h_accept (-1));
      Error `Reset

let real_accept t rl =
  match recorder t with
  | Some det -> logged_accept t det rl
  | None -> (
      match Tcp.accept rl with
      | Some c -> Ok (real_sock c)
      | None -> Error `Reset)

let logged_recv t det c ~max =
  match Tcp.recv c ~max with
  | [] ->
      log_conn_syscall t det c (fun cid -> Wire.R_read { cid; len = 0 });
      Det.fold_syscall det (h_recv 0 []);
      Error `Eof
  | data ->
      let len = Payload.total_len data in
      log_conn_syscall t det c (fun cid -> Wire.R_read { cid; len });
      Det.fold_syscall det (h_recv len data);
      Ok data
  | exception Tcp.Connection_closed ->
      (* The reset outcome is logged (len = -1) so the replica replays the
         same error at the same point in this thread's stream. *)
      log_conn_syscall t det c (fun cid -> Wire.R_read { cid; len = -1 });
      Error `Reset

let real_recv t c ~max =
  match recorder t with
  | Some det -> logged_recv t det c ~max
  | None -> (
      match Tcp.recv c ~max with
      | [] -> Error `Eof
      | data -> Ok data
      | exception Tcp.Connection_closed -> Error `Reset)

let logged_send t det c chunk =
  match Tcp.send c chunk with
  | () ->
      let len = Payload.chunk_len chunk in
      log_conn_syscall t det c (fun cid -> Wire.R_write { cid; len });
      Det.fold_syscall det (h_send len chunk);
      Ok ()
  | exception Tcp.Connection_closed ->
      log_conn_syscall t det c (fun cid -> Wire.R_write { cid; len = -1 });
      Error `Reset

let real_send t c chunk =
  match recorder t with
  | Some det -> logged_send t det c chunk
  | None -> (
      match Tcp.send c chunk with
      | () -> Ok ()
      | exception Tcp.Connection_closed -> Error `Reset)

let real_close t c =
  Tcp.close c;
  match recorder t with
  | Some det -> (
      log_conn_syscall t det c (fun cid -> Wire.R_close { cid });
      match cid_opt t c with
      | Some cid -> Det.fold_syscall det (h_close cid)
      | None -> ())
  | None -> ()

(* The socks at the [ready] indices, logged on a recording primary. *)
let poll_result t socks ready =
  (match recorder t with
  | Some det ->
      Det.log_syscall det (Wire.R_poll { ready });
      Det.fold_syscall det (h_poll ready)
  | None -> ());
  List.filteri (fun i _ -> List.mem i ready) socks

(* [socks] and [conns] are index-aligned. *)
let real_poll t socks conns ~timeout =
  let eng = Kernel.engine t.kernel in
  let ready = Tcp.poll ~deadline:(Engine.now eng + timeout) conns in
  poll_result t socks
    (List.mapi (fun i c -> (i, c)) conns
    |> List.filter_map (fun (i, c) -> if List.memq c ready then Some i else None))

(* An operation on a shadow connection the failover never restored (the
   peer closed before it).  A recording primary still logs the outcome
   under the shadow's cid, keeping the per-thread result stream gapless
   for the regenerated backup's replay. *)
let dead_recv t ~cid =
  (match recorder t with
  | Some det ->
      Det.log_syscall det (Wire.R_read { cid; len = 0 });
      Det.fold_syscall det (h_recv 0 [])
  | None -> ());
  Error `Eof

let dead_send t ~cid =
  (match recorder t with
  | Some det -> Det.log_syscall det (Wire.R_write { cid; len = -1 })
  | None -> ());
  Error `Reset

let dead_close t ~cid =
  match recorder t with
  | Some det ->
      Det.log_syscall det (Wire.R_close { cid });
      Det.fold_syscall det (h_close cid)
  | None -> ()

(* After go-live a shadow connection resolves to its restored real one,
   if the failover restored it. *)
let restored_conn s sc =
  match Shadow.restored sc with
  | Some rc ->
      s.Api.si <- Api.S_real rc;
      Some rc
  | None -> None

(* Open a real listener group in a shadow listener's registered shape and
   remember every shard, so sibling acceptor threads resolve to the same
   group instead of racing to re-listen the port. *)
let relisten t stack lc =
  let ls =
    Tcp.listen_group stack ~port:lc.Shadow.lc_port ~shards:lc.Shadow.lc_shards
      ?backlog:lc.Shadow.lc_backlog ~overflow:lc.Shadow.lc_overflow ()
  in
  Array.iteri
    (fun i l -> Hashtbl.replace t.restored_listeners (lc.Shadow.lc_port, i) l)
    ls;
  ls

(* After go-live: resolve a shadow listener shard to a real one.  Go-live
   normally re-listened the whole group; if the app listened at a point
   replay never reached, open the group now. *)
let live_listener t ~port ~shard =
  match Hashtbl.find_opt t.restored_listeners (port, shard) with
  | Some rl -> rl
  | None ->
      let lc =
        match Shadow.listener_config (shadow_of t) ~port with
        | Some lc -> lc
        | None ->
            {
              Shadow.lc_port = port;
              lc_shards = max 1 (shard + 1);
              lc_backlog = None;
              lc_overflow = `Drop;
            }
      in
      (relisten t (stack_exn t) lc).(shard)

(* Closing tears down the whole group; forget it, so that listening on the
   port again opens a fresh group instead of finding the closed one. *)
let close_real_listener t rl =
  Tcp.close_listener rl;
  let port = Tcp.listener_port rl in
  match Hashtbl.find_opt t.restored_listeners (port, Tcp.listener_shard rl) with
  | Some l when l == rl ->
      Hashtbl.filter_map_inplace
        (fun (p, _) l -> if p = port then None else Some l)
        t.restored_listeners
  | _ -> ()

let spawn_replicated t det name f =
  (* Thread creation is itself a deterministic event: the child's ft_pid is
     assigned inside a section, so the replica creates the same thread at
     the same point in the replayed order. *)
  Det.det_start det ~chans:[ Det.chan_misc ];
  let ft_pid =
    match Det.role det with
    | Det.Primary_role ->
        let p = Det.alloc_ftpid det in
        Det.set_payload det (Wire.P_thread_spawn p);
        p
    | Det.Secondary_role -> (
        match Det.payload_at_turn det with
        | Wire.P_thread_spawn p -> p
        | _ -> Det.alloc_ftpid det (* live mode: id is only cosmetic *))
  in
  Det.det_end det;
  Kernel.spawn_thread t.kernel ~name (fun () ->
      Det.register_thread det ~ft_pid;
      Fun.protect ~finally:(fun () -> Det.unregister_thread det) f)

let direct_fs_read vfs fd ~max =
  match Vfs.read vfs fd ~max with
  | [] -> Error `Eof
  | cs -> Ok cs
  | exception Vfs.Bad_fd -> Error `Badfd

(* Replicated file operations are ordered by deterministic sections; the
   content folds inside the section cross-check VFS convergence.  A read's
   length is logged: the replica reads exactly what the primary read. *)
let replicated_fs_read t det fd ~max =
  Det.det_start det ~chans:[ Det.chan_fs ];
  let r =
    if Det.role det = Det.Primary_role then begin
      match Vfs.read t.vfs fd ~max with
      | [] ->
          Det.set_payload det (Wire.P_fs_read_len 0);
          Error `Eof
      | cs ->
          Det.set_payload det (Wire.P_fs_read_len (Payload.total_len cs));
          Det.fold_section det (h_fs_read cs);
          Ok cs
      | exception Vfs.Bad_fd ->
          Det.set_payload det (Wire.P_fs_read_len (-1));
          Error `Badfd
    end
    else if Det.is_live det then direct_fs_read t.vfs fd ~max
    else
      match Det.payload_at_turn det with
      | Wire.P_fs_read_len (-1) -> Error `Badfd
      | Wire.P_fs_read_len 0 -> Error `Eof
      | Wire.P_fs_read_len n ->
          let cs = Vfs.read_exact t.vfs fd n in
          Det.fold_section det (h_fs_read cs);
          Ok cs
      | _ -> diverge t "expected fs read length"
  in
  Det.det_end det;
  r

(* {1 The syscall table}

   One table serves every role, and each operation reads the role when it
   runs: a replaying secondary ([live] false) replays the primary's logged
   results, and every other namespace runs the real operation — logged on
   a recording primary, direct when standalone or on a live survivor.
   Shadow sockets and listeners exist only on a secondary; after go-live
   each resolves to its restored real counterpart on first use. *)

let syscall_table t =
  let listen_group ~port ~shards ~backlog ~overflow =
    if t.live then begin
      match Hashtbl.find_opt t.restored_listeners (port, 0) with
      | Some _ ->
          List.init shards (fun i ->
              real_listener (live_listener t ~port ~shard:i))
      | None ->
          Tcp.listen_group (stack_exn t) ~port ~shards ?backlog ~overflow ()
          |> Array.to_list
          |> List.map real_listener
    end
    else begin
      Shadow.register_listener (shadow_of t) ~port ~shards ~backlog ~overflow;
      List.init shards (fun i ->
          { Api.li = Api.L_shadow { sh_port = port; sh_shard = i } })
    end
  in
  {
    Api.kernel = t.kernel;
    pt = t.pt;
    thread =
      {
        Api.spawn =
          (fun name f ->
            match t.det with
            | Some det -> spawn_replicated t det name f
            | None -> Kernel.spawn_thread t.kernel ~name f);
        join = (fun th -> ignore (Engine.join th));
        compute = (fun d -> Kernel.compute t.kernel d);
        gettimeofday =
          (fun () ->
            if t.live then real_gettimeofday t
            else
              let det = det_exn t in
              match Det.next_syscall det with
              | Det.Replayed (Wire.R_gettimeofday v) ->
                  Det.fold_syscall det (h_time v);
                  v
              | Det.Replayed _ -> diverge t "expected gettimeofday result"
              | Det.Went_live -> real_gettimeofday t);
      };
    (* The environment was replicated at launch (§3, FT-Namespace), so the
       lookup itself is deterministic and needs no logging. *)
    env = { Api.getenv = (fun k -> List.assoc_opt k t.env) };
    net =
      {
        Api.listen =
          (fun ~port ->
            List.hd (listen_group ~port ~shards:1 ~backlog:None ~overflow:`Drop));
        listen_group;
        accept =
          (fun l ->
            match l.Api.li with
            | Api.L_real rl -> real_accept t rl
            | Api.L_shadow { sh_port; sh_shard } -> (
                let det = det_exn t in
                match Det.next_syscall det with
                | Det.Replayed (Wire.R_accept cid) ->
                    Det.fold_syscall det (h_accept cid);
                    if cid < 0 then Error `Reset
                    else
                      Ok
                        {
                          Api.si =
                            Api.S_shadow (Shadow.claim_accept (shadow_of t) ~cid);
                        }
                | Det.Replayed _ -> diverge t "expected accept result"
                | Det.Went_live ->
                    let rl = live_listener t ~port:sh_port ~shard:sh_shard in
                    l.Api.li <- Api.L_real rl;
                    real_accept t rl));
        close_listener =
          (fun l ->
            match l.Api.li with
            | Api.L_real rl -> close_real_listener t rl
            | Api.L_shadow { sh_port; _ } -> (
                match Hashtbl.find_opt t.restored_listeners (sh_port, 0) with
                | Some rl when t.live -> close_real_listener t rl
                | _ -> Shadow.close_listener (shadow_of t) ~port:sh_port));
        recv =
          (fun s ~max ->
            match s.Api.si with
            | Api.S_real c -> real_recv t c ~max
            | Api.S_shadow sc -> (
                let det = det_exn t in
                match Det.next_syscall det with
                | Det.Replayed (Wire.R_read { cid; len }) ->
                    if cid <> Shadow.cid sc then diverge t "read on wrong connection"
                    else if len = -1 then Error `Reset
                    else if len = 0 then begin
                      Det.fold_syscall det (h_recv 0 []);
                      Error `Eof
                    end
                    else begin
                      (* The bytes come from the shadow's delta-logged input
                         stream: hashing them here cross-checks the TCP
                         delta path against the primary's real receive. *)
                      let data = Shadow.read_bytes sc len in
                      Det.fold_syscall det (h_recv len data);
                      Ok data
                    end
                | Det.Replayed _ -> diverge t "expected read result"
                | Det.Went_live -> (
                    match restored_conn s sc with
                    | Some rc -> real_recv t rc ~max
                    | None -> dead_recv t ~cid:(Shadow.cid sc))));
        send =
          (fun s chunk ->
            match s.Api.si with
            | Api.S_real c -> real_send t c chunk
            | Api.S_shadow sc -> (
                let det = det_exn t in
                match Det.next_syscall det with
                | Det.Replayed (Wire.R_write { cid; len }) ->
                    if cid <> Shadow.cid sc then diverge t "write on wrong connection"
                    else if len = -1 then Error `Reset
                    else begin
                      if len <> Payload.chunk_len chunk then
                        diverge t "write length mismatch";
                      Shadow.write_bytes sc chunk;
                      Det.fold_syscall det (h_send len chunk);
                      Ok ()
                    end
                | Det.Replayed _ -> diverge t "expected write result"
                | Det.Went_live -> (
                    match restored_conn s sc with
                    | Some rc -> real_send t rc chunk
                    | None -> dead_send t ~cid:(Shadow.cid sc))));
        close =
          (fun s ->
            match s.Api.si with
            | Api.S_real c -> real_close t c
            | Api.S_shadow sc -> (
                let det = det_exn t in
                match Det.next_syscall det with
                | Det.Replayed (Wire.R_close { cid }) ->
                    if cid <> Shadow.cid sc then diverge t "close on wrong connection";
                    Det.fold_syscall det (h_close cid);
                    Shadow.mark_app_closed sc
                | Det.Replayed _ -> diverge t "expected close result"
                | Det.Went_live -> (
                    match restored_conn s sc with
                    | Some rc -> real_close t rc
                    | None -> dead_close t ~cid:(Shadow.cid sc))));
        poll =
          (fun socks ~timeout ->
            (* Shadow sockets replay the primary's poll results; after
               go-live, every sock in the set has (or gets) a restored real
               connection and the poll runs for real. *)
            let all_real () =
              List.for_all
                (fun s ->
                  match s.Api.si with
                  | Api.S_real _ -> true
                  | Api.S_shadow sc -> Option.is_some (restored_conn s sc))
                socks
            in
            if t.live && all_real () then
              real_poll t socks
                (List.filter_map
                   (fun s ->
                     match s.Api.si with Api.S_real c -> Some c | _ -> None)
                   socks)
                ~timeout
            else
              let det = det_exn t in
              match Det.next_syscall det with
              | Det.Replayed (Wire.R_poll { ready }) ->
                  Det.fold_syscall det (h_poll ready);
                  List.filteri (fun i _ -> List.mem i ready) socks
              | Det.Replayed _ -> diverge t "expected poll result"
              | Det.Went_live ->
                  (* Transitioning: report the restorable sockets.  A
                     promoted primary logs this result too — the per-thread
                     stream must stay gapless for the regenerated backup. *)
                  poll_result t socks
                    (List.mapi (fun i s -> (i, s)) socks
                    |> List.filter_map (fun (i, s) ->
                           match s.Api.si with
                           | Api.S_real _ -> Some i
                           | Api.S_shadow sc ->
                               if Shadow.restored sc <> None then Some i
                               else None)));
      };
    fs =
      {
        Api.open_ =
          (fun ~path ~create ->
            match t.det with
            | None -> Vfs.open_file t.vfs ~path ~create
            | Some det ->
                Det.det_start det ~chans:[ Det.chan_fs ];
                let fd = Vfs.open_file t.vfs ~path ~create in
                Det.fold_section det (h_fs_open path);
                Det.det_end det;
                fd);
        read =
          (fun fd ~max ->
            match t.det with
            | None -> direct_fs_read t.vfs fd ~max
            | Some det -> replicated_fs_read t det fd ~max);
        append =
          (fun fd chunk ->
            match t.det with
            | None -> Vfs.append t.vfs fd chunk
            | Some det ->
                Det.det_start det ~chans:[ Det.chan_fs ];
                Vfs.append t.vfs fd chunk;
                Det.fold_section det (h_fs_append chunk);
                Det.det_end det);
        close =
          (fun fd ->
            match t.det with
            | None -> Vfs.close t.vfs fd
            | Some det ->
                Det.det_start det ~chans:[ Det.chan_fs ];
                Vfs.close t.vfs fd;
                Det.fold_section det h_fs_close;
                Det.det_end det);
        size = (fun ~path -> Vfs.size t.vfs ~path);
      };
  }

let record_handler t record =
  let det = det_exn t in
  match record with
  | Wire.Sync_tuple { ft_pid; thread_seq; chans; payload } ->
      Det.deliver_tuple det ~ft_pid ~thread_seq ~chans ~payload
  | Wire.Syscall_result { ft_pid; result; _ } ->
      Det.deliver_syscall det ~ft_pid ~result
  | Wire.Tcp_delta d -> Shadow.apply_delta (shadow_of t) d

(* {1 Divergence digests} *)

let attach_digest t dig =
  let det = det_exn t in
  Det.attach_digest det dig;
  (* The launch environment is part of the replicated initial state. *)
  List.iter
    (fun (k, v) -> Digest.fold_string dig (k ^ "=" ^ v))
    (List.sort compare t.env)

let digest t = match t.det with Some d -> Det.digest d | None -> None
let mutate_skip_digest t ~global_seq = Det.mutate_skip_digest (det_exn t) ~global_seq
let chan_progress t = Det.chan_progress (det_exn t)
let chan_restore t chans = Det.chan_progress_restore (det_exn t) chans
let chan_cursors t = Det.chan_cursors (det_exn t)
let divergence t = t.diverged

(* {1 Launch} *)

(* The application gets its syscall table when its main thread starts. *)
let start_app t app =
  match t.det with
  | None ->
      Kernel.spawn_thread t.kernel ~name:"app-main" (fun () ->
          app (syscall_table t))
  | Some det when Det.role det = Det.Primary_role ->
      let ft_pid = Det.alloc_ftpid det in
      Kernel.spawn_thread t.kernel ~name:"app-main" (fun () ->
          Det.register_thread det ~ft_pid;
          app (syscall_table t))
  | Some det ->
      Kernel.spawn_thread t.kernel ~name:"app-main-replica" (fun () ->
          Det.register_thread det ~ft_pid:0;
          app (syscall_table t))

(* {1 Role changes} *)

type promotion = {
  pr_group : Msglayer.group;
  pr_output_commit : bool;
}

(* The shadow's TCP state becomes real on [stack]: re-listen each shadow
   listener group in the shape the replayed app registered, so accept
   routing and shed behaviour survive the failover; restore the live
   connections; and hand the ones the application never accepted to the
   fresh listeners, in establishment (cid) order, instead of orphaning
   them.  Output commit guarantees no response to those was ever
   released, so a fresh accept-and-serve is exactly-once from the client's
   point of view.  Returns the (cid, restored conn) pairs. *)
let restore_tcp t stack =
  let shadow = shadow_of t in
  List.iter (fun lc -> ignore (relisten t stack lc)) (Shadow.listener_configs shadow);
  let restored = Shadow.restore_all shadow stack in
  List.iter
    (fun (cid, rc) ->
      if not (Shadow.was_accepted shadow ~cid) then Tcp.requeue_restored stack rc)
    (List.sort (fun (a, _) (b, _) -> compare a b) restored);
  restored

let go_live t ?stack ?promote () =
  let restored = Option.fold ~none:[] ~some:(restore_tcp t) stack in
  Trace.warnf log ~eng:(Kernel.engine t.kernel) "namespace %s going live%s"
    (Kernel.name t.kernel)
    (if promote = None then "" else " (promoted)");
  (* A replaying secondary has no stack of its own. *)
  t.stack <- stack;
  t.live <- true;
  (* The pthread hooks stay installed: a thread may be inside a
     deterministic section right now, and its det_end must still run.  In
     live mode the hooks degrade to plain global-mutex bracketing. *)
  match promote with
  | None -> Det.go_live (det_exn t)
  | Some pr ->
      (* Promotion: this survivor becomes the next epoch's recording
         primary.  Must be called at the quiesced point (replay idle); the
         restore-time retransmits above replay from the old epoch's deltas
         on the regenerated backup and must not be logged again.  No
         suspension points below, so the role flip is atomic with respect
         to application threads.  Restored connections keep their
         replication cids, so the promoted primary's deltas continue the
         same per-connection streams. *)
      t.output_commit <- pr.pr_output_commit;
      List.iter
        (fun (cid, c) ->
          Hashtbl.replace t.cid_of_conn (Tcp.conn_id c) cid;
          if cid >= t.next_cid then t.next_cid <- cid + 1)
        restored;
      Option.iter (install_primary_tcp_hooks t pr.pr_group) t.stack;
      Det.promote (det_exn t) pr.pr_group;
      (* The pthread hooks record snapshots its role flags at creation:
         re-install so is_replica/defer_wakes reflect the promoted role. *)
      Pthread.set_hooks t.pt (Some (Det.pthread_hooks (det_exn t)))

let replay_idle t = Det.replay_idle (det_exn t)

let go_solo t =
  Trace.warnf log ~eng:(Kernel.engine t.kernel) "namespace %s going solo"
    (Kernel.name t.kernel);
  (* Keep the pthread hooks (a thread may be mid-section; see go_live);
     the caller disables the message layer, after which det sections reduce
     to the global mutex and appends become no-ops. *)
  match t.stack with Some s -> Tcp.set_hooks s None | None -> ()

let det_ops t = match t.det with Some d -> Det.det_ops d | None -> 0

let vfs_of t = t.vfs
