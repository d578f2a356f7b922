open Ftsim_sim
open Ftsim_netstack

type conn = {
  cid : int;
  local : Packet.addr;
  remote : Packet.addr;
  instream : Payload.Buf.t;  (* logged input; base = replay-consumed offset *)
  out_pending : Payload.Buf.t;  (* base = client-acknowledged snd_una *)
  mutable peer_fin : bool;
  mutable app_closed : bool;
  mutable fully_closed : bool;  (* close replayed and peer FIN logged *)
  mutable claimed : bool;
      (* an R_accept for this cid was replayed: the app owns the connection.
         Still false at failover = the connection was established (and
         logged) but sat in the accept queue when the primary died; go-live
         must hand it back to a listener, not orphan it. *)
  mutable restored_conn : Tcp.conn option;
}

type listener_config = {
  lc_port : int;
  lc_shards : int;
  lc_backlog : int option;
  lc_overflow : Tcp.overflow;
}

type t = {
  conns : (int, conn) Hashtbl.t;
  mutable listeners : listener_config list;
}

let create () = { conns = Hashtbl.create 64; listeners = [] }

let find t ~cid = Hashtbl.find_opt t.conns cid

let conn_exn t cid =
  match find t ~cid with
  | Some c -> c
  | None -> failwith (Printf.sprintf "Shadow: unknown cid %d" cid)

let apply_delta t = function
  | Wire.D_new_conn { cid; local; remote } ->
      Hashtbl.replace t.conns cid
        {
          cid;
          local;
          remote;
          instream = Payload.Buf.create ();
          out_pending = Payload.Buf.create ();
          peer_fin = false;
          app_closed = false;
          fully_closed = false;
          claimed = false;
          restored_conn = None;
        }
  | Wire.D_in_data { cid; data } ->
      let c = conn_exn t cid in
      List.iter (Payload.Buf.append c.instream) data
  | Wire.D_out_seg { cid; _ } ->
      (* Replay regenerates the output itself: the logged segment size only
         costs traffic, and the lookup only checks the connection. *)
      ignore (conn_exn t cid)
  | Wire.D_ack_progress { cid; snd_una } ->
      let c = conn_exn t cid in
      Payload.Buf.drop_to c.out_pending snd_una
  | Wire.D_peer_fin { cid } ->
      let c = conn_exn t cid in
      c.peer_fin <- true

let claim_accept t ~cid =
  let c = conn_exn t cid in
  c.claimed <- true;
  c

let was_accepted t ~cid =
  match find t ~cid with Some c -> c.claimed | None -> true

let read_bytes c n = Payload.Buf.take c.instream n

let write_bytes c chunk = Payload.Buf.append c.out_pending chunk

let mark_app_closed c = c.app_closed <- true

let register_listener t ~port ~shards ~backlog ~overflow =
  if not (List.exists (fun lc -> lc.lc_port = port) t.listeners) then
    t.listeners <-
      { lc_port = port; lc_shards = shards; lc_backlog = backlog; lc_overflow = overflow }
      :: t.listeners

let close_listener t ~port =
  t.listeners <- List.filter (fun lc -> lc.lc_port <> port) t.listeners

let listener_config t ~port =
  List.find_opt (fun lc -> lc.lc_port = port) t.listeners

let cid c = c.cid
let pending_output c = Payload.Buf.length c.out_pending

let is_live c =
  (* A connection whose teardown completed on the primary needs no
     restoration: the client saw a full close. *)
  not (c.app_closed && c.peer_fin && pending_output c = 0)

let live_conns t =
  Hashtbl.fold (fun _ c acc -> if is_live c then c :: acc else acc) t.conns []

let listener_configs t = t.listeners

let restore_all t stack =
  let restored =
    List.filter_map
      (fun c ->
        let unacked =
          Payload.Buf.peek_range c.out_pending
            ~off:(Payload.Buf.base c.out_pending)
            ~len:(Payload.Buf.length c.out_pending)
        in
        let unread =
          Payload.Buf.peek_range c.instream
            ~off:(Payload.Buf.base c.instream)
            ~len:(Payload.Buf.length c.instream)
        in
        let rc =
          Tcp.restore stack
            {
              Tcp.l_local = c.local;
              l_remote = c.remote;
              l_snd_una = Payload.Buf.base c.out_pending;
              l_rcv_nxt =
                Payload.Buf.limit c.instream + (if c.peer_fin then 1 else 0);
              l_unacked = unacked;
              l_unread = unread;
              l_peer_fin = c.peer_fin;
            }
        in
        c.restored_conn <- Some rc;
        if c.app_closed then Tcp.close rc;
        Some (c.cid, rc))
      (live_conns t)
  in
  restored

let restored c = c.restored_conn
