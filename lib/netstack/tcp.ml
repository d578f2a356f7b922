open Ftsim_sim

(* The stack's constants: a LAN-sized window and send buffer, a fixed RTO
   and the CPU one segment costs the stack. *)
let mss = 1460
let rwnd = 64 * 1024  (* advertised receive window *)
let sndbuf_cap = 256 * 1024  (* writers block beyond it *)
let rto = Time.ms 200
let per_seg_cpu = Time.us 2

exception Connection_closed

type overflow = [ `Drop | `Reset ]

type conn = {
  stack : stack;
  id : int;
  local : Packet.addr;
  remote : Packet.addr;
  mutable established : bool;
  established_iv : unit Ivar.t;
  (* send side; sndbuf.base = snd_una *)
  sndbuf : Payload.Buf.t;
  mutable snd_nxt : int;
  mutable snd_max : int;  (* transmit high-water mark; never rewound *)
  mutable peer_wnd : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable fin_ever_sent : bool;  (* sticky: a FIN has been on the wire *)
  mutable fin_acked : bool;
  (* receive side; rcvbuf.base = app read offset, rcvbuf.limit = rcv_nxt *)
  rcvbuf : Payload.Buf.t;
  mutable rcv_nxt : int;
  mutable peer_fin : bool;
  (* wakeups *)
  readable : Waitq.t;
  writable : Waitq.t;
  send_wake : Waitq.t;
  mutable aborted : bool;
  (* cancellable timers (engine wheel); None = disarmed *)
  mutable rto_timer : Engine.handle option;
  mutable syn_timer : Engine.handle option;
}

and listener = {
  lport : int;
  shard : int;
  accept_q : conn option Bqueue.t;
      (* [None] is the close sentinel: every accept that drains it re-posts
         it, so all acceptors blocked on the shard observe the close. *)
  mutable l_pending : int;
      (* half-open connections routed to this shard (SYN-ACK sent, handshake
         ACK not yet seen); counted against the backlog together with the
         accept queue *)
  group : group;
}

and group = {
  g_stack : stack;
  g_port : int;
  mutable g_shards : listener array;  (* patched right after creation *)
  g_backlog : int option;  (* per-shard; [None] = unbounded *)
  g_overflow : overflow;
  mutable g_closed : bool;
}

and hooks = {
  on_accept : conn -> unit;
  on_input : conn -> Payload.chunk list -> unit;
  ack_gate : conn -> unit;
  egress_gate : conn -> len:int -> unit;
  on_ack_progress : conn -> snd_una:int -> unit;
  on_peer_fin : conn -> unit;
}

and stack = {
  env : Netenv.t;
  s_ip : string;
  mutable nic : Nic.t option;
  conns : (int, conn list) Hashtbl.t;
      (* by [ports_key]: the connections on one port pair, which differ in
         remote host *)
  listeners : (int, group) Hashtbl.t;
  mutable hooks : hooks option;
  mutable next_ephemeral : int;
  mutable next_conn_id : int;
  rx_q : Packet.t Bqueue.t;
  m_segs_in : Metrics.Counter.t;
  m_segs_out : Metrics.Counter.t;
  m_bytes_in : Metrics.Counter.t;
  m_bytes_out : Metrics.Counter.t;
  m_ovf_drop : Metrics.Counter.t;
  m_ovf_rst : Metrics.Counter.t;
}

let log = Trace.make "net.tcp"

let set_hooks s h = s.hooks <- h

let local_addr c = c.local
let remote_addr c = c.remote
let conn_id c = c.id
let is_established c = c.established
let snd_una c = Payload.Buf.base c.sndbuf
let snd_nxt c = c.snd_nxt
let rcv_nxt c = c.rcv_nxt

let segs_out s = Metrics.Counter.value s.m_segs_out
let accept_overflow_drop s = Metrics.Counter.value s.m_ovf_drop
let accept_overflow_rst s = Metrics.Counter.value s.m_ovf_rst
let listener_port l = l.lport
let listener_shard l = l.shard

(* SYN routing: a pure hash of the 4-tuple's variable half (the local IP is
   fixed per stack), finalized with an avalanche mix so consecutive
   ephemeral ports from one client spread across shards.  Stability of this
   function across calls and replicas is what lets accept-shard assignment
   replicate for free: each acceptor thread owns one shard, so its accepts
   land in its own per-thread syscall FIFO on the primary and replay there
   on the backup. *)
let shard_of_tuple ~(remote : Packet.addr) ~port ~shards =
  if shards <= 1 then 0
  else begin
    let h = Hashtbl.hash (remote.Packet.host, remote.Packet.port, port) in
    let h = h lxor (h lsr 16) in
    let h = h * 0x7feb352d land 0x3fffffff in
    let h = h lxor (h lsr 15) in
    let h = h * 0x846ca68b land 0x3fffffff in
    let h = h lxor (h lsr 13) in
    h mod shards
  end

(* A connection is demuxed by (remote host, remote port, local port).  The
   table's int key packs the two ports, and the host is matched in the
   entry, so looking a segment's connection up allocates nothing. *)
let ports_key ~remote_port ~local_port = (remote_port lsl 31) lor local_port

let conn_ports c =
  ports_key ~remote_port:c.remote.Packet.port ~local_port:c.local.Packet.port

let other_host c c' = not (String.equal c'.remote.Packet.host c.remote.Packet.host)

let conns_on s k = try Hashtbl.find s.conns k with Not_found -> []

(* Enter [c] under its key, replacing any connection with the same one. *)
let add_conn s c =
  let k = conn_ports c in
  Hashtbl.replace s.conns k (c :: List.filter (other_host c) (conns_on s k))

(* Remove whatever connection has [c]'s key. *)
let remove_conn s c =
  let k = conn_ports c in
  match List.filter (other_host c) (conns_on s k) with
  | [] -> Hashtbl.remove s.conns k
  | rest -> Hashtbl.replace s.conns k rest

let rec find_host host = function
  | [] -> raise Not_found
  | c :: rest ->
      if String.equal c.remote.Packet.host host then c else find_host host rest

(* The connection [pkt] belongs to.  @raise Not_found if none. *)
let find_conn s (pkt : Packet.t) =
  find_host pkt.Packet.src.Packet.host
    (Hashtbl.find s.conns
       (ports_key ~remote_port:pkt.Packet.src.Packet.port
          ~local_port:pkt.Packet.dst.Packet.port))

let fin_seq c =
  (* FIN occupies one sequence slot after the last data byte. *)
  Payload.Buf.limit c.sndbuf

let wake_all q = ignore (Waitq.wake_all q)

let transmit s (pkt : Packet.t) =
  Metrics.Counter.incr s.m_segs_out;
  Metrics.Counter.add s.m_bytes_out (Packet.wire_size pkt);
  let ev = Engine.evlog s.env.Netenv.eng in
  if Evlog.detail ev then begin
    let len = Packet.payload_len pkt in
    Evlog.begin_instant ev ~comp:"net.tcp" "seg.tx";
    Evlog.arg_int ev "seq" pkt.Packet.seq;
    Evlog.arg_int ev "len" len;
    Evlog.close ev
  end;
  match s.nic with
  | Some nic -> Nic.transmit nic pkt
  | None -> Trace.debugf log ~eng:s.env.Netenv.eng "tx with no NIC, dropped"

let make_packet c ?(flags = Packet.data_flags) ?(payload = []) ~seq () =
  {
    Packet.src = c.local;
    dst = c.remote;
    seq;
    ack_seq = c.rcv_nxt;
    window = rwnd;
    flags;
    payload;
  }

let send_pure_ack c = transmit c.stack (make_packet c ~seq:c.snd_nxt ())

(* {1 Sender process}

   One process per connection drives the send window: it segments the send
   buffer, passes each segment through the egress gate (output commit), and
   hands it to the NIC.  Retransmission (go-back-N) rewinds [snd_nxt]. *)

let rec sender_loop c =
  let s = c.stack in
  if c.aborted || c.fin_acked then ()
  else begin
    let in_flight = c.snd_nxt - snd_una c in
    let window = max 0 (c.peer_wnd - in_flight) in
    let avail = Payload.Buf.limit c.sndbuf - c.snd_nxt in
    if c.established && avail > 0 && window > 0 then begin
      let n = min mss (min avail window) in
      let seq0 = c.snd_nxt in
      (match s.hooks with
      | Some h -> h.egress_gate c ~len:n
      | None -> ());
      s.env.Netenv.compute per_seg_cpu;
      (* The gate and the CPU charge can suspend us; an RTO rewind or an ACK
         may have moved the window meanwhile.  Only transmit and advance if
         the segment is still the next thing to send. *)
      if (not c.aborted) && c.snd_nxt = seq0 && Payload.Buf.base c.sndbuf <= seq0
      then begin
        let payload = Payload.Buf.peek_range c.sndbuf ~off:seq0 ~len:n in
        let n = Payload.total_len payload in
        if n > 0 then begin
          transmit s (make_packet c ~payload ~seq:seq0 ());
          c.snd_nxt <- seq0 + n;
          if c.snd_nxt > c.snd_max then begin
            c.snd_max <- c.snd_nxt;
            ensure_rto c
          end
        end
      end;
      sender_loop c
    end
    else if
      c.established && c.fin_queued && (not c.fin_sent)
      && c.snd_nxt >= Payload.Buf.limit c.sndbuf
    then begin
      (match s.hooks with Some h -> h.egress_gate c ~len:0 | None -> ());
      if not c.aborted then begin
        c.fin_sent <- true;
        c.fin_ever_sent <- true;
        transmit s
          (make_packet c ~flags:(Packet.flag ~ack:true ~fin:true ()) ~seq:(fin_seq c) ());
        ensure_rto c
      end;
      sender_loop c
    end
    else begin
      ignore (Sync.wait_on c.send_wake);
      sender_loop c
    end
  end

(* Retransmission timer: if no ACK progress happened during an RTO while
   data (or a FIN) was outstanding, rewind to [snd_una] and resend
   (go-back-N).  The timer is a cancellable engine-wheel entry armed when
   something first reaches the wire and cancelled as soon as everything is
   acknowledged, so idle connections hold no pending events at all. *)
(* Judged against the transmit high-water mark, not [snd_nxt]: an RTO
   rewind must leave the timer armed until the peer actually acknowledges
   (the rewound sender may race us). *)
and outstanding c =
  c.snd_max > snd_una c || (c.fin_ever_sent && not c.fin_acked)

and cancel_rto c =
  match c.rto_timer with
  | Some h ->
      Engine.cancel h;
      c.rto_timer <- None
  | None -> ()

and ensure_rto c = if c.rto_timer = None then arm_rto c

and arm_rto c =
  let s = c.stack in
  let eng = s.env.Netenv.eng in
  let last_una = snd_una c in
  c.rto_timer <-
    Some
      (Engine.timer eng
         ~at:(Engine.now eng + rto)
         (fun () ->
           c.rto_timer <- None;
           if (not c.aborted) && (not c.fin_acked) && outstanding c then begin
             if snd_una c = last_una then begin
               Trace.debugf log ~eng "conn %d RTO: rewind %d -> %d" c.id
                 c.snd_nxt last_una;
               let ev = Engine.evlog eng in
               Evlog.begin_instant ev ~comp:"net.tcp" "rto";
               Evlog.arg_int ev "conn" c.id;
               Evlog.arg_int ev "rewind_from" c.snd_nxt;
               Evlog.arg_int ev "rewind_to" last_una;
               Evlog.close ev;
               c.snd_nxt <- last_una;
               if c.fin_sent && not c.fin_acked then c.fin_sent <- false;
               wake_all c.send_wake
             end;
             arm_rto c
           end))

let spawn_conn_procs c =
  let s = c.stack in
  ignore (s.env.Netenv.spawn (Printf.sprintf "tcp-snd-%d" c.id) (fun () -> sender_loop c))

let make_conn stack ~local ~remote ~established () =
  stack.next_conn_id <- stack.next_conn_id + 1;
  let c =
    {
      stack;
      id = stack.next_conn_id;
      local;
      remote;
      established;
      established_iv = Ivar.create ();
      sndbuf = Payload.Buf.create ();
      snd_nxt = 0;
      snd_max = 0;
      peer_wnd = rwnd;
      fin_queued = false;
      fin_sent = false;
      fin_ever_sent = false;
      fin_acked = false;
      rcvbuf = Payload.Buf.create ();
      rcv_nxt = 0;
      peer_fin = false;
      readable = Waitq.create ();
      writable = Waitq.create ();
      send_wake = Waitq.create ();
      aborted = false;
      rto_timer = None;
      syn_timer = None;
    }
  in
  if established then Ivar.fill c.established_iv ();
  add_conn stack c;
  spawn_conn_procs c;
  c

(* {1 Receive path} *)

let process_ack c (pkt : Packet.t) =
  c.peer_wnd <- pkt.Packet.window;
  let old_una = snd_una c in
  if pkt.Packet.ack_seq > old_una then begin
    let data_limit = Payload.Buf.limit c.sndbuf in
    let acked_data = min pkt.Packet.ack_seq data_limit in
    Payload.Buf.drop_to c.sndbuf acked_data;
    if c.snd_nxt < acked_data then
      (* The peer has more than we think we sent: it is deduplicating a
         post-failover retransmission.  Skip ahead. *)
      c.snd_nxt <- acked_data;
    if c.snd_max < acked_data then c.snd_max <- acked_data;
    if c.fin_sent && pkt.Packet.ack_seq > data_limit then c.fin_acked <- true;
    (* Everything on the wire is acknowledged: disarm the retransmission
       timer eagerly rather than letting a dead event ride out its RTO. *)
    if c.fin_acked || not (outstanding c) then cancel_rto c;
    (match c.stack.hooks with
    | Some h -> h.on_ack_progress c ~snd_una:(snd_una c)
    | None -> ());
    wake_all c.writable;
    wake_all c.send_wake
  end
  else if c.fin_sent && pkt.Packet.ack_seq > Payload.Buf.limit c.sndbuf then begin
    c.fin_acked <- true;
    cancel_rto c;
    wake_all c.send_wake
  end

let process_payload c (pkt : Packet.t) =
  let len = Packet.payload_len pkt in
  if len = 0 then false
  else begin
    let seq = pkt.Packet.seq in
    if seq > c.rcv_nxt then begin
      (* Gap (lost packets at a dead NIC): drop; our ACK below repeats
         rcv_nxt, and the peer's RTO recovers. *)
      true
    end
    else if seq + len <= c.rcv_nxt then
      (* Complete duplicate (failover retransmission): re-ACK. *)
      true
    else begin
      let skip = c.rcv_nxt - seq in
      let fresh =
        if skip = 0 then pkt.Packet.payload
        else begin
          (* Trim the already-received prefix. *)
          let rec trim n = function
            | [] -> []
            | ch :: rest ->
                let cl = Payload.chunk_len ch in
                if n >= cl then trim (n - cl) rest
                else if n = 0 then ch :: rest
                else snd (Payload.split_chunk ch n) :: rest
          in
          trim skip pkt.Packet.payload
        end
      in
      List.iter (Payload.Buf.append c.rcvbuf) fresh;
      c.rcv_nxt <- c.rcv_nxt + Payload.total_len fresh;
      (match c.stack.hooks with
      | Some h ->
          h.on_input c fresh;
          h.ack_gate c
      | None -> ());
      wake_all c.readable;
      true
    end
  end

let process_fin c (pkt : Packet.t) =
  let fin_at = pkt.Packet.seq + Packet.payload_len pkt in
  if (not c.peer_fin) && fin_at <= c.rcv_nxt then begin
    c.peer_fin <- true;
    c.rcv_nxt <- c.rcv_nxt + 1;
    (match c.stack.hooks with Some h -> h.on_peer_fin c | None -> ());
    wake_all c.readable;
    true
  end
  else if c.peer_fin then true (* duplicate FIN: re-ACK *)
  else false

(* Fully closed connections (our FIN acked, peer FIN received) leave the
   demux table at once: there is no TIME_WAIT linger. *)
let maybe_reap c = if c.fin_acked && c.peer_fin then remove_conn c.stack c

let handle_established c (pkt : Packet.t) =
  if pkt.Packet.flags.Packet.ack then process_ack c pkt;
  let acked_data = process_payload c pkt in
  let acked_fin = if pkt.Packet.flags.Packet.fin then process_fin c pkt else false in
  if acked_data || acked_fin then send_pure_ack c;
  maybe_reap c

let cancel_syn c =
  match c.syn_timer with
  | Some h ->
      Engine.cancel h;
      c.syn_timer <- None
  | None -> ()

let establish c =
  if not c.established then begin
    c.established <- true;
    cancel_syn c;
    ignore (Ivar.try_fill c.established_iv ());
    wake_all c.send_wake
  end

let abort c =
  if not c.aborted then begin
    c.aborted <- true;
    cancel_rto c;
    cancel_syn c;
    remove_conn c.stack c;
    wake_all c.readable;
    wake_all c.writable;
    wake_all c.send_wake
  end

(* An incoming RST tears the connection down locally.  A connect blocked on
   the handshake is woken through the established ivar and observes
   [aborted]; readers see end-of-stream. *)
let handle_rst c =
  let s = c.stack in
  Trace.debugf log ~eng:s.env.Netenv.eng "conn %d reset by peer" c.id;
  Evlog.emit (Engine.evlog s.env.Netenv.eng) ~comp:"net.tcp" "reset"
    ~args:[ ("conn", Evlog.Int c.id) ];
  abort c;
  ignore (Ivar.try_fill c.established_iv ())

(* Backlog overflow at SYN time: the routed shard is full, so the SYN never
   becomes a connection.  [`Drop] models Linux's silent SYN drop (the
   client's SYN retransmission retries later); [`Reset] refuses loudly.
   Either way the handshake never completes, so the replication layer never
   sees the connection — overflow decisions need no sync tuples. *)
let overflow_syn s g (pkt : Packet.t) =
  let eng = s.env.Netenv.eng in
  (match g.g_overflow with
  | `Drop -> Metrics.Counter.incr s.m_ovf_drop
  | `Reset ->
      Metrics.Counter.incr s.m_ovf_rst;
      transmit s
        {
          Packet.src = pkt.Packet.dst;
          dst = pkt.Packet.src;
          seq = 0;
          ack_seq = pkt.Packet.seq + 1;
          window = 0;
          flags = Packet.flag ~ack:true ~rst:true ();
          payload = [];
        });
  Evlog.emit (Engine.evlog eng) ~comp:"net.tcp" "accept.overflow"
    ~args:
      [
        ("port", Evlog.Int g.g_port);
        ("mode", Evlog.Str (match g.g_overflow with `Drop -> "drop" | `Reset -> "rst"));
      ]

let route_shard g ~(remote : Packet.addr) =
  let shards = Array.length g.g_shards in
  g.g_shards.(shard_of_tuple ~remote ~port:g.g_port ~shards)

let handle_packet s (pkt : Packet.t) =
  Metrics.Counter.incr s.m_segs_in;
  Metrics.Counter.add s.m_bytes_in (Packet.wire_size pkt);
  match find_conn s pkt with
  | c ->
      if c.aborted then ()
      else if pkt.Packet.flags.Packet.rst then handle_rst c
      else if c.established then handle_established c pkt
      else if pkt.Packet.flags.Packet.syn && pkt.Packet.flags.Packet.ack then begin
        (* client side: SYN-ACK *)
        c.peer_wnd <- pkt.Packet.window;
        establish c;
        send_pure_ack c
      end
      else if pkt.Packet.flags.Packet.ack then begin
        (* server side: handshake-completing ACK (possibly with data) *)
        c.peer_wnd <- pkt.Packet.window;
        establish c;
        let g_opt = Hashtbl.find_opt s.listeners c.local.Packet.port in
        let ev = Engine.evlog s.env.Netenv.eng in
        Evlog.begin_instant ev ~comp:"net.tcp" "accept";
        Evlog.arg_int ev "conn" c.id;
        Evlog.arg_int ev "port" c.local.Packet.port;
        (* only multi-shard groups annotate the event, so shards=1 traces
           stay byte-identical to the single-listener era *)
        (match g_opt with
        | Some g when Array.length g.g_shards > 1 ->
            Evlog.arg_int ev "shard" (route_shard g ~remote:c.remote).shard
        | _ -> ());
        Evlog.close ev;
        (match g_opt with
        | Some g ->
            let l = route_shard g ~remote:c.remote in
            if l.l_pending > 0 then l.l_pending <- l.l_pending - 1;
            Bqueue.put l.accept_q (Some c)
        | None -> ());
        (match s.hooks with Some h -> h.on_accept c | None -> ());
        if Packet.payload_len pkt > 0 || pkt.Packet.flags.Packet.fin then
          handle_established c pkt
      end
  | exception Not_found ->
      if pkt.Packet.flags.Packet.rst then
        Trace.debugf log ~eng:s.env.Netenv.eng "RST for unknown conn dropped"
      else if pkt.Packet.flags.Packet.syn && not pkt.Packet.flags.Packet.ack then begin
        match Hashtbl.find_opt s.listeners pkt.Packet.dst.Packet.port with
        | Some g ->
            let l = route_shard g ~remote:pkt.Packet.src in
            let over =
              match g.g_backlog with
              | Some b -> Bqueue.length l.accept_q + l.l_pending >= b
              | None -> false
            in
            if over then overflow_syn s g pkt
            else begin
              let c =
                make_conn s ~local:pkt.Packet.dst ~remote:pkt.Packet.src
                  ~established:false ()
              in
              l.l_pending <- l.l_pending + 1;
              c.peer_wnd <- pkt.Packet.window;
              transmit s
                (make_packet c ~flags:(Packet.flag ~syn:true ~ack:true ()) ~seq:0 ())
            end
        | None ->
            Trace.debugf log ~eng:s.env.Netenv.eng "SYN to closed port %d dropped"
              pkt.Packet.dst.Packet.port
      end
      else
        Trace.debugf log ~eng:s.env.Netenv.eng "segment for unknown conn dropped"

let rx_callback s pkt = Bqueue.put s.rx_q pkt

let create env ~ip () =
  (* Counters live in the engine registry under the stack's IP, so a stack
     re-created on the backup partition after failover continues the same
     series — and every stack shows up in the one JSON dump. *)
  let reg = Engine.metrics env.Netenv.eng in
  let m name = Metrics.Registry.counter reg (Printf.sprintf "tcp.%s.%s" ip name) in
  let s =
    {
      env;
      s_ip = ip;
      nic = None;
      conns = Hashtbl.create 64;
      listeners = Hashtbl.create 8;
      hooks = None;
      next_ephemeral = 40_000;
      next_conn_id = 0;
      rx_q = Bqueue.create ();
      m_segs_in = m "segs_in";
      m_segs_out = m "segs_out";
      m_bytes_in = m "bytes_in";
      m_bytes_out = m "bytes_out";
      m_ovf_drop = m "accept_overflow_drop";
      m_ovf_rst = m "accept_overflow_rst";
    }
  in
  ignore
    (env.Netenv.spawn "tcp-rx" (fun () ->
         let rec loop () =
           let pkt = Bqueue.get s.rx_q in
           env.Netenv.compute per_seg_cpu;
           handle_packet s pkt;
           loop ()
         in
         loop ()));
  s

let attach_nic s nic =
  s.nic <- Some nic;
  Nic.attach nic ~rx:(rx_callback s) ()

let bind_nic s nic = s.nic <- Some nic

(* {1 Socket API} *)

let listen_group s ~port ?(shards = 1) ?backlog ?(overflow = `Drop) () =
  if Hashtbl.mem s.listeners port then
    invalid_arg "Tcp.listen_group: port in use";
  if shards < 1 then invalid_arg "Tcp.listen_group: shards must be >= 1";
  (match backlog with
  | Some b when b < 1 -> invalid_arg "Tcp.listen_group: backlog must be >= 1"
  | _ -> ());
  let g =
    {
      g_stack = s;
      g_port = port;
      g_shards = [||];
      g_backlog = backlog;
      g_overflow = overflow;
      g_closed = false;
    }
  in
  g.g_shards <-
    Array.init shards (fun i ->
        {
          lport = port;
          shard = i;
          accept_q = Bqueue.create ();
          l_pending = 0;
          group = g;
        });
  Hashtbl.replace s.listeners port g;
  g.g_shards

let listen s ~port = (listen_group s ~port ()).(0)

let accept l =
  match Bqueue.get l.accept_q with
  | Some c -> Some c
  | None ->
      (* close sentinel: re-post so sibling acceptors observe it too *)
      Bqueue.put l.accept_q None;
      None

(* Closing tears down the whole group: the port stops matching SYNs
   immediately (later SYNs are dropped exactly like SYNs to a never-opened
   port), already-accepted-but-unclaimed connections still drain, and once
   a shard's queue runs dry its acceptors get [None]. *)
let close_listener l =
  let g = l.group in
  if not g.g_closed then begin
    g.g_closed <- true;
    (match Hashtbl.find_opt g.g_stack.listeners g.g_port with
    | Some g' when g' == g -> Hashtbl.remove g.g_stack.listeners g.g_port
    | _ -> ());
    Array.iter (fun sh -> Bqueue.put sh.accept_q None) g.g_shards
  end

let connect s ~host ~port =
  s.next_ephemeral <- s.next_ephemeral + 1;
  let local = { Packet.host = s.s_ip; port = s.next_ephemeral } in
  let remote = { Packet.host = host; port } in
  let c = make_conn s ~local ~remote ~established:false () in
  let ev = Engine.evlog s.env.Netenv.eng in
  Evlog.begin_instant ev ~comp:"net.tcp" "connect";
  Evlog.arg_int ev "conn" c.id;
  Evlog.arg_str ev "host" host;
  Evlog.arg_int ev "port" port;
  Evlog.close ev;
  transmit s (make_packet c ~flags:(Packet.flag ~syn:true ()) ~seq:0 ());
  (* SYN retransmission: a cancellable timer re-fires while unestablished
     (bounded attempts); the SYN-ACK cancels it instead of leaving a sleep
     to expire. *)
  let eng = s.env.Netenv.eng in
  let rec arm_syn attempts =
    c.syn_timer <-
      Some
        (Engine.timer eng
           ~at:(Engine.now eng + rto)
           (fun () ->
             c.syn_timer <- None;
             if (not c.established) && (not c.aborted) && attempts > 0 then begin
               transmit s (make_packet c ~flags:(Packet.flag ~syn:true ()) ~seq:0 ());
               arm_syn (attempts - 1)
             end))
  in
  arm_syn 60;
  Ivar.read c.established_iv;
  if c.aborted then raise Connection_closed;
  c

let send c chunk =
  if c.aborted || c.fin_queued then raise Connection_closed;
  let rec wait_space () =
    if Payload.Buf.length c.sndbuf >= sndbuf_cap then begin
      ignore (Sync.wait_on c.writable);
      if c.aborted then raise Connection_closed;
      wait_space ()
    end
  in
  wait_space ();
  Payload.Buf.append c.sndbuf chunk;
  wake_all c.send_wake

let recv c ~max =
  if max <= 0 then invalid_arg "Tcp.recv: max must be positive";
  let rec loop () =
    if Payload.Buf.length c.rcvbuf > 0 then Payload.Buf.take c.rcvbuf max
    else if c.peer_fin || c.aborted then []
    else begin
      ignore (Sync.wait_on c.readable);
      loop ()
    end
  in
  loop ()

let close c =
  if not c.fin_queued then begin
    c.fin_queued <- true;
    wake_all c.send_wake
  end

let is_readable c =
  Payload.Buf.length c.rcvbuf > 0 || c.peer_fin || c.aborted

(* Wait-for-any: park once with a waker registered on every connection's
   readiness queue (Engine.suspend wakers are fire-once).  Those queues are
   only ever woken with [wake_all], so pollers never steal wake-ups from
   blocked readers; on a timeout the entries are withdrawn eagerly. *)
let poll ?deadline conns =
  if conns = [] then invalid_arg "Tcp.poll: empty interest set";
  let rec loop () =
    let ready = List.filter is_readable conns in
    if ready <> [] then ready
    else begin
      let outcome =
        match deadline with
        | None ->
            Engine.suspend (fun _p waker ->
                List.iter (fun c -> ignore (Waitq.add c.readable waker)) conns);
            `Done
        | Some at ->
            Engine.with_timeout ~at (fun _p wake ->
                let entries =
                  List.map (fun c -> Waitq.add c.readable wake) conns
                in
                fun () -> List.iter Waitq.cancel entries)
      in
      match outcome with `Timeout -> [] | `Done -> loop ()
    end
  in
  loop ()

(* {1 Failover reconstruction} *)

type logical_state = {
  l_local : Packet.addr;
  l_remote : Packet.addr;
  l_snd_una : int;
  l_rcv_nxt : int;
  l_unacked : Payload.chunk list;
  l_unread : Payload.chunk list;
  l_peer_fin : bool;
}

let restore s (ls : logical_state) =
  s.next_conn_id <- s.next_conn_id + 1;
  let c =
    {
      stack = s;
      id = s.next_conn_id;
      local = ls.l_local;
      remote = ls.l_remote;
      established = true;
      established_iv = Ivar.create ();
      sndbuf = Payload.Buf.create ~base:ls.l_snd_una ();
      snd_nxt = ls.l_snd_una;
      snd_max = ls.l_snd_una;
      peer_wnd = rwnd;
      fin_queued = false;
      fin_sent = false;
      fin_ever_sent = false;
      fin_acked = false;
      rcvbuf =
        (let fin_slot = if ls.l_peer_fin then 1 else 0 in
         Payload.Buf.create
           ~base:(ls.l_rcv_nxt - Payload.total_len ls.l_unread - fin_slot)
           ());
      rcv_nxt = ls.l_rcv_nxt;
      peer_fin = ls.l_peer_fin;
      readable = Waitq.create ();
      writable = Waitq.create ();
      send_wake = Waitq.create ();
      aborted = false;
      rto_timer = None;
      syn_timer = None;
    }
  in
  Ivar.fill c.established_iv ();
  List.iter (Payload.Buf.append c.sndbuf) ls.l_unacked;
  List.iter (Payload.Buf.append c.rcvbuf) ls.l_unread;
  add_conn s c;
  spawn_conn_procs c;
  (* Poke the peer: an immediate pure ACK makes it resume (and tells it our
     rcv_nxt so its own retransmissions trim correctly). *)
  send_pure_ack c;
  c

(* A restored connection the application never accepted (it sat in the dead
   primary's accept queue) goes back into the accept queue of the listener
   shard its 4-tuple routes to, so the live accept loop picks it up like
   any other connection.  The backlog bound is deliberately not enforced
   here: the connection was established, logged and replicated before the
   failover — shedding it now would break exactly-once for a client the
   old stack already committed to.  No listener on the port (the app closed
   it) leaves the connection in the demux only; client data then meets a
   normal close. *)
let requeue_restored s c =
  match Hashtbl.find_opt s.listeners c.local.Packet.port with
  | None -> ()
  | Some g ->
      let l = route_shard g ~remote:c.remote in
      Evlog.emit (Engine.evlog s.env.Netenv.eng) ~comp:"net.tcp"
        "accept.requeue"
        ~args:
          [
            ("conn", Evlog.Int c.id);
            ("port", Evlog.Int c.local.Packet.port);
            ("shard", Evlog.Int l.shard);
          ];
      Bqueue.put l.accept_q (Some c)
