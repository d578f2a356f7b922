open Ftsim_sim
open Ftsim_hw

(* Ballots are globally unique: round * n + node_id. *)
type ballot = int

type 'v msg =
  | Prepare of { instance : int; b : ballot }
  | Promise of { instance : int; b : ballot; accepted : (ballot * 'v) option }
  | Nack of { instance : int; b : ballot }
  | Accept of { instance : int; b : ballot; v : 'v }
  | Accepted of { instance : int; b : ballot }
  | Learn of { instance : int; v : 'v }

type 'v envelope = { from : int; payload : 'v msg }

type 'v slot = {
  mutable promised : ballot;  (* highest Prepare promised; -1 = none *)
  mutable accepted : (ballot * 'v) option;
  mutable learned : 'v option;
  learned_waiters : Waitq.t;
  (* proposer bookkeeping for the in-flight ballot *)
  mutable my_ballot : ballot;
  mutable promises : (int * (ballot * 'v) option) list;
  mutable accepts : int list;
  mutable proposing : 'v option;
  mutable phase2 : bool;  (* Accept broadcast for my_ballot already sent *)
}

type 'v node = {
  id : int;
  part : Partition.t;
  inbox : 'v envelope Bqueue.t;
  outs : (int * 'v msg Mailbox.chan) list;  (* peer id -> channel *)
  slots : (int, 'v slot) Hashtbl.t;
  prng : Prng.t;
}

type 'v t = {
  eng : Engine.t;
  n : int;
  members : 'v node array;
  value_bytes : 'v -> int;
}

let log = Trace.make "ft.paxos"

let nodes t = t.n
let majority t = (t.n / 2) + 1

let slot_of node instance =
  match Hashtbl.find_opt node.slots instance with
  | Some s -> s
  | None ->
      let s =
        {
          promised = -1;
          accepted = None;
          learned = None;
          learned_waiters = Waitq.create ();
          my_ballot = -1;
          promises = [];
          accepts = [];
          proposing = None;
          phase2 = false;
        }
      in
      Hashtbl.replace node.slots instance s;
      s

let msg_bytes t = function
  | Prepare _ | Nack _ | Accepted _ -> 24
  | Promise { accepted; _ } ->
      24 + (match accepted with Some (_, v) -> 8 + t.value_bytes v | None -> 1)
  | Accept { v; _ } | Learn { v; _ } -> 24 + t.value_bytes v

let send t node ~to_ payload =
  if to_ = node.id then Bqueue.put node.inbox { from = node.id; payload }
  else
    match List.assoc_opt to_ node.outs with
    | Some ch ->
        if not (Mailbox.src_halted ch) then
          (* Consensus control messages are small and must not deadlock the
             node loop; drop on a full ring and rely on retry. *)
          ignore (Mailbox.try_send ch ~bytes:(msg_bytes t payload) payload)
    | None -> ()

let broadcast t node payload =
  for peer = 0 to t.n - 1 do
    send t node ~to_:peer payload
  done

let learn t node instance v =
  let s = slot_of node instance in
  if s.learned = None then begin
    s.learned <- Some v;
    Trace.debugf log ~eng:t.eng "node %d learned instance %d" node.id instance;
    ignore (Waitq.wake_all s.learned_waiters)
  end

(* {1 Acceptor + learner + proposer-progress handling} *)

let handle t node { from; payload } =
  match payload with
  | Prepare { instance; b } ->
      let s = slot_of node instance in
      if b > s.promised then begin
        s.promised <- b;
        send t node ~to_:from (Promise { instance; b; accepted = s.accepted })
      end
      else send t node ~to_:from (Nack { instance; b })
  | Accept { instance; b; v } ->
      let s = slot_of node instance in
      if b >= s.promised then begin
        s.promised <- b;
        s.accepted <- Some (b, v);
        send t node ~to_:from (Accepted { instance; b })
      end
      else send t node ~to_:from (Nack { instance; b })
  | Promise { instance; b; accepted } ->
      let s = slot_of node instance in
      if b = s.my_ballot && s.learned = None && not s.phase2 then begin
        if not (List.mem_assoc from s.promises) then
          s.promises <- (from, accepted) :: s.promises;
        if List.length s.promises >= majority t then begin
          (* Phase 2: adopt the highest previously accepted value. *)
          let v =
            List.fold_left
              (fun best (_, acc) ->
                match (best, acc) with
                | None, Some (ab, av) -> Some (ab, av)
                | Some (bb, _), Some (ab, av) when ab > bb -> Some (ab, av)
                | best, _ -> best)
              None s.promises
          in
          let v =
            match (v, s.proposing) with
            | Some (_, av), _ -> av
            | None, Some own -> own
            | None, None -> assert false
          in
          s.proposing <- Some v;
          s.accepts <- [];
          s.phase2 <- true;
          broadcast t node (Accept { instance; b; v })
        end
      end
  | Accepted { instance; b } ->
      let s = slot_of node instance in
      if b = s.my_ballot && s.learned = None then begin
        if not (List.mem from s.accepts) then s.accepts <- from :: s.accepts;
        if List.length s.accepts >= majority t then begin
          match s.proposing with
          | Some v ->
              learn t node instance v;
              broadcast t node (Learn { instance; v })
          | None -> ()
        end
      end
  | Nack { instance = _; b = _ } ->
      (* Our ballot lost a race; the retry driver escalates with a higher
         one on its next backoff expiry. *)
      ()
  | Learn { instance; v } -> learn t node instance v

let start_round t node instance =
  let s = slot_of node instance in
  if s.learned = None then begin
    let round = (max s.my_ballot s.promised / t.n) + 1 in
    let b = (round * t.n) + node.id in
    s.my_ballot <- b;
    s.promises <- [];
    s.accepts <- [];
    s.phase2 <- false;
    broadcast t node (Prepare { instance; b })
  end

(* Retry driver: re-propose with escalating ballots and randomized backoff
   until the instance is learned.  The backoff is an election timer parked
   on [learned_waiters]: learning the instance wakes (and thereby cancels)
   it immediately instead of letting a dead timer ride out its backoff. *)
let retry_driver t node instance =
  let s = slot_of node instance in
  let rec loop backoff_us =
    if s.learned = None && not (Partition.is_halted node.part) then begin
      let deadline =
        Engine.now t.eng + Time.us (backoff_us + Prng.int node.prng backoff_us)
      in
      match Sync.wait_on ~deadline s.learned_waiters with
      | `Woken -> ()
      | `Timeout ->
          if s.learned = None then begin
            start_round t node instance;
            loop (min 12_800 (backoff_us * 2))
          end
    end
  in
  loop 100

let create eng ~partitions ?mailbox_config ?(value_bytes = fun _ -> 8) () =
  let n = List.length partitions in
  if n < 2 then invalid_arg "Paxos.create: need at least 2 partitions";
  let parts = Array.of_list partitions in
  (* Full mesh of unidirectional channels. *)
  let chans = Hashtbl.create (n * n) in
  Array.iteri
    (fun i pi ->
      Array.iteri
        (fun j pj ->
          if i <> j then
            Hashtbl.replace chans (i, j)
              (Mailbox.create eng ?config:mailbox_config ~src:pi ~dst:pj ()))
        parts)
    parts;
  let members =
    Array.mapi
      (fun i part ->
        let outs =
          List.init n Fun.id
          |> List.filter_map (fun j ->
                 if j = i then None else Some (j, Hashtbl.find chans (i, j)))
        in
        {
          id = i;
          part;
          inbox = Bqueue.create ();
          outs;
          slots = Hashtbl.create 16;
          prng = Prng.split (Engine.prng eng);
        })
      parts
  in
  let t = { eng; n; members; value_bytes } in
  (* Per node: one forwarder per incoming channel plus the handler loop. *)
  Array.iter
    (fun node ->
      List.iter
        (fun (peer, _) ->
          let ch = Hashtbl.find chans (peer, node.id) in
          ignore
            (Partition.spawn node.part
               ~proc_name:(Printf.sprintf "paxos-fwd-%d<-%d" node.id peer)
               (fun () ->
                 let rec loop () =
                   let payload = Mailbox.recv ch in
                   Bqueue.put node.inbox { from = peer; payload };
                   loop ()
                 in
                 loop ())))
        node.outs;
      ignore
        (Partition.spawn node.part
           ~proc_name:(Printf.sprintf "paxos-node-%d" node.id)
           (fun () ->
             let rec loop () =
               let env = Bqueue.get node.inbox in
               (* Message-handling cost: a shared-memory CAS-and-scan. *)
               Engine.sleep (Time.ns 300);
               handle t node env;
               loop ()
             in
             loop ())))
    members;
  t

let propose t ~node ~instance v =
  let nd = t.members.(node) in
  Partition.check_alive nd.part;
  let s = slot_of nd instance in
  if s.proposing = None then s.proposing <- Some v;
  ignore
    (Partition.spawn nd.part
       ~proc_name:(Printf.sprintf "paxos-retry-%d-%d" node instance)
       (fun () ->
         start_round t nd instance;
         retry_driver t nd instance))

let chosen t ~node ~instance = (slot_of t.members.(node) instance).learned

let wait_chosen t ~node ~instance =
  let s = slot_of t.members.(node) instance in
  let rec wait () =
    match s.learned with
    | Some v -> v
    | None ->
        ignore (Sync.wait_on s.learned_waiters);
        wait ()
  in
  wait ()

let chosen_prefix t ~node =
  let rec walk acc i =
    match chosen t ~node ~instance:i with
    | Some v -> walk (v :: acc) (i + 1)
    | None -> List.rev acc
  in
  walk [] 0
