type digest = int

type verdict = Pending | Agreed of digest | Inconsistent

type slot = {
  votes : (int, digest) Hashtbl.t;  (* replica -> digest *)
  mutable decided : digest option;
}

type t = {
  replicas : int;
  majority : int;
  slots : (int, slot) Hashtbl.t;  (* seq -> slot *)
  mutable faulty : int list;
}

let create ~replicas =
  if replicas < 2 then invalid_arg "Voter.create: need at least 2 replicas";
  {
    replicas;
    majority = (replicas / 2) + 1;
    slots = Hashtbl.create 256;
    faulty = [];
  }

let slot_of t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s = { votes = Hashtbl.create 4; decided = None } in
      Hashtbl.replace t.slots seq s;
      s

let mark_faulty t replica =
  if not (List.mem replica t.faulty) then t.faulty <- replica :: t.faulty

let count_for slot d =
  Hashtbl.fold (fun _ v acc -> if v = d then acc + 1 else acc) slot.votes 0

let submit t ~replica ~seq d =
  if replica < 0 || replica >= t.replicas then invalid_arg "Voter.submit: replica";
  let slot = slot_of t seq in
  if Hashtbl.mem slot.votes replica then
    invalid_arg "Voter.submit: duplicate vote";
  Hashtbl.replace slot.votes replica d;
  match slot.decided with
  | Some winner -> if d <> winner then mark_faulty t replica
  | None ->
      if count_for slot d >= t.majority then begin
        slot.decided <- Some d;
        (* Votes already cast against the new majority are divergent. *)
        Hashtbl.iter
          (fun r v -> if v <> d then mark_faulty t r)
          slot.votes
      end

let verdict t ~seq =
  match Hashtbl.find_opt t.slots seq with
  | None -> Pending
  | Some slot -> (
      match slot.decided with
      | Some d -> Agreed d
      | None ->
          (* Inconsistent once no candidate can still reach a majority. *)
          let cast = Hashtbl.length slot.votes in
          let remaining = t.replicas - cast in
          let best =
            Hashtbl.fold
              (fun _ v acc -> max acc (count_for slot v))
              slot.votes 0
          in
          if best + remaining < t.majority then Inconsistent else Pending)

let decided_prefix t =
  let rec walk n =
    match verdict t ~seq:n with Agreed _ -> walk (n + 1) | _ -> n
  in
  walk 0

let divergent t = List.sort compare t.faulty

let is_faulty t ~replica = List.mem replica t.faulty
