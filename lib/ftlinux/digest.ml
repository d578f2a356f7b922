open Ftsim_sim

type snapshot = { snap_section : int; snap_digest : int }

(* Snapshots are kept newest-first; beyond [snap_cap] we keep folding the
   rolling digests but stop storing per-section history.  The caps are the
   same constants on both replicas, so truncated histories still align. *)
let snap_cap = 1 lsl 18
let tsnap_cap = 1 lsl 14

(* Per-thread recorder: rolling digest over the thread's syscall results
   (per-thread FIFO order, identical on both replicas), plus a bounded
   per-fold snapshot history so the sequences compare elementwise. *)
type tstate = {
  mutable td : int;
  mutable tcount : int;  (* folds so far *)
  mutable tsnaps : (int * int) list;  (* (fold index, digest), newest first *)
  mutable tnsnaps : int;
  mutable tsealed : int option;  (* comparable fold count *)
}

(* Per-channel recorder: rolling digest over the channel's section stream.
   A channel's sections are totally ordered across replicas (chan_seq
   order), so the two replicas' per-channel fold sequences compare
   elementwise even though the global interleaving of sections differs.
   Each snapshot also notes the recorder-wide section count (the epoch) at
   the fold, so a primary-side divergence can be attributed to the last
   output commit at or before it. *)
type cstate = {
  mutable cd : int;
  mutable ccount : int;  (* sections folded into this channel *)
  mutable csnaps : (int * int * int) list;
      (* (fold index, digest, epoch), newest first *)
  mutable cnsnaps : int;
  mutable csealed : int option;  (* comparable fold count *)
}

type t = {
  chans : (int, cstate) Hashtbl.t;
  threads : (int, tstate) Hashtbl.t;
  mutable nsections : int;  (* total sections digested (the epoch) *)
  (* Output-commit marks, oldest first: the [k]th at epoch
     [commit_epochs.(k)] with LSN [commit_lsns.(k)], for [k < ncommits].
     Epochs never decrease, so the marks are sorted by epoch. *)
  mutable commit_epochs : int array;
  mutable commit_lsns : int array;
  mutable ncommits : int;
  mutable sealed_at : int option;  (* comparable section count *)
}

let create () =
  {
    chans = Hashtbl.create 16;
    threads = Hashtbl.create 16;
    nsections = 0;
    commit_epochs = [||];
    commit_lsns = [||];
    ncommits = 0;
    sealed_at = None;
  }

(* splitmix-style finalizer constrained to OCaml's 63-bit ints. *)
let mix h v =
  let h = (h lxor v) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 32)

let chan_state t ch =
  match Hashtbl.find_opt t.chans ch with
  | Some cs -> cs
  | None ->
      let cs =
        {
          cd = mix 0x5eed ch;
          ccount = 0;
          csnaps = [];
          cnsnaps = 0;
          (* A channel first seen after go-live carries only live execution:
             nothing of it is comparable. *)
          csealed = (if t.sealed_at = None then None else Some 0);
        }
      in
      Hashtbl.replace t.chans ch cs;
      cs

let fold_chan t ~chan v =
  let cs = chan_state t chan in
  cs.cd <- mix cs.cd v

let fold t v = fold_chan t ~chan:0 v

let fold_string t s =
  fold t (Payload.stream_hash 0x517 [ Payload.of_string s ])

let thread_state t ft_pid =
  match Hashtbl.find_opt t.threads ft_pid with
  | Some ts -> ts
  | None ->
      let ts =
        {
          td = mix 0x7ead ft_pid;
          tcount = 0;
          tsnaps = [];
          tnsnaps = 0;
          (* A thread first seen after go-live is all-live execution:
             nothing of it is comparable. *)
          tsealed = (if t.sealed_at = None then None else Some 0);
        }
      in
      Hashtbl.replace t.threads ft_pid ts;
      ts

let fold_thread t ~ft_pid v =
  let ts = thread_state t ft_pid in
  ts.td <- mix ts.td v;
  ts.tcount <- ts.tcount + 1;
  if ts.tnsnaps < tsnap_cap then begin
    ts.tsnaps <- (ts.tcount, ts.td) :: ts.tsnaps;
    ts.tnsnaps <- ts.tnsnaps + 1
  end

let thread_digest t ~ft_pid = (thread_state t ft_pid).td

let hash_payload = function
  | Wire.P_plain -> 1
  | Wire.P_timed_outcome b -> mix 2 (if b then 1 else 0)
  | Wire.P_thread_spawn p -> mix 3 p
  | Wire.P_fs_read_len n -> mix 4 n

let section_end t ~ft_pid ~thread_seq ~chans ~payload =
  t.nsections <- t.nsections + 1;
  let pv = hash_payload payload in
  let tdv = thread_digest t ~ft_pid in
  List.iter
    (fun (ch, chan_seq) ->
      let cs = chan_state t ch in
      cs.cd <- mix cs.cd chan_seq;
      cs.cd <- mix cs.cd ft_pid;
      cs.cd <- mix cs.cd thread_seq;
      cs.cd <- mix cs.cd pv;
      cs.cd <- mix cs.cd tdv;
      cs.ccount <- cs.ccount + 1;
      if cs.cnsnaps < snap_cap then begin
        cs.csnaps <- (cs.ccount, cs.cd, t.nsections) :: cs.csnaps;
        cs.cnsnaps <- cs.cnsnaps + 1
      end)
    chans

let mark_commit t ~lsn =
  let n = t.ncommits in
  if n = Array.length t.commit_epochs then begin
    let grow a =
      let b = Array.make (max 16 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.commit_epochs <- grow t.commit_epochs;
    t.commit_lsns <- grow t.commit_lsns
  end;
  t.commit_epochs.(n) <- t.nsections;
  t.commit_lsns.(n) <- lsn;
  t.ncommits <- n + 1

(* The LSN of the last mark at or before [epoch], if any.  [search lo hi]
   keeps the marks below [lo] at or before [epoch] and those from [hi] on
   after it. *)
let commit_before t epoch =
  let rec search lo hi =
    if lo = hi then if lo = 0 then None else Some t.commit_lsns.(lo - 1)
    else
      let mid = (lo + hi) / 2 in
      if t.commit_epochs.(mid) <= epoch then search (mid + 1) hi else search lo mid
  in
  search 0 t.ncommits

let seal t =
  if t.sealed_at = None then begin
    t.sealed_at <- Some t.nsections;
    Hashtbl.iter
      (fun _ cs -> if cs.csealed = None then cs.csealed <- Some cs.ccount)
      t.chans;
    Hashtbl.iter
      (fun _ ts -> if ts.tsealed = None then ts.tsealed <- Some ts.tcount)
      t.threads
  end

let sections t = t.nsections

(* A cap is a point-in-time comparison boundary that — unlike [seal] — does
   not stop the digest from growing: the capped digest stays fully
   comparable against replicas of its *own* continued stream while the
   capture bounds comparisons against replicas of its *previous* stream.
   This is the promotion case: a survivor promoted at failover keeps
   folding (its post-promotion sections are recorded and replayed by the
   regenerated backup), but against the dead primary only the folds up to
   the promotion point are meaningful — beyond it the two histories
   legitimately differ (staged-but-lost records vs new-epoch execution). *)
type cap = {
  cap_chans : (int * int) list;  (* channel -> comparable fold count *)
  cap_threads : (int * int) list;  (* ft_pid -> comparable fold count *)
}

let capture t =
  {
    cap_chans = Hashtbl.fold (fun ch cs acc -> (ch, cs.ccount) :: acc) t.chans [];
    cap_threads =
      Hashtbl.fold (fun pid ts acc -> (pid, ts.tcount) :: acc) t.threads [];
  }

(* Effective comparison bound for one channel: the seal (if any) and the
   cap entry (if a cap is given) both limit the walk; a channel absent
   from a cap was first seen after the capture, so nothing of it is
   comparable under that cap. *)
let cap_bound entries key =
  match entries with
  | None -> max_int
  | Some l -> ( match List.assoc_opt key l with Some n -> n | None -> 0)

let comparable_chan cap chan cs =
  let upto = match cs.csealed with Some n -> n | None -> max_int in
  let upto =
    match cap with
    | Some c -> min upto (cap_bound (Some c.cap_chans) chan)
    | None -> upto
  in
  List.filter (fun (c, _, _) -> c <= upto) cs.csnaps |> List.rev

let comparable t =
  Hashtbl.fold
    (fun ch cs acc ->
      ( ch,
        List.map
          (fun (c, d, _) -> { snap_section = c; snap_digest = d })
          (comparable_chan None ch cs) )
      :: acc)
    t.chans []
  |> List.sort compare

let value t =
  let h = ref 0x5eed in
  let chs = Hashtbl.fold (fun k _ acc -> k :: acc) t.chans [] in
  List.iter
    (fun ch ->
      h := mix !h ch;
      h := mix !h (chan_state t ch).cd)
    (List.sort compare chs);
  let pids = Hashtbl.fold (fun k _ acc -> k :: acc) t.threads [] in
  List.iter
    (fun p ->
      h := mix !h p;
      h := mix !h (thread_digest t ~ft_pid:p))
    (List.sort compare pids);
  !h

type divergence = {
  at_section : int;
  in_channel : int option;
  in_thread : int option;
  primary_digest : int;
  secondary_digest : int;
  after_commit_lsn : int option;
}

let comparable_thread cap pid ts =
  let upto = match ts.tsealed with Some n -> n | None -> max_int in
  let upto =
    match cap with
    | Some c -> min upto (cap_bound (Some c.cap_threads) pid)
    | None -> upto
  in
  List.rev (List.filter (fun (c, _) -> c <= upto) ts.tsnaps)

(* Every channel's fold sequence is totally ordered across replicas, so
   shared channels compare elementwise.  Among the per-channel first
   mismatches, report the one the primary digested earliest (smallest
   epoch), attributed to the last output commit at or before it. *)
let compare_channels ~secondary_cap ~primary ~secondary =
  let chs =
    Hashtbl.fold (fun ch _ acc -> ch :: acc) primary.chans []
    |> List.filter (fun ch -> Hashtbl.mem secondary.chans ch)
    |> List.sort compare
  in
  let rec walk_chan ch ps ss =
    match (ps, ss) with
    | (pc, pd, pepoch) :: ps', (_, sd, _) :: ss' ->
        if pd <> sd then
          let lsn = commit_before primary pepoch in
          Some
            ( pepoch,
              {
                at_section = pc;
                in_channel = Some ch;
                in_thread = None;
                primary_digest = pd;
                secondary_digest = sd;
                after_commit_lsn = lsn;
              } )
        else walk_chan ch ps' ss'
    | _, [] | [], _ -> None
  in
  List.fold_left
    (fun acc ch ->
      let cand =
        walk_chan ch
          (comparable_chan None ch (chan_state primary ch))
          (comparable_chan secondary_cap ch (chan_state secondary ch))
      in
      match (acc, cand) with
      | None, c -> c
      | Some _, None -> acc
      | Some (e0, _), Some (e1, _) -> if e1 < e0 then cand else acc)
    None chs
  |> Option.map snd

(* A thread's syscall results replay in per-thread FIFO order, so for every
   ft_pid the two replicas' fold sequences must agree elementwise over the
   shared (sealed-bounded) prefix — this covers syscall-heavy applications
   that rarely enter deterministic sections. *)
let compare_threads ~secondary_cap ~primary ~secondary =
  let pids =
    Hashtbl.fold (fun pid _ acc -> pid :: acc) primary.threads []
    |> List.filter (fun pid -> Hashtbl.mem secondary.threads pid)
    |> List.sort compare
  in
  let rec walk_pid pid ps ss =
    match (ps, ss) with
    | (pc, pd) :: ps', (_, sd) :: ss' ->
        if pd <> sd then
          Some
            {
              at_section = pc;
              in_channel = None;
              in_thread = Some pid;
              primary_digest = pd;
              secondary_digest = sd;
              after_commit_lsn = None;
            }
        else walk_pid pid ps' ss'
    | _, [] | [], _ -> None
  in
  List.fold_left
    (fun acc pid ->
      match acc with
      | Some _ -> acc
      | None ->
          walk_pid pid
            (comparable_thread None pid (thread_state primary pid))
            (comparable_thread secondary_cap pid (thread_state secondary pid)))
    None pids

let compare_replicas_capped ~secondary_cap ~primary ~secondary =
  match compare_channels ~secondary_cap ~primary ~secondary with
  | Some d -> Some d
  | None -> compare_threads ~secondary_cap ~primary ~secondary

let compare_replicas ~primary ~secondary =
  compare_replicas_capped ~secondary_cap:None ~primary ~secondary

let thread_folds t ~ft_pid = (thread_state t ft_pid).tcount

let comparison_points t =
  Hashtbl.fold (fun _ cs acc -> acc + cs.ccount) t.chans 0
  + Hashtbl.fold (fun _ ts acc -> acc + ts.tcount) t.threads 0
