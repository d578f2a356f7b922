(* Hierarchical timer wheel (Varghese & Lauck), sized for a nanosecond
   discrete-event clock.

   32 slots per level, 10 levels: level [k] has slot granularity [32^k] ns,
   so the wheel spans 32^10 ns (~13 simulated days) before the overflow list
   is needed.  A timer is filed at the lowest level whose current rotation
   contains its expiry ("same parent block" rule); as the clock crosses a
   higher-level slot boundary the slot's timers cascade down, reaching level
   0 — where every occupied slot holds exactly one expiry instant — before
   they are due.

   Determinism: the wheel never fires callbacks itself.  [advance] moves
   expired timers into a due heap keyed by [(at, seq)]; the engine merges
   that heap with its event heap on the same key, so the global firing order
   is identical to a single heap's.

   Cancellation is O(1): the handle is flagged and the live count drops
   immediately; the corpse is discarded when its slot is next visited.

   A slot is a chain of handles linked through their [link] field and
   ended by [Nil], so filing a timer, at first or as it cascades,
   allocates nothing.  A handle's link is cleared as it leaves its chain,
   so a fired or dropped handle keeps no other handle alive. *)

type state = Armed | Fired | Cancelled

(* [Nil] ends a chain, fills the due heap's vacant slots and is the
   handle of no timer. *)
type 'a handle =
  | Nil
  | Handle of {
      seq : int;
      at : Time.t;
      value : 'a;
      mutable state : state;
      mutable link : 'a handle; (* next in its chain, [Nil] out of one *)
    }

type 'a t = {
  mutable wnow : Time.t;
  slots : 'a handle array array; (* levels x 32 chains, unordered *)
  bits : int array; (* occupancy bitmap per level *)
  mutable overflow : 'a handle; (* chain beyond the top level's rotation *)
  mutable next : Time.t; (* [next_internal t], kept current *)
  due : 'a handle Heap.t; (* expired, keyed by (at, seq) *)
  mutable live : int;
}

let slot_bits = 5
let wheel_slots = 1 lsl slot_bits
let levels = 10
let slot_mask = wheel_slots - 1
let top_shift = slot_bits * levels

let unarmed = Nil

let create () =
  {
    wnow = 0;
    slots = Array.init levels (fun _ -> Array.make wheel_slots Nil);
    bits = Array.make levels 0;
    overflow = Nil;
    next = Time.never;
    due = Heap.create ~filler:Nil ();
    live = 0;
  }

let live t = t.live
let is_armed = function Handle h -> h.state = Armed | Nil -> false

let cancel t = function
  | Handle h when h.state = Armed ->
      h.state <- Cancelled;
      t.live <- t.live - 1
  | _ -> ()

(* Index of the lowest set bit of a non-zero 32-bit occupancy bitmap:
   isolate it, then look its de Bruijn product up in a 32-entry table. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit bits =
  debruijn.((((bits land (-bits)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Earliest instant at which the wheel has internal work: a level-0 expiry,
   a higher-level (possibly stale) slot to cascade, or an overflow block to
   bring in.  Excludes the due heap.  Slots at or behind the current index
   belong to a later rotation: live timers are always filed strictly ahead,
   so anything behind holds only cancelled corpses, and scheduling their
   cleanup a rotation later is harmless.  Cancelled overflow entries count
   too, for the same reason; that keeps the result independent of
   cancellations, so [t.next] can cache it.  The result is always later than
   [t.wnow], and moving [t.wnow] to any instant before it leaves it
   unchanged. *)
let rec scan_levels t k best =
  if k = levels then best
  else begin
    let bits = t.bits.(k) in
    let best =
      if bits = 0 then best
      else begin
        let sh = slot_bits * k in
        let cur = (t.wnow lsr sh) land slot_mask in
        let block = t.wnow lsr (sh + slot_bits) in
        let ahead = bits land lnot ((1 lsl (cur + 1)) - 1) in
        let c =
          if ahead <> 0 then ((block lsl slot_bits) lor lowest_bit ahead) lsl sh
          else (((block + 1) lsl slot_bits) lor lowest_bit bits) lsl sh
        in
        if c < best then c else best
      end
    in
    scan_levels t (k + 1) best
  end

let block_start at = (at lsr top_shift) lsl top_shift

let rec overflow_min h best =
  match h with
  | Nil -> best
  | Handle r ->
      let c = block_start r.at in
      overflow_min r.link (if c < best then c else best)

let next_internal t = overflow_min t.overflow (scan_levels t 0 Time.never)

(* Lowest level [k] whose current rotation contains an expiry whose bits
   differ from the clock's in [x]; [levels] means the overflow list. *)
let rec level_of x k =
  if k < levels && x lsr (slot_bits * (k + 1)) <> 0 then level_of x (k + 1)
  else k

(* File [h] at the lowest level whose current rotation contains [h.at];
   an expired timer goes straight to the due heap.  A timer filed ahead of
   the clock can only bring [next_internal] forward, to its own slot's (or
   overflow block's) start. *)
let place t = function
  | Nil -> ()
  | Handle r as h ->
      if r.at <= t.wnow then Heap.push t.due ~prio:r.at ~seq:r.seq h
      else begin
        let k = level_of (r.at lxor t.wnow) 0 in
        let c =
          if k = levels then begin
            r.link <- t.overflow;
            t.overflow <- h;
            block_start r.at
          end
          else begin
            let sh = slot_bits * k in
            let s = (r.at lsr sh) land slot_mask in
            r.link <- t.slots.(k).(s);
            t.slots.(k).(s) <- h;
            t.bits.(k) <- t.bits.(k) lor (1 lsl s);
            (r.at lsr sh) lsl sh
          end
        in
        if c < t.next then t.next <- c
      end

(* File again the armed handles of a chain that has left its slot; the
   cancelled ones are dropped. *)
let rec place_armed t = function
  | Nil -> ()
  | Handle r as h ->
      let rest = r.link in
      r.link <- Nil;
      if r.state = Armed then place t h;
      place_armed t rest

(* Split the overflow chain at the clock's new top-level block [top]: a
   handle due in a later block stays, corpse or not, and the rest are
   filed again. *)
let rec split_overflow t top = function
  | Nil -> ()
  | Handle r as h ->
      let rest = r.link in
      if r.at lsr top_shift > top then begin
        r.link <- t.overflow;
        t.overflow <- h
      end
      else begin
        r.link <- Nil;
        if r.state = Armed then place t h
      end;
      split_overflow t top rest

let add t ~at ~seq value =
  let h = Handle { seq; at; value; state = Armed; link = Nil } in
  t.live <- t.live + 1;
  place t h;
  h

(* Process one internal instant: cascade every slot due at [c] (top level
   first, so timers sift all the way down in one pass) and move level-0
   expiries into the due heap. *)
let process_instant t c =
  t.wnow <- c;
  (match t.overflow with
  | Nil -> ()
  | chain ->
      t.overflow <- Nil;
      split_overflow t (c lsr top_shift) chain);
  for k = levels - 1 downto 0 do
    let sh = slot_bits * k in
    let s = (c lsr sh) land slot_mask in
    if t.bits.(k) land (1 lsl s) <> 0 && c land ((1 lsl sh) - 1) = 0 then begin
      let chain = t.slots.(k).(s) in
      t.slots.(k).(s) <- Nil;
      t.bits.(k) <- t.bits.(k) land lnot (1 lsl s);
      place_armed t chain
    end
  done;
  t.next <- next_internal t

let rec advance t ~upto =
  if upto > t.wnow then
    if t.next <= upto then begin
      process_instant t t.next;
      advance t ~upto
    end
    else t.wnow <- upto

(* Drop cancelled corpses from the head of the due heap. *)
let rec drop_cancelled t =
  if (not (Heap.is_empty t.due)) && not (is_armed (Heap.top t.due)) then begin
    ignore (Heap.pop t.due);
    drop_cancelled t
  end

let next_event t =
  if t.live = 0 then Time.never
  else begin
    drop_cancelled t;
    if Heap.is_empty t.due then t.next
    else
      let at = Heap.top_prio t.due in
      if at > t.wnow then at else t.wnow
  end

let due_at t =
  drop_cancelled t;
  Heap.top_prio t.due

let due_seq t = Heap.top_seq t.due

let pop_due t =
  drop_cancelled t;
  match Heap.pop t.due with
  | Handle h ->
      h.state <- Fired;
      t.live <- t.live - 1;
      h.value
  | Nil -> assert false
