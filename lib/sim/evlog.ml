type level = Error | Warn | Info | Debug

type value = Int of int | Str of string | Float of float | Bool of bool

type kind =
  | Instant
  | Span_begin
  | Span_end
  | Counter of float
  | Log of level

type event = {
  seq : int;
  at : Time.t;
  comp : string;
  name : string;
  kind : kind;
  span : int;
  args : (string * value) list;
}

(* {1 Storage}

   Ring events are stored column-wise in [Bytes] chunks that hold no
   pointers, so the minor GC never promotes a retained event and no chunk
   enters the remembered set.  [event] records are built only for
   subscribers, for pinned events and for readers.

   - A slot is 32 bytes: [seq], [at], a header and [x].  The header packs
     the kind and level (3 bits), the comp and name ids (20 bits each) and
     the number of arg words the event wrote (20 bits).  [x] is the span id,
     or a counter's float bits.  Slot chunks hold 4,096 slots and are
     allocated as the ring reaches them; the ring is slot [i mod cap] for
     [i] in [first .. next_ring - 1].
   - Args go to a word stream in emission order, one word per arg: a tag
     (3 bits), a key id (20 bits) and a signed 40-bit value.  An int too
     wide for 40 bits, and every float, spills its 64 bits into the next
     word.  A [Str] arg's value is the position of its string in a parallel
     string stream, counted from the string-stream mark of the word's chunk.
   - Comps, names and arg keys are interned in a vocabulary the log owns.
     [Str] values never are: log lines and process names are unbounded.

   Both streams are addressed by absolute position, in chunks of 1,024 words
   and 256 strings.  Each word chunk records where the string stream stood
   when it was made (its mark), so every string a chunk's words refer to
   lies at or after that mark.  Once the oldest retained event has passed a
   word chunk, the chunk is released, and so is every string chunk before
   the mark of the oldest chunk left: eviction never scans args. *)

let default_cap = 1 lsl 20
let slot_bits = 12
let slot_n = 1 lsl slot_bits
let slot_bytes = 32
let word_bits = 10
let word_n = 1 lsl word_bits
let mark_off = word_n * 8 (* the mark follows a word chunk's words *)
let str_bits = 8
let str_n = 1 lsl str_bits
let field_bits = 20
let field_max = (1 lsl field_bits) - 1

(* A header or word stores at most [field_max] arg words per event, and a
   wide arg takes two. *)
let max_args = field_max / 2

let kc_instant = 0
let kc_begin = 1
let kc_end = 2
let kc_counter = 3

let kc_log = function Error -> 4 | Warn -> 5 | Info -> 6 | Debug -> 7

let tag_int = 0
let tag_wide = 1
let tag_float = 2
let tag_bool = 3
let tag_str = 4
let inline_max = (1 lsl 39) - 1
let inline_min = -(1 lsl 39)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let geti b off = Int64.to_int (get64 b off)
let seti b off v = set64 b off (Int64.of_int v)

(* A stream of chunks addressed by chunk number: chunks [lo, hi) are held,
   chunk [k] at [ring.(k land (length ring - 1))]. *)
type 'c stream = {
  mutable ring : 'c array;
  mutable lo : int;
  mutable hi : int;
  mutable spare : 'c;  (* a released chunk kept for reuse, or [none] *)
  none : 'c;
}

let stream none = { ring = Array.make 4 none; lo = 0; hi = 0; spare = none; none }
let chunk s k = s.ring.(k land (Array.length s.ring - 1))

(* Hold chunk number [s.hi]: the spare if there is one, else [fresh ()]. *)
let push s fresh =
  let n = Array.length s.ring in
  if s.hi - s.lo = n then begin
    let ring = Array.make (2 * n) s.none in
    for k = s.lo to s.hi - 1 do
      ring.(k land ((2 * n) - 1)) <- chunk s k
    done;
    s.ring <- ring
  end;
  let c = if s.spare == s.none then fresh () else s.spare in
  s.spare <- s.none;
  s.ring.(s.hi land (Array.length s.ring - 1)) <- c;
  s.hi <- s.hi + 1;
  c

(* Stop holding chunk number [k]; [clear] empties it if it is kept as the
   spare. *)
let retire s k clear =
  let i = k land (Array.length s.ring - 1) in
  if s.spare == s.none then begin
    clear s.ring.(i);
    s.spare <- s.ring.(i)
  end;
  s.ring.(i) <- s.none

(* Release every chunk before chunk number [k]. *)
let release s k clear =
  while s.lo < k do
    retire s s.lo clear;
    s.lo <- s.lo + 1
  done

(* Give back every chunk from chunk number [k] on, the newest first. *)
let unpush s k clear =
  while s.hi > k do
    s.hi <- s.hi - 1;
    retire s s.hi clear
  done

let memo_size = 256

type t = {
  mutable clock : unit -> Time.t;
  cap : int;
  slots : Bytes.t array;  (* [Bytes.empty] until first written *)
  mutable first : int;  (* ring index of the oldest retained event *)
  mutable next_ring : int;  (* ring index one past the newest event *)
  mutable next_seq : int;
  mutable next_span : int;
  mutable dropped_n : int;
  mutable dropped_c : Metrics.Counter.t option;
  mutable detail_on : bool;
  mutable subs : (int * (event -> unit)) list;  (* insertion order *)
  mutable next_sub : int;
  mutable pinned : event list;  (* newest first *)
  words : Bytes.t stream;
  mutable w_tail : int;  (* first arg word of the oldest retained event *)
  mutable w_head : int;  (* next arg word to write *)
  mutable w_cur : Bytes.t;  (* the chunk [w_head - 1] lies in *)
  strs : string array stream;
  mutable s_head : int;  (* next string position to write *)
  mutable s_cur : string array;  (* the chunk [s_head - 1] lies in *)
  vocab : (string, int) Hashtbl.t;
  mutable names : string array;  (* vocabulary id -> string *)
  (* Direct-mapped memo in front of [vocab], compared by physical identity:
     call sites pass literals, so a hit skips hashing the string. *)
  memo_key : string array;
  memo_id : int array;
  (* The open event (see {2 The writer}): its header fields, its vocabulary
     ids, and where its args start in each stream. *)
  mutable o_open : bool;
  mutable o_kc : int;
  mutable o_comp : int;
  mutable o_name : int;
  mutable o_span : int;
  mutable o_n : int;  (* args written so far *)
  mutable o_w0 : int;
  mutable o_s0 : int;
}

type span = {
  sp_id : int;
  sp_comp : string;
  sp_name : string;
  sp_pin : bool;
  mutable sp_open : bool;
}

let create ?(cap = default_cap) () =
  if cap < 1 then invalid_arg "Evlog.create: cap must be positive";
  (* The memo's filler is a fresh string no caller can pass: a shared [""]
     literal would alias a real lookup of the empty string. *)
  let filler = Bytes.to_string (Bytes.make 1 '\000') in
  {
    clock = (fun () -> 0);
    cap;
    slots = Array.make (((cap - 1) lsr slot_bits) + 1) Bytes.empty;
    first = 0;
    next_ring = 0;
    next_seq = 0;
    next_span = 0;
    dropped_n = 0;
    dropped_c = None;
    detail_on = false;
    subs = [];
    next_sub = 0;
    pinned = [];
    words = stream Bytes.empty;
    w_tail = 0;
    w_head = 0;
    w_cur = Bytes.empty;
    strs = stream [||];
    s_head = 0;
    s_cur = [||];
    vocab = Hashtbl.create 64;
    names = [||];
    memo_key = Array.make memo_size filler;
    memo_id = Array.make memo_size 0;
    o_open = false;
    o_kc = 0;
    o_comp = 0;
    o_name = 0;
    o_span = 0;
    o_n = 0;
    o_w0 = 0;
    o_s0 = 0;
  }

let set_clock t f = t.clock <- f
let set_dropped_counter t c = t.dropped_c <- Some c
let capacity t = t.cap
let set_detail t b = t.detail_on <- b
let detail t = t.detail_on
let emitted t = t.next_seq
let dropped t = t.dropped_n
let truncated t = t.dropped_n > 0

let drop t n =
  if n > 0 then begin
    t.dropped_n <- t.dropped_n + n;
    match t.dropped_c with Some c -> Metrics.Counter.add c n | None -> ()
  end

(* {2 Vocabulary} *)

let memo_index s =
  let n = String.length s in
  if n = 0 then 0
  else
    let h =
      (n * 31)
      + (Char.code (String.unsafe_get s 0) * 7)
      + (Char.code (String.unsafe_get s (n lsr 1)) * 131)
      + (Char.code (String.unsafe_get s (n - 1)) * 1031)
    in
    (h lxor (h lsr 8)) land (memo_size - 1)

(* {2 Slots} *)

(* A slot [j] is a ring index reduced mod [cap]. *)
let slot_chunk t j = t.slots.(j lsr slot_bits)
let slot_off j = (j land (slot_n - 1)) * slot_bytes

(* The chunk slot [j] is written to, allocated on first use.  The ring
   fills each chunk from its start, so chunk 0 can start at 32 slots and
   double as it fills: a log that records a handful of events, as a world
   under construction does, allocates next to nothing.  Later chunks are
   allocated whole. *)
let slot_chunk_w t j =
  let c = j lsr slot_bits in
  let b = t.slots.(c) in
  let need = ((j land (slot_n - 1)) + 1) * slot_bytes in
  if need <= Bytes.length b then b
  else begin
    let full = min slot_n (t.cap - (c lsl slot_bits)) * slot_bytes in
    let n =
      if c > 0 then full
      else min full (max need (max (32 * slot_bytes) (2 * Bytes.length b)))
    in
    let nb = Bytes.create n in
    Bytes.blit b 0 nb 0 (Bytes.length b);
    t.slots.(c) <- nb;
    nb
  end

let seq_at t i =
  let j = i mod t.cap in
  geti (slot_chunk t j) (slot_off j)

let header_of t j = geti (slot_chunk t j) (slot_off j + 16)
let header_at t i = header_of t (i mod t.cap)
let nwords h = h lsr 43

(* {2 Streams} *)

let fresh_words () = Bytes.create (mark_off + 8)
let fresh_strs () = Array.make str_n ""
let clear_strs c = Array.fill c 0 str_n ""

(* Byte offset of the next arg word in [t.w_cur], starting a chunk if
   needed. *)
let reserve t =
  let p = t.w_head in
  let i = p land (word_n - 1) in
  if i = 0 then begin
    let c = push t.words fresh_words in
    seti c mark_off t.s_head;
    t.w_cur <- c
  end;
  t.w_head <- p + 1;
  i lsl 3

let put_word t w =
  let off = reserve t in
  seti t.w_cur off w

let put_str t s =
  let p = t.s_head in
  let i = p land (str_n - 1) in
  if i = 0 then t.s_cur <- push t.strs fresh_strs;
  t.s_cur.(i) <- s;
  t.s_head <- p + 1

(* Release the word and string chunks the oldest retained event no longer
   reaches. *)
let release_behind t =
  release t.words (t.w_tail lsr word_bits) ignore;
  let floor =
    if t.w_tail = t.w_head then t.s_head
    else geti (chunk t.words (t.w_tail lsr word_bits)) mark_off
  in
  release t.strs (floor lsr str_bits) clear_strs

(* Evict the oldest event, whose slot is [j]. *)
let evict_oldest t j =
  t.w_tail <- t.w_tail + nwords (header_of t j);
  t.first <- t.first + 1;
  if t.w_tail lsr word_bits > t.words.lo || t.w_tail = t.w_head then release_behind t

(* {2 Decoding} *)

let word_at t p =
  geti (chunk t.words (p lsr word_bits)) ((p land (word_n - 1)) lsl 3)

let bits_at t p =
  get64 (chunk t.words (p lsr word_bits)) ((p land (word_n - 1)) lsl 3)

let str_at t pos = (chunk t.strs (pos lsr str_bits)).(pos land (str_n - 1))

(* The args of an event whose words are [p .. stop - 1]. *)
let[@tail_mod_cons] rec decode_args t p stop =
  if p >= stop then []
  else
    let c = chunk t.words (p lsr word_bits) in
    let w = geti c ((p land (word_n - 1)) lsl 3) in
    let key = t.names.((w lsr 3) land field_max) in
    match w land 7 with
    | 0 -> (key, Int (w asr 23)) :: decode_args t (p + 1) stop
    | 1 -> (key, Int (word_at t (p + 1))) :: decode_args t (p + 2) stop
    | 2 ->
        (key, Float (Int64.float_of_bits (bits_at t (p + 1))))
        :: decode_args t (p + 2) stop
    | 3 -> (key, Bool (w asr 23 <> 0)) :: decode_args t (p + 1) stop
    | _ ->
        (key, Str (str_at t (geti c mark_off + (w asr 23))))
        :: decode_args t (p + 1) stop

let kind_of kc v =
  match kc with
  | 0 -> Instant
  | 1 -> Span_begin
  | 2 -> Span_end
  | 3 -> Counter v
  | 4 -> Log Error
  | 5 -> Log Warn
  | 6 -> Log Info
  | _ -> Log Debug

(* Ring event [i], whose arg words start at [p]. *)
let decode t i p =
  let j = i mod t.cap in
  let c = slot_chunk t j and off = slot_off j in
  let h = geti c (off + 16) in
  let x = get64 c (off + 24) in
  let kc = h land 7 in
  {
    seq = geti c off;
    at = geti c (off + 8);
    comp = t.names.((h lsr 3) land field_max);
    name = t.names.((h lsr 23) land field_max);
    kind = (if kc = kc_counter then Counter (Int64.float_of_bits x) else kind_of kc 0.);
    span = (if kc = kc_begin || kc = kc_end then Int64.to_int x else 0);
    args = decode_args t p (p + nwords h);
  }

(* {2 Subscribers} *)

let subscribe t f =
  t.next_sub <- t.next_sub + 1;
  t.subs <- t.subs @ [ (t.next_sub, f) ];
  t.next_sub

let unsubscribe t token = t.subs <- List.filter (fun (k, _) -> k <> token) t.subs

let rec notify ev = function
  | [] -> ()
  | (_, f) :: rest ->
      f ev;
      notify ev rest

(* {2 The writer}

   Every ring event is written here, in three steps: [open_event] takes the
   comp and name ids, each arg goes straight into the word stream (and a
   [Str] value into the string stream), and [commit] takes the seq and the
   clock, evicts the oldest event if the ring is full and fills the slot.
   Only then are subscribers told, with a record decoded from the ring: one
   that emits finds no event open and appends after this one.

   An arg that would overflow the vocabulary or the event's arg count takes
   back the words and strings written since the event opened before it
   raises, so a refused event records nothing.  The span id of a begin is
   [next_span + 1] from the start, and taken at commit: no other event can
   open in between. *)

let no_event () = invalid_arg "Evlog: no event is open"

let check_closed t =
  if t.o_open then invalid_arg "Evlog: an event is already open"

(* Take back what the open event wrote, and close it. *)
let abandon t =
  t.o_open <- false;
  for p = t.o_s0 to t.s_head - 1 do
    (chunk t.strs (p lsr str_bits)).(p land (str_n - 1)) <- ""
  done;
  t.w_head <- t.o_w0;
  t.s_head <- t.o_s0;
  unpush t.words ((t.w_head + word_n - 1) lsr word_bits) ignore;
  unpush t.strs ((t.s_head + str_n - 1) lsr str_bits) clear_strs;
  if t.w_head land (word_n - 1) <> 0 then
    t.w_cur <- chunk t.words (t.w_head lsr word_bits);
  if t.s_head land (str_n - 1) <> 0 then
    t.s_cur <- chunk t.strs (t.s_head lsr str_bits)

let refuse t =
  if t.o_open then abandon t;
  invalid_arg "Evlog: event has too many args, or the vocabulary is full"

(* The id of [s], interned if it is new: a full vocabulary refuses the
   event. *)
let intern t s =
  let h = memo_index s in
  if t.memo_key.(h) == s then t.memo_id.(h)
  else begin
    let id =
      match Hashtbl.find t.vocab s with
      | id -> id
      | exception Not_found ->
          let id = Hashtbl.length t.vocab in
          if id > field_max then refuse t;
          if id = Array.length t.names then begin
            let names = Array.make (max 64 (2 * id)) "" in
            Array.blit t.names 0 names 0 id;
            t.names <- names
          end;
          t.names.(id) <- s;
          Hashtbl.add t.vocab s id;
          id
    in
    t.memo_key.(h) <- s;
    t.memo_id.(h) <- id;
    id
  end

let open_event t ~comp ~name ~kc ~span =
  check_closed t;
  let comp_id = intern t comp in
  let name_id = intern t name in
  t.o_kc <- kc;
  t.o_comp <- comp_id;
  t.o_name <- name_id;
  t.o_span <- span;
  t.o_n <- 0;
  t.o_w0 <- t.w_head;
  t.o_s0 <- t.s_head;
  t.o_open <- true

(* The key field of the open event's next arg. *)
let arg_key t k =
  if not t.o_open then no_event ();
  if t.o_n = max_args then refuse t;
  t.o_n <- t.o_n + 1;
  intern t k lsl 3

let arg_int t k i =
  let key = arg_key t k in
  if i >= inline_min && i <= inline_max then put_word t ((i lsl 23) lor key lor tag_int)
  else begin
    put_word t (key lor tag_wide);
    put_word t i
  end

let arg_str t k s =
  let key = arg_key t k in
  (* The word goes first: a chunk it starts must mark the string stream
     before this string, not after it. *)
  let off = reserve t in
  let rel = t.s_head - geti t.w_cur mark_off in
  seti t.w_cur off ((rel lsl 23) lor key lor tag_str);
  put_str t s

let arg_float t k f =
  let key = arg_key t k in
  put_word t (key lor tag_float);
  let off = reserve t in
  set64 t.w_cur off (Int64.bits_of_float f)

let arg_bool t k b =
  let key = arg_key t k in
  put_word t ((Bool.to_int b lsl 23) lor key lor tag_bool)

(* Close the open event into the ring; [v] is a counter's value. *)
let commit t v =
  if not t.o_open then no_event ();
  t.o_open <- false;
  let seq = t.next_seq + 1 in
  t.next_seq <- seq;
  if t.o_kc = kc_begin then t.next_span <- t.o_span;
  let at = t.clock () in
  (* In a full ring, the slot to write is the oldest event's. *)
  let j = t.next_ring mod t.cap in
  if t.next_ring - t.first = t.cap then begin
    evict_oldest t j;
    drop t 1
  end;
  let c = slot_chunk_w t j and off = slot_off j in
  seti c off seq;
  seti c (off + 8) at;
  seti c (off + 16)
    (((t.w_head - t.o_w0) lsl 43) lor (t.o_name lsl 23) lor (t.o_comp lsl 3) lor t.o_kc);
  if t.o_kc = kc_counter then set64 c (off + 24) (Int64.bits_of_float v)
  else seti c (off + 24) t.o_span;
  t.next_ring <- t.next_ring + 1;
  if t.subs != [] then notify (decode t (t.next_ring - 1) t.o_w0) t.subs

let close t = commit t 0.

let begin_instant t ~comp name = open_event t ~comp ~name ~kc:kc_instant ~span:0

let begin_span t ~comp name =
  open_event t ~comp ~name ~kc:kc_begin ~span:(t.next_span + 1);
  { sp_id = t.o_span; sp_comp = comp; sp_name = name; sp_pin = false; sp_open = true }

(* {2 Recording from arg lists} *)

let rec put_args t = function
  | [] -> ()
  | (k, v) :: rest ->
      (match v with
      | Int i -> arg_int t k i
      | Str s -> arg_str t k s
      | Float f -> arg_float t k f
      | Bool b -> arg_bool t k b);
      put_args t rest

(* A pinned event is kept as its record, outside the ring, and never
   refused. *)
let pin_event t ~comp ~name ~kind ~span args =
  check_closed t;
  let seq = t.next_seq + 1 in
  t.next_seq <- seq;
  let ev = { seq; at = t.clock (); comp; name; kind; span; args } in
  t.pinned <- ev :: t.pinned;
  notify ev t.subs

let emit t ?(pin = false) ?(args = []) ~comp name =
  if pin then pin_event t ~comp ~name ~kind:Instant ~span:0 args
  else begin
    begin_instant t ~comp name;
    put_args t args;
    close t
  end

let span_begin t ?(pin = false) ?(args = []) ~comp name =
  if pin then begin
    check_closed t;
    (* The id is taken before the subscribers run: they may open spans. *)
    t.next_span <- t.next_span + 1;
    let id = t.next_span in
    pin_event t ~comp ~name ~kind:Span_begin ~span:id args;
    { sp_id = id; sp_comp = comp; sp_name = name; sp_pin = true; sp_open = true }
  end
  else begin
    let sp = begin_span t ~comp name in
    put_args t args;
    close t;
    sp
  end

let span_end t ?(args = []) sp =
  if sp.sp_open then
    if sp.sp_pin then begin
      sp.sp_open <- false;
      pin_event t ~comp:sp.sp_comp ~name:sp.sp_name ~kind:Span_end ~span:sp.sp_id args
    end
    else begin
      open_event t ~comp:sp.sp_comp ~name:sp.sp_name ~kc:kc_end ~span:sp.sp_id;
      put_args t args;
      (* Closed before the subscribers run, which may close it again. *)
      sp.sp_open <- false;
      close t
    end

let counter t ?(args = []) ~comp name v =
  open_event t ~comp ~name ~kc:kc_counter ~span:0;
  put_args t args;
  commit t v

let log t ~comp lvl msg =
  open_event t ~comp ~name:"log" ~kc:(kc_log lvl) ~span:0;
  arg_str t "msg" msg;
  close t

(* {2 Reading} *)

(* Newest to oldest, consing: the list comes out in seq order. *)
let events t =
  let rec go i p pinned acc =
    if i < t.first then List.rev_append pinned acc
    else
      match pinned with
      | pe :: rest when pe.seq > seq_at t i -> go i p rest (pe :: acc)
      | _ ->
          let p = p - nwords (header_at t i) in
          go (i - 1) p pinned (decode t i p :: acc)
  in
  go (t.next_ring - 1) t.w_head t.pinned []

(* Surviving events in seq order, decoded one at a time. *)
let iter t f =
  let rec go i p pinned =
    match pinned with
    | pe :: rest when i = t.next_ring || pe.seq < seq_at t i ->
        f pe;
        go i p rest
    | _ ->
        if i < t.next_ring then begin
          let n = nwords (header_at t i) in
          f (decode t i p);
          go (i + 1) (p + n) pinned
        end
  in
  go t.first t.w_tail (List.rev t.pinned)

(* The surviving events' components, sorted. *)
let comps t =
  let seen = Array.make (Hashtbl.length t.vocab) false in
  for i = t.first to t.next_ring - 1 do
    seen.((header_at t i lsr 3) land field_max) <- true
  done;
  let comps = ref (List.map (fun e -> e.comp) t.pinned) in
  Array.iteri (fun id s -> if s then comps := t.names.(id) :: !comps) seen;
  List.sort_uniq String.compare !comps

(* {1 JSON rendering}

   All formatting is fixed-width-free and locale-independent so same-seed
   runs export byte-identical traces. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_float b f =
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
  else Buffer.add_string b "null"

let buf_add_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> buf_add_json_string b s
  | Float f -> buf_add_float b f
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let buf_add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    args;
  Buffer.add_char b '}'

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let kind_name = function
  | Instant -> "instant"
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Counter _ -> "counter"
  | Log _ -> "log"

let jsonl_event b ev =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"at\":%d,\"comp\":" ev.seq ev.at);
  buf_add_json_string b ev.comp;
  Buffer.add_string b ",\"name\":";
  buf_add_json_string b ev.name;
  Buffer.add_string b ",\"kind\":\"";
  Buffer.add_string b (kind_name ev.kind);
  Buffer.add_char b '"';
  (match ev.kind with
  | Counter v ->
      Buffer.add_string b ",\"value\":";
      buf_add_float b v
  | Log lvl ->
      Buffer.add_string b ",\"level\":\"";
      Buffer.add_string b (level_name lvl);
      Buffer.add_char b '"'
  | _ -> ());
  if ev.span <> 0 then
    Buffer.add_string b (Printf.sprintf ",\"span\":%d" ev.span);
  if ev.args <> [] then begin
    Buffer.add_string b ",\"args\":";
    buf_add_args b ev.args
  end;
  Buffer.add_string b "}\n"

let chrome_event b ~pid_of ev =
  let pid = pid_of ev.comp in
  let ts_of at = Printf.sprintf "%.3f" (float_of_int at /. 1000.) in
  let common ph =
    Buffer.add_string b
      (Printf.sprintf "{\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":0,\"name\":"
         ph (ts_of ev.at) pid);
    buf_add_json_string b ev.name
  in
  (match ev.kind with
  | Instant | Log _ ->
      common "i";
      Buffer.add_string b ",\"s\":\"t\"";
      let args =
        match ev.kind with
        | Log lvl -> ("level", Str (level_name lvl)) :: ev.args
        | _ -> ev.args
      in
      if args <> [] then begin
        Buffer.add_string b ",\"args\":";
        buf_add_args b args
      end
  | Span_begin | Span_end ->
      common (match ev.kind with Span_begin -> "b" | _ -> "e");
      Buffer.add_string b ",\"cat\":";
      buf_add_json_string b ev.comp;
      Buffer.add_string b (Printf.sprintf ",\"id\":\"0x%x\"" ev.span);
      if ev.args <> [] then begin
        Buffer.add_string b ",\"args\":";
        buf_add_args b ev.args
      end
  | Counter v ->
      common "C";
      Buffer.add_string b ",\"args\":{\"value\":";
      buf_add_float b v;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let flush_at = 65536

(* Render an export event by event into a buffer that is handed to [flush]
   whenever it passes [flush_at] bytes, and once at the end. *)
let render t ~format ~flush =
  let b = Buffer.create flush_at in
  let each f ev =
    f ev;
    if Buffer.length b >= flush_at then begin
      flush b;
      Buffer.clear b
    end
  in
  let truncated = if truncated t then "true" else "false" in
  (match format with
  | `Jsonl ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\":\"header\",\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}\n"
           t.cap t.next_seq t.dropped_n truncated);
      iter t (each (jsonl_event b))
  | `Chrome ->
      (* Chrome trace_event format, JSON-object form.  Components become
         processes (named via "M" metadata events); spans are async
         ("b"/"e") keyed by the span id so nesting across processes renders
         correctly. *)
      let comps = comps t in
      let pid_of =
        let tbl = Hashtbl.create 16 in
        List.iteri (fun i c -> Hashtbl.replace tbl c (i + 1)) comps;
        fun c -> try Hashtbl.find tbl c with Not_found -> 0
      in
      Buffer.add_string b "{\"traceEvents\":[";
      let first = ref true in
      let sep () =
        if !first then first := false else Buffer.add_char b ',';
        Buffer.add_char b '\n'
      in
      List.iter
        (fun c ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
               (pid_of c));
          buf_add_json_string b c;
          Buffer.add_string b "}}")
        comps;
      iter t
        (each (fun ev ->
             sep ();
             chrome_event b ~pid_of ev));
      Buffer.add_string b
        (Printf.sprintf
           "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"cap\":%d,\"emitted\":%d,\"dropped\":%d,\"truncated\":%s}}\n"
           t.cap t.next_seq t.dropped_n truncated));
  flush b

let to_string t ~format =
  let out = Buffer.create flush_at in
  render t ~format ~flush:(Buffer.add_buffer out);
  Buffer.contents out

let to_jsonl t = to_string t ~format:`Jsonl
let to_chrome t = to_string t ~format:`Chrome

let write_file t ~format path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> render t ~format ~flush:(Buffer.output_buffer oc))

module Query = struct
  let filter ?comp ?name evs =
    List.filter
      (fun e ->
        (match comp with Some c -> e.comp = c | None -> true)
        && match name with Some n -> e.name = n | None -> true)
      evs

  let int_arg e k =
    match List.assoc_opt k e.args with Some (Int i) -> Some i | _ -> None

  let str_arg e k =
    match List.assoc_opt k e.args with Some (Str s) -> Some s | _ -> None

  let pair_spans evs =
    let ends = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match e.kind with
        | Span_end -> if not (Hashtbl.mem ends e.span) then Hashtbl.add ends e.span e
        | _ -> ())
      evs;
    List.filter_map
      (fun e ->
        match e.kind with
        | Span_begin -> Some (e, Hashtbl.find_opt ends e.span)
        | _ -> None)
      evs

  let durations ?comp ?name evs =
    List.filter_map
      (fun (b, e) ->
        match e with
        | Some e -> Some (b.name, e.at - b.at)
        | None -> None)
      (pair_spans (filter ?comp ?name evs))

  let span_of ?comp ~name evs =
    match pair_spans (filter ?comp ~name evs) with
    | (b, Some e) :: _ -> Some (b.at, e.at)
    | _ -> None
end
