open Ftsim_sim

type reader = {
  recv : int -> Payload.chunk list;
  mutable pending : Payload.chunk list;  (* unread, in order *)
  mutable eof : bool;
}

let reader_fn recv = { recv; pending = []; eof = false }

let reader conn = reader_fn (fun max -> Tcp.recv conn ~max)

let refill r =
  match r.recv 65536 with
  | [] -> r.eof <- true
  | cs -> r.pending <- r.pending @ cs

(* Header blocks are small and always literal strings, so materializing here
   is cheap.  Each pass scans only what the last chunk added, from 3 bytes
   back so a terminator split across chunks is found. *)
let read_headers r =
  let buf = Buffer.create 256 in
  let rec find i =
    if i + 3 >= Buffer.length buf then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some i
    else find (i + 1)
  in
  let rec loop from =
    match find from with
    | Some i ->
        let s = Buffer.contents buf in
        let headers = String.sub s 0 i in
        let rest = String.sub s (i + 4) (String.length s - i - 4) in
        if String.length rest > 0 then
          r.pending <- Payload.of_string rest :: r.pending;
        Some headers
    | None -> (
        let from = max 0 (Buffer.length buf - 3) in
        match r.pending with
        | c :: rest ->
            r.pending <- rest;
            Buffer.add_string buf (Payload.chunk_to_string c);
            loop from
        | [] ->
            if r.eof then None
            else begin
              refill r;
              if r.eof && r.pending = [] then None else loop from
            end)
  in
  loop 0

(* Consume up to [n] bytes, folding [f] over them chunk by chunk (refilling
   as needed) in stream order; stops early at end-of-stream. *)
let consume r n f acc =
  let rec loop acc need =
    if need = 0 then acc
    else
      match r.pending with
      | c :: rest ->
          let cl = Payload.chunk_len c in
          if cl <= need then begin
            r.pending <- rest;
            loop (f acc c) (need - cl)
          end
          else begin
            let hd, tl = Payload.split_chunk c need in
            r.pending <- tl :: rest;
            f acc hd
          end
      | [] ->
          if r.eof then acc
          else begin
            refill r;
            loop acc need
          end
  in
  loop acc n

let read_body r n = List.rev (consume r n (fun acc c -> c :: acc) [])
let skip_body r n = consume r n (fun k c -> k + Payload.chunk_len c) 0

let request ~meth ~target = Printf.sprintf "%s %s HTTP/1.1\r\n\r\n" meth target

let response_header ?(status = 200) ?(reason = "OK") ~content_length () =
  Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n" status reason
    content_length

let first_line s =
  match String.index_opt s '\r' with
  | Some i -> String.sub s 0 i
  | None -> s

let request_target hdr =
  match String.split_on_char ' ' (first_line hdr) with
  | _meth :: target :: _ -> Some target
  | _ -> None

let content_length hdr =
  let lines = String.split_on_char '\n' hdr in
  let rec find = function
    | [] -> None
    | l :: rest ->
        let l = String.trim l in
        let prefix = "content-length:" in
        let ll = String.lowercase_ascii l in
        if String.length ll >= String.length prefix
           && String.sub ll 0 (String.length prefix) = prefix
        then
          int_of_string_opt
            (String.trim (String.sub l (String.length prefix)
                            (String.length l - String.length prefix)))
        else find rest
  in
  find lines

let status_code hdr =
  match String.split_on_char ' ' (first_line hdr) with
  | _http :: code :: _ -> int_of_string_opt code
  | _ -> None
