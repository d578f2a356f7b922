open Ftsim_sim

type addr = { host : string; port : int }

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let data_flags = { syn = false; ack = true; fin = false; rst = false }

let flag ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false) () =
  { syn; ack; fin; rst }

type t = {
  src : addr;
  dst : addr;
  seq : int;
  ack_seq : int;
  window : int;
  flags : flags;
  payload : Payload.chunk list;
}

let payload_len t = Payload.total_len t.payload

let header_bytes = 66
let mtu = 1500

let wire_size t = payload_len t + header_bytes
