(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014). Chosen for determinism, speed, and cheap
   splitting; statistical quality is ample for workload modelling. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor z 1L in
  (* Ensure enough bit transitions for a good gamma. *)
  let n =
    let xor_shift = Int64.logxor z (Int64.shift_right_logical z 1) in
    let rec popcount acc v =
      if Int64.equal v 0L then acc
      else popcount (acc + 1) (Int64.logand v (Int64.sub v 1L))
    in
    popcount 0 xor_shift
  in
  if n < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create ~seed = { state = Int64.of_int seed; gamma = golden_gamma }

let next_raw t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let int64 t = mix64 (next_raw t)

let split t =
  let s = next_raw t in
  let g = next_raw t in
  { state = mix64 s; gamma = mix_gamma g }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (int64 t) land max_int in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, as in standard doubles-from-bits constructions. *)
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L
