type t = int

let zero = 0
let never = max_int
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let of_sec_f s = int_of_float (s *. 1e9 +. 0.5)
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3

let pp fmt t =
  let f = float_of_int t in
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.3fus" (f /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)

let to_string t = Format.asprintf "%a" pp t
