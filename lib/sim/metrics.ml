module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0.0 }
  let set t v = t.v <- v
  let value t = t.v
end

module Hist = struct
  (* Buckets are indexed by round(8 * log2 v); inverting the index gives the
     bucket's representative value, so quantiles carry ≈9 % relative error. *)
  type t = {
    tbl : (int, int) Hashtbl.t;
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    { tbl = Hashtbl.create 64; n = 0; sum = 0.0; mn = infinity; mx = neg_infinity }

  let bucket_of v =
    if v <= 0.0 then min_int
    else int_of_float (Float.round (8.0 *. (log v /. log 2.0)))

  let value_of_bucket b =
    if b = min_int then 0.0 else Float.pow 2.0 (float_of_int b /. 8.0)

  let record t v =
    let b = bucket_of v in
    Hashtbl.replace t.tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt t.tbl b));
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n
  let min t = if t.n = 0 then nan else t.mn
  let max t = if t.n = 0 then nan else t.mx

  let buckets t =
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let quantile t q =
    if t.n = 0 then nan
    else begin
      let buckets = buckets t in
      let target = Float.to_int (Float.round (q *. float_of_int t.n)) in
      let target = Stdlib.max 1 (Stdlib.min t.n target) in
      let rec walk acc = function
        | [] -> t.mx
        | (b, c) :: rest ->
            if acc + c >= target then value_of_bucket b else walk (acc + c) rest
      in
      walk 0 buckets
    end
end

module Registry = struct
  type instrument =
    | I_counter of Counter.t
    | I_gauge of Gauge.t
    | I_hist of Hist.t
  type t = (string, instrument) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let kind_err name want =
    invalid_arg
      (Printf.sprintf "Metrics.Registry: %S already registered as a non-%s" name
         want)

  let counter t name =
    match Hashtbl.find_opt t name with
    | Some (I_counter c) -> c
    | Some _ -> kind_err name "counter"
    | None ->
        let c = Counter.create () in
        Hashtbl.replace t name (I_counter c);
        c

  let gauge t name =
    match Hashtbl.find_opt t name with
    | Some (I_gauge g) -> g
    | Some _ -> kind_err name "gauge"
    | None ->
        let g = Gauge.create () in
        Hashtbl.replace t name (I_gauge g);
        g

  let hist t name =
    match Hashtbl.find_opt t name with
    | Some (I_hist h) -> h
    | Some _ -> kind_err name "hist"
    | None ->
        let h = Hist.create () in
        Hashtbl.replace t name (I_hist h);
        h

  let names t =
    (* String.compare, not polymorphic compare: the bench-regression gate
       byte-diffs these dumps, so key order must not depend on how any
       OCaml version's generic comparison treats strings. *)
    Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

  type value =
    | V_counter of int
    | V_gauge of float
    | V_hist of Hist.t

  let view = function
    | I_counter c -> V_counter (Counter.value c)
    | I_gauge g -> V_gauge (Gauge.value g)
    | I_hist h -> V_hist h

  let find t name = Option.map view (Hashtbl.find_opt t name)

  let iter t f =
    List.iter (fun name -> f name (view (Hashtbl.find t name))) (names t)

  (* JSON emission must be deterministic (keys sorted, fixed float format)
     so that two same-seed runs produce byte-identical dumps. *)
  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_float v =
    if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

  let hist_json h =
    Printf.sprintf
      "{\"count\": %d, \"mean\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \
       \"p90\": %s, \"p99\": %s, \"p999\": %s}"
      (Hist.count h)
      (json_float (Hist.mean h))
      (json_float (Hist.min h))
      (json_float (Hist.max h))
      (json_float (Hist.quantile h 0.50))
      (json_float (Hist.quantile h 0.90))
      (json_float (Hist.quantile h 0.99))
      (json_float (Hist.quantile h 0.999))

  let to_json t =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{";
    List.iteri
      (fun i name ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b "\n  \"";
        Buffer.add_string b (json_escape name);
        Buffer.add_string b "\": ";
        match Hashtbl.find t name with
        | I_counter c -> Buffer.add_string b (string_of_int (Counter.value c))
        | I_gauge g -> Buffer.add_string b (json_float (Gauge.value g))
        | I_hist h -> Buffer.add_string b (hist_json h))
      (names t);
    Buffer.add_string b "\n}\n";
    Buffer.contents b
end

module Series = struct
  type t = { bucket : Time.t; tbl : (int, float) Hashtbl.t }

  let create ~bucket =
    if bucket <= 0 then invalid_arg "Series.create: bucket must be positive";
    { bucket; tbl = Hashtbl.create 64 }

  let add t ~at v =
    let i = at / t.bucket in
    Hashtbl.replace t.tbl i (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.tbl i))

  let buckets t =
    if Hashtbl.length t.tbl = 0 then []
    else begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
      let lo = List.fold_left Stdlib.min (List.hd keys) keys in
      let hi = List.fold_left Stdlib.max (List.hd keys) keys in
      List.init
        (hi - lo + 1)
        (fun i ->
          let k = lo + i in
          (k * t.bucket, Option.value ~default:0.0 (Hashtbl.find_opt t.tbl k)))
    end

  let rate_per_sec t =
    let bucket_sec = Time.to_sec_f t.bucket in
    List.map
      (fun (start, sum) -> (Time.to_sec_f start, sum /. bucket_sec))
      (buckets t)
end
