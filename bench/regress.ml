(* bench-regression gate: compare a fresh BENCH_*.json against the
   committed baseline and fail (exit 1) when a gated metric drifts the
   wrong way by more than its tolerance.

     regress BASELINE.json CURRENT.json

   The dumps are JSON arrays of per-engine metric registries (see
   bench/main.ml: dump_bench).  Numeric leaves are flattened to
   "<engine-index>.<metric-name>" keys.  Every key of the baseline whose
   suffix is listed below is gated, whatever its prefix; the rest (raw
   counters, timings the simulator does not hold deterministic across
   refactors) stay informational.  The suffix sets the direction and the
   tolerance:

     *.msgs_per_op, *.bytes_per_op     lower is better, 10 %
     *.p50_ms, *.p90_ms, *.p99_ms,
     *.p999_ms, *.window_ms            lower is better, 10 % (latency
                                       percentiles and failover-window
                                       length regress upward)
     *.shed_rate, *.accept_overflow    lower is better, 10 %
     *.ops_per_sec, *_reduction_pct    higher is better, 10 %
     *.seeds_per_sec, *.speedup_x      higher is better, 50 % (wall clock)
     *.report_identical                exact

   The 10 % keys are simulated time and repeat exactly run to run; the
   50 % keys are host wall clock.  A gated key present in the baseline but
   missing from the current dump is a failure (a regression can't hide by
   deleting its metric). *)

let threshold = 0.10

(* Wall-clock metrics (the chaosparallel campaign-throughput sweep is the
   only family) are real host time, not simulated time: they move with the
   runner's core count and load, so their gate only catches gross
   regressions — a broken domain pool, not scheduler jitter. *)
let wall_threshold = 0.50

(* {1 A minimal JSON reader}

   Covers exactly what the bench dumps contain: objects, arrays, numbers,
   strings, null/true/false.  No dependencies, so the gate can run in CI
   from a bare dune build. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse of string

type cur = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> raise (Parse (Printf.sprintf "expected %c at byte %d" ch c.pos))

let parse_lit c lit v =
  if
    c.pos + String.length lit <= String.length c.s
    && String.sub c.s c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    v
  end
  else raise (Parse (Printf.sprintf "bad literal at byte %d" c.pos))

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then raise (Parse "unterminated string");
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    if ch = '"' then Buffer.contents b
    else if ch = '\\' then begin
      (if c.pos >= String.length c.s then raise (Parse "unterminated escape");
       let e = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'u' ->
           (* The dumps only escape control characters; a lossy readback
              is fine for key names. *)
           if c.pos + 4 > String.length c.s then raise (Parse "bad \\u");
           c.pos <- c.pos + 4;
           Buffer.add_char b '?'
       | _ -> raise (Parse "unknown escape"));
      go ()
    end
    else begin
      Buffer.add_char b ch;
      go ()
    end
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some f -> J_num f
  | None -> raise (Parse (Printf.sprintf "bad number at byte %d" start))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              J_obj (List.rev ((k, v) :: acc))
          | _ -> raise (Parse "expected , or } in object")
        in
        members []
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        J_arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              J_arr (List.rev (v :: acc))
          | _ -> raise (Parse "expected , or ] in array")
        in
        elems []
      end
  | Some '"' -> J_str (parse_string c)
  | Some 'n' -> parse_lit c "null" J_null
  | Some 't' -> parse_lit c "true" (J_bool true)
  | Some 'f' -> parse_lit c "false" (J_bool false)
  | Some _ -> parse_number c
  | None -> raise (Parse "unexpected end of input")

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then raise (Parse "trailing bytes");
  v

(* {1 Flatten and compare} *)

let flatten root =
  let out = ref [] in
  let rec go prefix = function
    | J_num f -> out := (prefix, f) :: !out
    | J_obj kvs ->
        List.iter (fun (k, v) -> go (if prefix = "" then k else prefix ^ "." ^ k) v) kvs
    | J_arr vs ->
        List.iteri (fun i v -> go (if prefix = "" then string_of_int i else prefix ^ "." ^ string_of_int i) v) vs
    | J_null | J_bool _ | J_str _ -> ()
  in
  go "" root;
  List.rev !out

let ends_with suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Each gated suffix carries its direction and its tolerance; keys without
   a recognized suffix stay informational. *)
let direction key =
  if
    ends_with ".msgs_per_op" key || ends_with ".bytes_per_op" key
    || ends_with ".p50_ms" key || ends_with ".p90_ms" key
    || ends_with ".p99_ms" key || ends_with ".p999_ms" key
    || ends_with ".window_ms" key
    || ends_with ".shed_rate" key
    || ends_with ".accept_overflow" key
  then Some (`Lower_better, threshold)
  else if ends_with ".ops_per_sec" key || ends_with "_reduction_pct" key then
    Some (`Higher_better, threshold)
  else if ends_with ".seeds_per_sec" key || ends_with ".speedup_x" key then
    Some (`Higher_better, wall_threshold)
  else if ends_with ".report_identical" key then
    (* Boolean determinism gauges: exact match, no drift allowance. *)
    Some (`Exact, 0.0)
  else None

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
        prerr_endline "usage: regress BASELINE.json CURRENT.json";
        exit 2
  in
  let load path =
    try flatten (parse_file path) with
    | Sys_error msg ->
        Printf.eprintf "regress: %s\n" msg;
        exit 2
    | Parse msg ->
        Printf.eprintf "regress: %s: %s\n" path msg;
        exit 2
  in
  let base = load baseline_path and cur = load current_path in
  let failures = ref 0 and compared = ref 0 in
  Printf.printf "%-52s %12s %12s %8s  %s\n" "metric" "baseline" "current"
    "delta%" "verdict";
  List.iter
    (fun (key, bv) ->
      match direction key with
      | None -> ()
      | Some (dir, tol) -> (
          incr compared;
          match List.assoc_opt key cur with
          | None ->
              incr failures;
              Printf.printf "%-52s %12.3f %12s %8s  FAIL (missing)\n" key bv
                "-" "-"
          | Some cv ->
              let delta =
                if bv <> 0.0 then 100.0 *. ((cv /. bv) -. 1.0) else 0.0
              in
              let ok =
                match dir with
                | `Exact -> cv = bv
                | `Lower_better -> bv = 0.0 || cv <= bv *. (1.0 +. tol)
                | `Higher_better -> bv = 0.0 || cv >= bv *. (1.0 -. tol)
              in
              if not ok then incr failures;
              Printf.printf "%-52s %12.3f %12.3f %+8.1f  %s\n" key bv cv
                delta
                (if ok then "ok" else "FAIL")))
    base;
  if !compared = 0 then begin
    (* An empty comparison is itself a gate failure: the baseline no longer
       matches what the bench emits. *)
    Printf.printf "no gated metrics found in %s\n" baseline_path;
    exit 1
  end;
  Printf.printf "%d metrics compared, %d failed (threshold %.0f%%)\n" !compared
    !failures (100.0 *. threshold);
  if !failures > 0 then exit 1
