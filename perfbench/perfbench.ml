(* The benchmark's command line:

     perfbench.exe --workload compress|web|chaos --seed N --seconds S --trace 0|1

   See [Runner] for what each mode measures; run.py builds and runs it. *)

open Ftbench

let usage =
  "perfbench.exe --workload compress|web|chaos --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out_dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " compress | web | chaos");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured CPU seconds per run (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ( "--out-dir",
        Arg.Set_string out_dir,
        " where traced runs write their spans (default .bench_out)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let name = !workload in
  let workload =
    match Worlds.workload_of_string name with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  let o =
    { Runner.workload; name; seed = !seed; seconds = !seconds; size = Worlds.Full; out_dir = !out_dir }
  in
  let correct = if !trace = 0 then Runner.untraced o else Runner.traced o in
  exit (if correct then 0 else 1)
