(* The benchmark's own guarantees, on small versions of its workloads:
   a seed fixes every simulated number, a different seed reaches the
   inputs, every output check passes, and the traced run neither perturbs
   the simulation nor misreports its host time. *)

open Ftbench

let workloads = [ ("compress", `Compress); ("web", `Web); ("chaos", `Chaos) ]

let rep ?(with_layers = true) workload ~seed =
  Worlds.run_rep ~with_layers (Probe.untraced ()) workload ~size:Worlds.Small ~seed

let sim_string (r : Worlds.rep) = Runner.json_object r.Worlds.sim

let test_seed_repeats workload () =
  let a = rep workload ~seed:1 and b = rep workload ~seed:1 in
  Alcotest.(check (list string)) "checks pass" [] a.Worlds.failures;
  Alcotest.(check string) "simulated metrics" (sim_string a) (sim_string b);
  Alcotest.(check (list (pair string (float 0.))))
    "per-layer counts" a.Worlds.layers b.Worlds.layers;
  Alcotest.(check string) "registry and Evlog" a.Worlds.fingerprint b.Worlds.fingerprint;
  Alcotest.(check int) "attempted" a.Worlds.attempted b.Worlds.attempted;
  Alcotest.(check int) "failed" 0 a.Worlds.failed

let test_seeds_differ workload () =
  let a = rep workload ~seed:1 and b = rep workload ~seed:2 in
  Alcotest.(check (list string)) "checks pass" [] b.Worlds.failures;
  Alcotest.(check bool) "a second seed changes the run" true
    (sim_string a <> sim_string b || a.Worlds.fingerprint <> b.Worlds.fingerprint)

let opts workload name =
  { Runner.workload; name; seed = 1; seconds = 0.; size = Worlds.Small; out_dir = "." }

(* One traced run of the small web workload (it has the failover), shared
   by the tests below. *)
let traced = lazy (Runner.measure_traced ~micro_batches:1 (opts `Web "web"))

let test_trace_invariants () =
  let t = Lazy.force traced in
  Alcotest.(check (list string)) "invariants" [] (Runner.trace_invariants t);
  Alcotest.(check (list string)) "checks pass" []
    (List.concat_map (fun r -> r.Worlds.failures) [ t.Runner.rep1; t.Runner.rep2; t.Runner.rep3 ])

let test_trace_spans () =
  let t = Lazy.force traced in
  let names = List.sort_uniq compare (List.map (fun s -> s.Probe.sp_name) t.Runner.run_spans) in
  List.iter
    (fun n -> Alcotest.(check bool) ("span " ^ n) true (List.mem n names))
    [
      "Engine.create";
      "Link.create+Host.create";
      "Cluster.create";
      "Loadgen.ol_start";
      "Engine.run";
      "checks";
      "Cluster.shutdown";
      "metrics.export";
    ];
  let slices = List.filter (fun s -> s.Probe.sp_name = "Engine.run") t.Runner.run_spans in
  Alcotest.(check bool) "GC children recorded" true
    (List.exists (fun s -> List.exists (fun (_, d) -> d > 0.) s.Probe.sp_gc) slices)

(* The span checks fail when the benchmark works outside every span, and
   when two spans overlap. *)
let test_trace_gaps () =
  let t = Lazy.force traced in
  let fails t = Runner.trace_invariants t <> [] in
  Alcotest.(check bool) "unspanned second" true
    (fails { t with Runner.cpu1 = t.Runner.cpu1 +. 1. });
  let overlapping =
    match t.Runner.run_spans with
    | a :: b :: rest -> b :: a :: rest
    | spans -> spans
  in
  Alcotest.(check bool) "overlapping spans" true
    (fails { t with Runner.run_spans = overlapping })

let test_trace_values () =
  let t = Lazy.force traced in
  let values = Runner.layer_values t in
  List.iter
    (fun (n, v) ->
      Alcotest.(check bool) ("catalogued: " ^ n) true (List.mem_assoc n Runner.per_layer);
      Alcotest.(check bool) ("finite: " ^ n) true (Float.is_finite v))
    values;
  let get n = List.assoc n values in
  Alcotest.(check bool) "overhead reported" true (Float.is_finite (get "trace.overhead"));
  Alcotest.(check (float 0.)) "no Evlog drops" 0. (get "sim.evlog_dropped");
  Alcotest.(check bool) "failover phases" true (get "ftlinux.failover_reload_ms" > 0.)

let test_micro_iterations () =
  let t = Lazy.force traced in
  Alcotest.(check int) "seven ops" 7 (List.length t.Runner.micro);
  List.iter
    (fun (op, (ns, iters)) ->
      Alcotest.(check bool) (op ^ " iterations") true (iters > 0);
      Alcotest.(check bool) (op ^ " time") true (ns > 0.))
    t.Runner.micro

let () =
  Alcotest.run "perfbench"
    [
      ( "seeds",
        List.concat_map
          (fun (name, w) ->
            [
              Alcotest.test_case (name ^ " seed repeats") `Quick (test_seed_repeats w);
              Alcotest.test_case (name ^ " seeds differ") `Quick (test_seeds_differ w);
            ])
          workloads );
      ( "traced",
        [
          Alcotest.test_case "invariants" `Quick test_trace_invariants;
          Alcotest.test_case "host spans" `Quick test_trace_spans;
          Alcotest.test_case "span gaps" `Quick test_trace_gaps;
          Alcotest.test_case "per-layer values" `Quick test_trace_values;
          Alcotest.test_case "micro op iterations" `Quick test_micro_iterations;
        ] );
    ]
