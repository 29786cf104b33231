(* The benchmark's own tests, on inputs small enough for [dune runtest]:
   the checked-in BENCHMARK.json is the catalog's, a forced failure is
   counted and the run completes, one seed repeats its exact metrics
   while another changes the inputs, and a traced run prints every
   per-layer metric and writes a Chrome trace that parses as JSON. *)

open Perfbench

let small = { Workloads.lossfree_n = 300; sweep_samples = 1; serve_n = 200; serve_queries = 3000 }

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names metrics = List.map (fun m -> m.Catalog.name) metrics

let covers what (r : Bench.result) catalog =
  let got = List.map fst r.Bench.metrics in
  check (what ^ ": every catalog metric, once, in order") (got = names catalog);
  check (what ^ ": finite values")
    (List.for_all (fun (_, v) -> Float.is_finite v) r.Bench.metrics)

let untraced ~seed w = Bench.untraced ~setup_sample_s:0.01 w ~seed ~seconds:0.2
let traced name w = Bench.traced ~name ~seed:2 ~trace_file:(name ^ ".trace.json") w

(* Exact metrics: the end-to-end counts and every per-layer count, less
   the GC's collection counts, which depend on the heap the process
   already has. *)
let exact_e2e = [ "alloc_mwords"; "spanner_edges"; "sim_rounds"; "sim_words" ]

let exact_layer =
  List.filter_map
    (fun m ->
      if m.Catalog.unit = "count" && String.sub m.Catalog.name 0 3 <> "gc." then Some m.Catalog.name
      else None)
    Catalog.per_layer

let pick keys (r : Bench.result) = List.map (fun k -> (k, List.assoc k r.Bench.metrics)) keys

let same_counts (a : Bench.result) (b : Bench.result) =
  a.Bench.attempted = b.Bench.attempted && a.Bench.failed = b.Bench.failed

let workload name ~seed ~trace =
  let go w = if trace then traced name w else untraced ~seed w in
  match name with
  | "build-lossfree" -> go (Workloads.lossfree small)
  | "sweep-faults" -> go (Workloads.sweep small)
  | _ -> go (Workloads.serve small)

let () =
  check "BENCHMARK.json is the catalog's"
    (read_file "../../BENCHMARK.json" = Catalog.benchmark_json ());
  (* A build that cannot finish its first phase raises Stuck: the op
     counts as failed and the loop carries on with the next op. *)
  let r = untraced ~seed:3 (Workloads.lossfree ~phase_round_limit:1 small) in
  check "forced failure counted once" (r.Bench.failed = 1);
  check "run completed past the failure" (r.Bench.attempted >= 2);
  covers "forced-failure run" r Catalog.end_to_end;
  (* Seed 19's windows hold restart-storm sample 137, which fails
     certification with the builtin spec: whatever its verdict, two
     runs of the seed must count the same ops and the same failures. *)
  let s1 = untraced ~seed:19 (Workloads.sweep small) in
  let s2 = untraced ~seed:19 (Workloads.sweep small) in
  check "sweep seed 19: same op counts in two runs" (same_counts s1 s2);
  List.iter
    (fun (name, _) ->
      let a = workload name ~seed:4 ~trace:false in
      let b = workload name ~seed:4 ~trace:false in
      let c = workload name ~seed:5 ~trace:false in
      covers name a Catalog.end_to_end;
      check (name ^ ": no failed op") (a.Bench.failed = 0 && a.Bench.consistent);
      check (name ^ ": same seed, same exact metrics") (pick exact_e2e a = pick exact_e2e b);
      check (name ^ ": same seed, same op counts") (same_counts a b);
      check (name ^ ": another seed, other inputs") (pick exact_e2e a <> pick exact_e2e c);
      let t1 = workload name ~seed:2 ~trace:true in
      let t2 = workload name ~seed:2 ~trace:true in
      covers (name ^ " traced") t1 Catalog.per_layer;
      check (name ^ ": traced verdicts agree") t1.Bench.consistent;
      check (name ^ ": same seed, same per-layer counts") (pick exact_layer t1 = pick exact_layer t2);
      check (name ^ ": Chrome trace parses")
        (Sys.command (Printf.sprintf "python3 -m json.tool %s.trace.json > /dev/null" name) = 0))
    Catalog.workloads;
  if !failures > 0 then exit 1
