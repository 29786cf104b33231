(* The benchmark's workloads and metrics, the one source of
   BENCHMARK.json ([main.exe --benchmark-json] prints it; the
   benchmark's tests compare it with the checked-in file). *)

let workloads =
  [
    ( "build-lossfree",
      "build + certify on G(20000, 8/n) without faults: the paper's construction where \
       its linear size shows; engine and protocol work, the ARQ is bypassed" );
    ( "sweep-faults",
      "the five staple fault families at n = 64 through Sweep.run_plan, the CI and \
       nightly-soak traffic: ARQ, repair, rejoin and certification" );
    ( "serve-churn",
      "a million Zipf queries on G(4000, 8/n) while a churn repair over the ARQ \
       republishes the snapshot: reads beside writes" );
  ]

type metric = { name : string; unit : string; better : string; bound : float option }

let m ?bound name unit better = { name; unit; better; bound }

(* Bounds: on a two-core VM whose speed drifts over minutes, a timing
   spreads 4-19% over ten runs (see README), so the timings get the
   widest bound allowed; the exact counts vary only with the seed's
   inputs, 1-7%. *)
let end_to_end =
  [
    m "setup_s" "s" "lower" ~bound:0.25;
    m "solve_s" "s" "lower" ~bound:0.25;
    m "samples_per_s" "1/s" "higher" ~bound:0.25;
    m "qps" "q/s" "higher" ~bound:0.25;
    m "latency_p50_ns" "ns" "lower" ~bound:0.25;
    m "latency_p99_ns" "ns" "lower" ~bound:0.25;
    m "republish_s" "s" "lower" ~bound:0.25;
    m "alloc_mwords" "Mword" "lower" ~bound:0.15;
    m "peak_heap_mb" "MB" "lower" ~bound:0.15;
    m "spanner_edges" "edges" "lower" ~bound:0.15;
    m "sim_rounds" "count" "lower" ~bound:0.15;
    m "sim_words" "count" "lower" ~bound:0.15;
  ]

let per_layer =
  [
    m "graphlib.gen_s" "s" "lower";
    m "sim.messages" "count" "lower";
    m "sim.max_message_words" "words" "lower";
    m "sim.probe_ns_per_msg" "ns" "lower";
    m "sim.probe_words_per_msg" "words" "lower";
    m "arq.retransmissions" "count" "lower";
    m "arq.dead_letters" "count" "lower";
    m "arq.retx_per_msg" "ratio" "lower";
    m "arq.tax_x" "x" "lower";
    m "arq.tax_words_x" "x" "lower";
    m "arq.probe_ns_per_node_round" "ns" "lower";
    m "arq.probe_words_per_node_round" "words" "lower";
    m "skel.build_s" "s" "lower";
    m "skel.alloc_mwords" "Mword" "lower";
    m "skel.aborts" "count" "lower";
    m "skel.orphaned" "count" "lower";
    m "skel.recovered_edges" "count" "lower";
    m "skel.repair_rounds" "count" "lower";
    m "skel.rehooked" "count" "higher";
    m "skel.rejoined" "count" "higher";
    m "certify.run_s" "s" "lower";
    m "certify.alloc_mwords" "Mword" "lower";
    m "certify.pairs" "count" "higher";
    m "certify.max_stretch" "ratio" "lower";
    m "snapshot.build_s" "s" "lower";
    m "snapshot.alloc_mwords" "Mword" "lower";
    m "snapshot.oracle_entries" "count" "lower";
    m "server.ns_per_query" "ns" "lower";
    m "server.words_per_query" "words" "lower";
    m "server.p999_ns" "ns" "lower";
    m "server.unanswerable" "count" "lower";
    m "server.stale" "count" "lower";
    m "server.audit_failures" "count" "lower";
    m "workload.gen_s" "s" "lower";
    m "scenario.compile_s" "s" "lower";
    m "sweep.sample_p50_ms" "ms" "lower";
    m "sweep.sample_p95_ms" "ms" "lower";
  ]
  @ List.map (fun f -> m ("sweep." ^ f ^ ".p50_ms") "ms" "lower") Workloads.families
  @ List.map (fun f -> m ("sweep." ^ f ^ ".alloc_mwords") "Mword" "lower") Workloads.families
  @ [
      m "sweep.intact" "count" "higher";
      m "sweep.patched" "count" "higher";
      m "sweep.degraded" "count" "lower";
      m "sweep.partitioned" "count" "lower";
      m "sweep.failed" "count" "lower";
      m "obs.trace_x" "x" "lower";
      m "obs.metrics_x" "x" "lower";
      m "obs.spans_x" "x" "lower";
      m "obs.prof_x" "x" "lower";
      m "obs.timer_sweeps" "count" "lower";
      m "gc.minor_collections" "count" "lower";
      m "gc.major_collections" "count" "lower";
      m "proc.sys_s" "s" "lower";
      m "bench.trace_overhead_x" "x" "lower";
    ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("Catalog.unit_of: " ^ name)

(* Seconds an untraced run keeps running ops: long enough for every
   instance to get an op, short enough that seventy runs of the three
   workloads take under an hour. *)
let run_seconds = 25

let benchmark_json () =
  let b = Buffer.create 4096 in
  let metric x =
    Printf.bprintf b "    {\"name\": %S, \"unit\": %S, \"better\": %S%s}" x.name x.unit x.better
      (match x.bound with Some v -> Printf.sprintf ", \"bound\": %g" v | None -> "")
  in
  let list name xs f =
    Printf.bprintf b "  %S: [\n" name;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        f x)
      xs;
    Buffer.add_string b "\n  ]"
  in
  Buffer.add_string b "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n";
  Buffer.add_string b "  \"paths\": [\"perfbench\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  list "workloads" workloads (fun (name, why) ->
      Printf.bprintf b "    {\"name\": %S, \"why\": %S}" name why);
  Buffer.add_string b ",\n";
  list "end_to_end" end_to_end metric;
  Buffer.add_string b ",\n";
  list "per_layer" per_layer metric;
  Buffer.add_string b "\n}\n";
  Buffer.contents b
