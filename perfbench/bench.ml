(* The two kinds of run.

   An untraced run sets up instance 0 and runs its first op, sets up
   the other instances, then runs ops in a closed loop, in whole cycles
   of one op per instance (see {!cycles}).  It reports the
   end-to-end metrics, with every instance weighing the same: a timed
   metric is the median over instances of each instance's median, a
   latency percentile the median over instances of the percentile of
   its pooled requests, and an exact metric the sum over instances of
   its first completed op.  A traced run reports the per-layer metrics
   instead: on instance 0 it runs one op untraced and one traced, a
   layer pass, probes of single layers, and writes every span as a
   Chrome trace. *)

type result = {
  attempted : int;
  failed : int;
  consistent : bool;
      (** the exact outputs (spanner size, rounds, words) repeated
          whenever an op ran on the same instance, as a deterministic
          simulator must, and a traced run's layer pass agreed with the
          op's verdicts *)
  metrics : (string * float) list;
}

(* One op and its wall time; an exception counts as one failed op. *)
let run_op (w : 'i Workloads.t) sp tally inp i =
  let r, c =
    Meter.measure (fun () ->
        match w.Workloads.op sp tally inp i with
        | o -> Some o
        | exception exn ->
            Printf.eprintf "perfbench: op %d raised %s\n%!" i (Printexc.to_string exn);
            None)
  in
  (Option.map (fun o -> (o, c)) r, c.Meter.wall_s)

let counts ops =
  let done_ = List.filter_map Fun.id ops in
  let raised = List.length ops - List.length done_ in
  let sum f = List.fold_left (fun a (o, _) -> a + f o) raised done_ in
  (sum (fun o -> o.Workloads.attempted), sum (fun o -> o.Workloads.failed))

let instance_seed (w : 'i Workloads.t) ~seed j = (seed * w.Workloads.instances) + j

(* Whole cycles of one op per instance, one cycle for every [cycle_s]
   of [seconds]: each workload's instances were sized so that a cycle
   takes about [cycle_s] on the two-core VM the benchmark was tuned on.
   The arguments fix a run's work, not the machine's speed, so its
   [attempted] and [failed] depend on the seed alone: a sweep sample
   that fails certification fails once a cycle in every run of its
   seed, never more often because a faster stretch of the machine
   fitted in more ops. *)
let cycle_s = 25.
let cycles ~seconds = max 1 (int_of_float (seconds /. cycle_s))

let untraced ?(setup_sample_s = 1.) (w : 'i Workloads.t) ~seed ~seconds =
  let k = w.Workloads.instances in
  let set_up j = Meter.measure (fun () -> w.Workloads.setup Meter.off (instance_seed w ~seed j)) in
  (* Seconds per set-up of instance [j], timed over at least
     [setup_sample_s]: the set-up whose input the run keeps, then
     discarded repeats, so that a set-up of milliseconds is still timed
     over a second. *)
  let per_setup j (c : Meter.cost) =
    let rec go total n =
      if total >= setup_sample_s then total /. float_of_int n
      else go (total +. (snd (set_up j)).Meter.wall_s) (n + 1)
    in
    go c.Meter.wall_s 1
  in
  (* Instance 0 and its first op come before every other set-up, so
     that [peak_heap_mb] is one instance's input plus its op. *)
  let first = set_up 0 in
  let op0, _ = run_op w Meter.off Tally.off (fst first) 0 in
  let heap = Meter.top_heap_mb () in
  let setups =
    Array.init k (fun j ->
        let inp, c = if j = 0 then first else set_up j in
        (inp, per_setup j c))
  in
  let n_ops = k * cycles ~seconds in
  let rec loop i acc =
    if i >= n_ops then List.rev acc
    else
      let r, _ = run_op w Meter.off Tally.off (fst setups.(i mod k)) i in
      loop (i + 1) ((i mod k, r) :: acc)
  in
  let ops = loop 1 [ (0, op0) ] in
  let attempted, failed = counts (List.map snd ops) in
  (* What each instance's completed ops give, in op order, for every
     instance that completed one: each instance weighs the same in a
     metric. *)
  let by_instance f =
    List.init k (fun j -> List.filter_map (fun (i, r) -> if i = j then Option.map f r else None) ops)
    |> List.filter (function [] -> false | _ :: _ -> true)
  in
  let median f = Meter.median (List.map Meter.median (by_instance f)) in
  let latency p =
    by_instance (fun (o, _) -> o.Workloads.latencies_ns)
    |> List.map (fun ls ->
           let a = Array.concat ls in
           Array.sort Float.compare a;
           Meter.percentile_sorted a p)
    |> Meter.median
  in
  let exact name = by_instance (fun (o, _) -> List.assoc name o.Workloads.exact) in
  (* Exact values are summed over instances, from each one's first
     completed op, and must repeat on its later ops. *)
  let first_sum name = List.fold_left (fun acc vs -> acc +. List.hd vs) 0. (exact name) in
  let repeats name = List.for_all (fun vs -> List.for_all (( = ) (List.hd vs)) vs) (exact name) in
  let metrics =
    [
      ("setup_s", Meter.median (Array.to_list (Array.map snd setups)));
      ("solve_s", median (fun (o, _) -> o.Workloads.solve_s));
      ("samples_per_s", median (fun (o, c) -> float_of_int o.Workloads.attempted /. c.Meter.wall_s));
      ("qps", median (fun (o, _) -> float_of_int o.Workloads.requests /. o.Workloads.request_s));
      ("latency_p50_ns", latency 0.5);
      ("latency_p99_ns", latency 0.99);
      ("republish_s", median (fun (o, _) -> o.Workloads.republish_s));
      ("alloc_mwords", first_sum "alloc_mwords");
      ("peak_heap_mb", heap);
      ("spanner_edges", first_sum "spanner_edges");
      ("sim_rounds", first_sum "sim_rounds");
      ("sim_words", first_sum "sim_words");
    ]
  in
  {
    attempted;
    failed;
    consistent = List.for_all repeats [ "spanner_edges"; "sim_rounds"; "sim_words" ];
    metrics;
  }

(* {1 Traced run} *)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let traced ~name ~seed ~trace_file (w : 'i Workloads.t) =
  let recorder () = Meter.recorder name in
  let setup_sp = recorder () in
  let inp =
    Meter.span setup_sp "setup" (fun () -> w.Workloads.setup setup_sp (instance_seed w ~seed 0))
  in
  (* Warm-up op: it pays the heap growth, whose page faults show as
     system time. *)
  let sys0 = (Unix.times ()).Unix.tms_stime in
  let warm, _ = run_op w Meter.off Tally.off inp 1 in
  let sys_s = (Unix.times ()).Unix.tms_stime -. sys0 in
  let minor0, major0 = gc_counts () in
  let base, base_s = run_op w Meter.off Tally.off inp 2 in
  let minor1, major1 = gc_counts () in
  let op_sp = recorder () and tally = Tally.create () in
  let traced_op, traced_s = Meter.span op_sp "op" (fun () -> run_op w op_sp tally inp 3) in
  (* The layer pass records on the op's track and into its tally: it
     covers only what the op leaves out. *)
  let layer_ok =
    match w.Workloads.layer_pass with
    | None -> true
    | Some pass -> Meter.span op_sp "layer-pass" (fun () -> pass op_sp tally inp)
  in
  let probe_sp = recorder () in
  let pi = w.Workloads.probe_input inp in
  let sim_ns, sim_words = Probes.sim probe_sp pi.Workloads.graphs in
  let arq_ns, arq_words = Probes.arq probe_sp ~seed pi.Workloads.graphs in
  let tax_x, tax_words_x = Probes.tax probe_sp pi.Workloads.builds in
  let sinks = Probes.sinks probe_sp pi.Workloads.builds in
  Meter.write_chrome [ setup_sp; op_sp; probe_sp ] trace_file;
  let s name = Tally.sum tally name in
  let span_s sp span_name = fst (Meter.total sp span_name) in
  let span_mwords span_name = snd (Meter.total op_sp span_name) /. 1e6 in
  let ratio a b = if b > 0. then a /. b else 0. in
  let lat = Array.of_list (Tally.values tally "server.latency_ns") in
  Array.sort Float.compare lat;
  (* Only sweep-faults calls the sweep layer: elsewhere its rows read
     0, as the counts of any bypassed layer do. *)
  let sample_ms = Tally.values tally "sweep.sample_ms" in
  let overhead = match (base, traced_op) with Some _, Some _ -> traced_s /. base_s | _ -> nan in
  let metrics =
    [
      ("graphlib.gen_s", span_s setup_sp "Gen.connected_gnp" +. span_s op_sp "Compile.graph_of");
      ("sim.messages", s "sim.messages");
      ("sim.max_message_words", Tally.max tally "sim.max_message_words");
      ("sim.probe_ns_per_msg", sim_ns);
      ("sim.probe_words_per_msg", sim_words);
      ("arq.retransmissions", s "arq.retransmissions");
      ("arq.dead_letters", s "arq.dead_letters");
      ("arq.retx_per_msg", ratio (s "arq.retransmissions") (s "sim.messages"));
      ("arq.tax_x", tax_x);
      ("arq.tax_words_x", tax_words_x);
      ("arq.probe_ns_per_node_round", arq_ns);
      ("arq.probe_words_per_node_round", arq_words);
      ("skel.build_s", span_s op_sp "Skeleton_dist.build");
      ("skel.alloc_mwords", span_mwords "Skeleton_dist.build");
      ("skel.aborts", s "skel.aborts");
      ("skel.orphaned", s "skel.orphaned");
      ("skel.recovered_edges", s "skel.recovered_edges");
      ("skel.repair_rounds", s "skel.repair_rounds");
      ("skel.rehooked", s "skel.rehooked");
      ("skel.rejoined", s "skel.rejoined");
      ("certify.run_s", span_s op_sp "Certify.run");
      ("certify.alloc_mwords", span_mwords "Certify.run");
      ("certify.pairs", s "certify.pairs");
      ("certify.max_stretch", Tally.max tally "certify.max_stretch");
      ("snapshot.build_s", span_s op_sp "Snapshot.build");
      ("snapshot.alloc_mwords", span_mwords "Snapshot.build");
      ("snapshot.oracle_entries", s "snapshot.oracle_entries");
      ("server.ns_per_query", ratio (span_s op_sp "Server.run" *. 1e9) (s "server.answered"));
      ("server.words_per_query", ratio (span_mwords "Server.run" *. 1e6) (s "server.answered"));
      ("server.p999_ns", Meter.percentile_sorted lat 0.999);
      ("server.unanswerable", s "server.unanswerable");
      ("server.stale", s "server.stale");
      ("server.audit_failures", s "server.audit_failures");
      ("workload.gen_s", span_s setup_sp "Workload.generate" +. span_s op_sp "Workload.generate");
      ("scenario.compile_s", span_s setup_sp "Compile.compile");
      ("sweep.sample_p50_ms", Meter.percentile 0.5 sample_ms);
      ("sweep.sample_p95_ms", Meter.percentile 0.95 sample_ms);
    ]
    @ List.map
        (fun f ->
          ("sweep." ^ f ^ ".p50_ms", Meter.percentile 0.5 (Tally.values tally ("sweep." ^ f ^ ".sample_ms"))))
        Workloads.families
    @ List.map
        (fun f ->
          let key = "sweep." ^ f ^ ".alloc_mwords" in
          (key, Tally.sum tally key))
        Workloads.families
    @ List.map
        (fun rung -> ("sweep." ^ rung, Tally.sum tally ("sweep." ^ rung)))
        [ "intact"; "patched"; "degraded"; "partitioned"; "failed" ]
    @ [
        ("obs.trace_x", sinks.Probes.trace_x);
        ("obs.metrics_x", sinks.Probes.metrics_x);
        ("obs.spans_x", sinks.Probes.spans_x);
        ("obs.prof_x", sinks.Probes.prof_x);
        ("obs.timer_sweeps", float_of_int sinks.Probes.timer_sweeps);
        ("gc.minor_collections", float_of_int (minor1 - minor0));
        ("gc.major_collections", float_of_int (major1 - major0));
        ("proc.sys_s", sys_s);
        ("bench.trace_overhead_x", overhead);
      ]
  in
  let attempted, failed = counts [ warm; base; traced_op ] in
  { attempted; failed; consistent = layer_ok; metrics }
