(* Command-line driver: generate graphs, build spanners with any
   algorithm in the library, evaluate distortion, run the experiment
   suite. *)

open Cmdliner
module Graph = Graphlib.Graph
module Gen = Graphlib.Gen
module Edge_set = Graphlib.Edge_set
module Metrics = Graphlib.Metrics

(* A malformed or missing input file is a user error, not a crash: one
   line naming the file (and the line), exit 1. *)
let reading f x =
  try f x with
  | Util.Lines.Parse_error _ as e ->
      Format.eprintf "spanner_cli: %s@." (Printexc.to_string e);
      exit 1
  | Sys_error msg ->
      Format.eprintf "spanner_cli: %s@." msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* Shared graph source: either --input FILE or a generator spec. *)

let load_graph ~kind ~n ~p ~seed ~input =
  match input with
  | Some path -> reading Graphlib.Io.read path
  | None -> Gen.generate ~kind ~n ~p ~seed

let kind_arg =
  Arg.(
    value
    & opt (enum (List.map (fun k -> (k, k)) Gen.kinds)) "gnp"
    & info [ "kind" ] ~docv:"KIND"
        ~doc:("Graph family: " ^ String.concat ", " Gen.kinds ^ "."))

let n_arg = Arg.(value & opt int 2000 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")

(* A parameter's converter with the library's bound on it: a value out
   of range is a usage error naming the option, before any work. *)
let checked conv ~want ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when not (ok x) -> Error (`Msg (Printf.sprintf "%s is not %s" s want))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least lo =
  checked Arg.int ~want:(Printf.sprintf ">= %d" lo) (fun x -> x >= lo)

let fraction = checked Arg.float ~want:"in [0, 1]" (fun f -> f >= 0. && f <= 1.)

let p_arg =
  Arg.(value & opt fraction 0.005 & info [ "p" ] ~docv:"P" ~doc:"G(n,p) edge probability.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Read the graph from an edge-list file.")

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output edge-list file.")
  in
  let run kind n p seed out =
    let g = load_graph ~kind ~n ~p ~seed ~input:None in
    Graphlib.Io.write g out;
    Format.printf "wrote %s: %a@." out Graph.pp_summary g
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph and write it as an edge list.")
    Term.(const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ out)

(* ------------------------------------------------------------------ *)
(* build *)

let k_arg =
  Arg.(value & opt (at_least 1) 3 & info [ "k"; "levels" ] ~docv:"K" ~doc:"Stretch parameter (2k-1).")

let d_arg = Arg.(value & opt (at_least 2) 4 & info [ "D" ] ~docv:"D" ~doc:"Skeleton density D.")

let eps_arg =
  let eps = checked Arg.float ~want:"in (0, 1]" (fun e -> e > 0. && e <= 1.) in
  Arg.(value & opt eps 0.5 & info [ "eps" ] ~docv:"EPS" ~doc:"Message-length exponent.")

let order_arg =
  Arg.(
    value
    & opt (some (at_least 1)) None
    & info [ "order" ] ~docv:"O" ~doc:"Fibonacci spanner order (default log_phi log n).")

let ell_arg =
  Arg.(
    value
    & opt (some (at_least 1)) None
    & info [ "ell" ] ~docv:"L" ~doc:"Fibonacci ball base (default 3o/eps + 2).")

let t_arg =
  Arg.(value & opt (at_least 1) 2 & info [ "t" ] ~docv:"T" ~doc:"Message budget exponent: n^(1/t).")

(* What [build]'s algorithms read from the command line. *)
type build_params = {
  k : int;
  d : int;
  eps : float;
  order : int option;
  ell : int option;
  t : int;
  seed : int;
}

(* The [build] algorithms, by name: the one list [--algo] accepts and
   [build] dispatches on.  A builder returns the spanner and, for a
   distributed one, its network cost. *)
let algorithms =
  let bare s = (s, None) in
  [
    ( "skeleton",
      fun { d; eps; seed; _ } g ->
        bare (Spanner.Skeleton.build ~d ~eps ~seed g).Spanner.Skeleton.spanner
    );
    ( "skeleton-dist",
      fun { d; eps; seed; _ } g ->
        let r = Spanner.Skeleton_dist.build ~d ~eps ~seed g in
        (r.Spanner.Skeleton_dist.spanner, Some r.Spanner.Skeleton_dist.stats) );
    ( "fibonacci",
      fun { order; ell; seed; _ } g ->
        bare
          (Spanner.Fibonacci.build ?o:order ?ell ~seed g)
            .Spanner.Fibonacci.spanner );
    ( "fibonacci-dist",
      fun { order; ell; t; seed; _ } g ->
        let r = Spanner.Fibonacci_dist.build ?o:order ?ell ~t ~seed g in
        Format.printf "budget=%d words, blocked=%d, LV failures=%d@."
          r.Spanner.Fibonacci_dist.budget_words r.Spanner.Fibonacci_dist.blocked
          r.Spanner.Fibonacci_dist.failures;
        (r.Spanner.Fibonacci_dist.spanner, Some r.Spanner.Fibonacci_dist.stats)
    );
    ( "baswana-sen",
      fun { k; seed; _ } g ->
        bare (Baseline.Baswana_sen.build ~k ~seed g).Baseline.Baswana_sen.spanner
    );
    ( "baswana-sen-dist",
      fun { k; seed; _ } g ->
        let r = Baseline.Baswana_sen_dist.build ~k ~seed g in
        ( r.Baseline.Baswana_sen_dist.spanner,
          Some r.Baseline.Baswana_sen_dist.stats ) );
    ( "greedy",
      fun { k; _ } g -> bare (Baseline.Greedy.build ~k g).Baseline.Greedy.spanner
    );
    ( "greedy-skeleton",
      fun _ g -> bare (Baseline.Greedy.skeleton g).Baseline.Greedy.spanner );
    ( "neighborhood",
      fun { k; _ } g ->
        let r = Baseline.Neighborhood_dist.build ~k g in
        ( r.Baseline.Neighborhood_dist.spanner,
          Some r.Baseline.Neighborhood_dist.stats ) );
    ( "bfs-tree",
      fun _ g -> bare (Baseline.Bfs_tree.build g).Baseline.Bfs_tree.spanner );
    ( "combined",
      fun { order; ell; d; seed; _ } g ->
        bare
          (Spanner.Combined.build ?o:order ?ell ~d ~seed g)
            .Spanner.Combined.spanner );
    ( "streaming",
      fun { k; seed; _ } g ->
        (* Feed the graph's edges in a seeded random arrival order. *)
        let edges = ref [] in
        Graph.iter_edges g (fun _ u v -> edges := (u, v) :: !edges);
        let arr = Array.of_list !edges in
        Util.Prng.shuffle (Util.Prng.create ~seed) arr;
        let t =
          Baseline.Streaming.of_stream ~n:(Graph.n g) ~k (Array.to_list arr)
        in
        let s = Edge_set.create g in
        List.iter
          (fun (u, v) ->
            match Graph.find_edge g u v with
            | Some e -> Edge_set.add s e
            | None -> ())
          (Baseline.Streaming.edges t);
        bare s );
  ]

let algo_arg =
  Arg.(
    value
    & opt (enum (List.map (fun ((name, _) as a) -> (name, a)) algorithms))
        (List.hd algorithms)
    & info [ "algo"; "a" ] ~docv:"ALGO"
        ~doc:
          ("Spanner algorithm: "
          ^ String.concat ", " (List.map fst algorithms)
          ^ "."))

let build_cmd =
  let sources =
    Arg.(
      value
      & opt int 8
      & info [ "sources" ] ~docv:"S" ~doc:"BFS sources for sampled distortion.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the spanner as an edge list.")
  in
  let run kind n p seed input (algo, build) k d eps order ell t sources out =
    let g = load_graph ~kind ~n ~p ~seed ~input in
    Format.printf "graph: %a@." Graph.pp_summary g;
    let spanner, stats = build { k; d; eps; order; ell; t; seed } g in
    let h = Edge_set.to_graph spanner in
    Format.printf "%s: %d edges (%.3f per vertex)@." algo (Edge_set.cardinal spanner)
      (float_of_int (Edge_set.cardinal spanner) /. float_of_int (Graph.n g));
    let rng = Util.Prng.create ~seed:(seed + 7919) in
    let rep = Metrics.sampled rng ~g ~h ~sources in
    Format.printf "distortion: %a@." Metrics.pp_report rep;
    (match stats with
    | Some st -> Format.printf "network: %a@." Distnet.Sim.pp_stats st
    | None -> ());
    match out with
    | Some path ->
        Graphlib.Io.write h path;
        Format.printf "spanner written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build a spanner and report size / distortion / network cost.")
    Term.(
      const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ input_arg $ algo_arg $ k_arg
      $ d_arg $ eps_arg $ order_arg $ ell_arg $ t_arg $ sources $ out)

(* ------------------------------------------------------------------ *)
(* eval: compare a spanner file against a graph file *)

let eval_cmd =
  let graph_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"GRAPH" ~doc:"Original graph edge list.")
  in
  let spanner_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"SPANNER" ~doc:"Spanner edge list (same vertex count).")
  in
  let exact =
    Arg.(value & flag & info [ "exact" ] ~doc:"All-pairs distortion (small graphs).")
  in
  let run graph_file spanner_file exact seed =
    let g = reading Graphlib.Io.read graph_file in
    let h = reading Graphlib.Io.read spanner_file in
    let rep =
      if exact then Metrics.exact ~g ~h
      else Metrics.sampled (Util.Prng.create ~seed) ~g ~h ~sources:8
    in
    Format.printf "%a@." Metrics.pp_report rep
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Measure the distortion of a spanner file.")
    Term.(const run $ graph_file $ spanner_file $ exact $ seed_arg)

(* ------------------------------------------------------------------ *)
(* trace: watch the skeleton algorithm run call by call *)

let trace_cmd =
  let run kind n p seed input d eps =
    let g = load_graph ~kind ~n ~p ~seed ~input in
    Format.printf "graph: %a@." Graph.pp_summary g;
    let plan = Spanner.Plan.make ~n:(Graph.n g) ~d ~eps () in
    Format.printf "%a@." Spanner.Plan.pp plan;
    let r = Spanner.Skeleton.build ~d ~eps ~trace:true ~seed g in
    Format.printf "@.%6s %6s %6s  %9s %9s %8s@." "call" "round" "p" "clusters"
      "alive" "spanner";
    List.iter
      (fun (s : Spanner.Skeleton.snapshot) ->
        Format.printf "%6d %6d %6.3f  %9d %9d %8d@."
          s.Spanner.Skeleton.call.Spanner.Plan.index
          s.Spanner.Skeleton.call.Spanner.Plan.round
          s.Spanner.Skeleton.call.Spanner.Plan.p
          s.Spanner.Skeleton.clusters_before s.Spanner.Skeleton.alive_after
          s.Spanner.Skeleton.spanner_size)
      r.Spanner.Skeleton.snapshots;
    Format.printf "@.final: %d edges, %d aborts@."
      (Edge_set.cardinal r.Spanner.Skeleton.spanner)
      r.Spanner.Skeleton.aborts
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run the skeleton algorithm with a per-call trace.")
    Term.(const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ input_arg $ d_arg $ eps_arg)

(* ------------------------------------------------------------------ *)
(* oracle *)

let oracle_cmd =
  let queries =
    Arg.(value & opt int 10 & info [ "queries" ] ~docv:"Q" ~doc:"Sample queries to print.")
  in
  let run kind n p seed input k queries =
    let g = load_graph ~kind ~n ~p ~seed ~input in
    Format.printf "graph: %a@." Graph.pp_summary g;
    let o = Oracle.Distance_oracle.build ~k ~seed g in
    Format.printf "oracle: k=%d, %d stored entries (%.1f per vertex), stretch <= %d@."
      k
      (Oracle.Distance_oracle.size o)
      (float_of_int (Oracle.Distance_oracle.size o) /. float_of_int (Graph.n g))
      ((2 * k) - 1);
    let rng = Util.Prng.create ~seed:(seed + 1) in
    for _ = 1 to queries do
      let u = Util.Prng.int rng (Graph.n g) and v = Util.Prng.int rng (Graph.n g) in
      let exact = (Graphlib.Bfs.distances g ~src:u).(v) in
      match Oracle.Distance_oracle.query o u v with
      | Some est -> Format.printf "  d(%d,%d) = %d, oracle %d@." u v exact est
      | None -> Format.printf "  d(%d,%d): disconnected@." u v
    done
  in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Build a Thorup-Zwick distance oracle and sample queries.")
    Term.(const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ input_arg $ k_arg $ queries)

(* ------------------------------------------------------------------ *)
(* simulate: protocols over a faulty network, with trace/replay *)

(* A comma-separated list of the event tokens plan files use: a bad
   one is a usage error naming the option.  Cmdliner prints a value
   only as the default, which is always empty. *)
let events ~what ~want read =
  let rec parse = function
    | [] -> Ok []
    | part :: rest -> (
        match read (String.trim part) with
        | Some x -> Result.map (List.cons x) (parse rest)
        | None ->
            let msg = Printf.sprintf "bad %s %S (want %s,...)" what part want in
            Error (`Msg msg))
  in
  Arg.conv
    ( (fun s -> if s = "" then Ok [] else parse (String.split_on_char ',' s)),
      fun _ _ -> () )

let node_rounds what = events ~what ~want:"NODE@ROUND" Util.Lines.node_at
let edge_rounds what = events ~what ~want:"U-V@ROUND" Util.Lines.edge_at

(* The churn flags simulate and serve share, assembled into one plan. *)
let churn_arg =
  let edge_drop =
    Arg.(
      value
      & opt (edge_rounds "edge-drop") []
      & info [ "edge-drop" ] ~docv:"SPEC"
          ~doc:
            "Churn: edges going down, e.g. 3-7@10,5-9@20 (edge 3-7 goes down \
             at round 10).  A down edge silently swallows messages; the ARQ \
             retransmits and eventually suspects the peer.")
  in
  let edge_up =
    Arg.(
      value
      & opt (edge_rounds "edge-up") []
      & info [ "edge-up" ] ~docv:"SPEC"
          ~doc:"Churn: edges coming (back) up, same U-V@ROUND syntax.")
  in
  let partition =
    Arg.(
      value
      & opt (events ~what:"partition" ~want:"U-V" Util.Lines.edge) []
      & info [ "partition" ] ~docv:"LINKS"
          ~doc:
            "Churn: cut all listed links at once, e.g. 3-7,5-9 (see \
             --partition-round and --heal-round).")
  in
  let partition_round =
    Arg.(
      value
      & opt int 1
      & info [ "partition-round" ] ~docv:"R"
          ~doc:"Round at which the --partition cut happens.")
  in
  let heal_round =
    Arg.(
      value
      & opt int 0
      & info [ "heal-round" ] ~docv:"R"
          ~doc:
            "Heal the --partition at round R (0: never heals — the spanner \
             ends partitioned and each island is certified separately).")
  in
  let join =
    Arg.(
      value
      & opt (node_rounds "join") []
      & info [ "join" ] ~docv:"SPEC"
          ~doc:
            "Churn: late node joins, e.g. 4@25 (node 4 only joins the network \
             at round 25; until then all its links are dead).")
  in
  let churn edge_drop edge_up partition partition_round heal_round join =
    List.map
      (fun (u, v, round) -> Distnet.Fault.Edge_down { round; u; v })
      edge_drop
    @ List.map
        (fun (u, v, round) -> Distnet.Fault.Edge_up { round; u; v })
        edge_up
    @ (match partition with
      | [] -> []
      | links ->
          [
            Distnet.Fault.Partition
              {
                round = partition_round;
                edges = links;
                heal = (if heal_round > 0 then Some heal_round else None);
              };
          ])
    @ List.map (fun (node, round) -> Distnet.Fault.Join { round; node }) join
  in
  Term.(
    const churn $ edge_drop $ edge_up $ partition $ partition_round
    $ heal_round $ join)

(* A fault plan from the flags, its stream seeded at [seed + 31]: none
   when the spec injects nothing, and a plan the graph rejects is one
   line and exit 1. *)
let fault_plan ~seed g (spec : Distnet.Fault.spec) =
  if spec = { Distnet.Fault.default_spec with max_delay = spec.max_delay } then
    Distnet.Fault.none
  else
    try Distnet.Fault.make ~seed:(seed + 31) ~graph:g spec
    with Invalid_argument msg ->
      Format.eprintf "spanner_cli: %s@." msg;
      exit 1

(* Each sink stays the shared no-op unless a flag asks for it, so
   flag-free output is byte-identical to the uninstrumented CLI. *)
let metrics_sink on = if on then Obs.Metrics.create () else Obs.Metrics.disabled

(* The profiler is installed as the ambient sink, so the engine and
   protocol hot paths pick it up without extra plumbing. *)
let profiler file =
  let prof = if file <> None then Obs.Prof.create () else Obs.Prof.disabled in
  Obs.Prof.set_current prof;
  prof

let save_metrics ?meta reg = function
  | None -> ()
  | Some file ->
      Obs.Metrics.save ?extra:(Option.map (fun l -> [ l ]) meta) reg file;
      Format.printf "metrics written to %s (%d samples)@." file
        (List.length (Obs.Metrics.snapshot reg))

let save_profile ~meta prof = function
  | None -> ()
  | Some file ->
      Obs.Prof.save ~extra:[ meta ] prof file;
      Format.printf "profile written to %s (%d rows, %d round samples)@." file
        (List.length (Obs.Prof.rows prof))
        (List.length (Obs.Prof.round_samples prof))

(* The paper-bound audit of a skeleton run from its metrics samples,
   printed; under [strict] a WARN exits 1.  simulate audits the run it
   just made, report the run a metrics file recorded. *)
let audit ~strict ~arq ?spanner_edges ~plan ~stats samples =
  let phase_rounds =
    List.map
      (fun (r : Obs.Report.phase_row) ->
        (r.Obs.Report.phase, r.Obs.Report.rounds))
      (Obs.Report.phase_rows samples)
  in
  let report =
    Spanner.Audit.run ~arq ?spanner_edges ~phase_rounds ~plan ~stats ()
  in
  Format.printf "%a" Spanner.Audit.pp report;
  if strict && not (Spanner.Audit.ok report) then exit 1

let simulate_cmd =
  let drop =
    Arg.(
      value
      & opt fraction 0.
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message loss probability.")
  in
  let dup =
    Arg.(
      value
      & opt fraction 0.
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability.")
  in
  let delay =
    Arg.(
      value
      & opt fraction 0.
      & info [ "delay" ] ~docv:"P" ~doc:"Per-message delay probability.")
  in
  let max_delay =
    Arg.(
      value
      & opt int 3
      & info [ "max-delay" ] ~docv:"K"
          ~doc:"Delayed messages wait uniform 1..K extra rounds.")
  in
  let crash =
    Arg.(
      value
      & opt (node_rounds "crash") []
      & info [ "crash" ] ~docv:"SPEC"
          ~doc:"Crash-stop schedule, e.g. 3@5,9@12 (node 3 dies at round 5).")
  in
  let restart =
    Arg.(
      value
      & opt (node_rounds "restart") []
      & info [ "restart" ] ~docv:"SPEC"
          ~doc:
            "Crash-recovery schedule, e.g. 3@40 (node 3 restarts at round 40 \
             with a fresh incarnation).  Every restarted node must also \
             appear in --crash, with an earlier round; the repair pass \
             reintegrates it after the last restart lands.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record every network event to FILE as JSON lines.")
  in
  let replay_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the faults recorded in FILE (same graph flags required); \
             overrides the random fault options and diffs the statistics \
             against the recorded ones.")
  in
  let crash_frac =
    Arg.(
      value
      & opt fraction 0.
      & info [ "crash-frac" ] ~docv:"F"
          ~doc:
            "Crash-stop a random fraction F of the nodes (in addition to any \
             --crash schedule), each at a random round.")
  in
  let crash_max_round =
    Arg.(
      value
      & opt (at_least 1) 50
      & info [ "crash-max-round" ] ~docv:"R"
          ~doc:"Random --crash-frac crashes land uniformly in rounds 1..R.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "After a skeleton run, certify the output (subset, forest, \
             contribution, stretch) and exit nonzero on failure.")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Sabotage the skeleton before certifying: remove one cluster-tree \
             edge from the spanner.  The certifier must reject (exercises the \
             failure path; implies --certify).")
  in
  let churn_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "churn-trace" ] ~docv:"FILE"
          ~doc:
            "Load edge_down/edge_up/join events from a recorded trace FILE \
             and add them to the churn plan.")
  in
  let phase_limit =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "phase-limit" ] ~docv:"N"
          ~doc:
            "Abort a skeleton phase after N rounds with a structured stuck \
             report (default 10000 + 500n).")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Record labeled metrics (per-phase cost, per-link load, ARQ \
             counters) and write the snapshot to FILE as JSON lines.")
  in
  let metrics_summary =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:
            "Print the per-phase cost table (rounds, messages, words, max \
             words per phase; totals equal the network statistics).")
  in
  let spans_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE"
          ~doc:
            "Record causal spans (one per transmission, with Lamport \
             timestamps, plus phase/call/cluster/ARQ parents) and write them \
             to FILE as JSON lines, readable by report --critical-path / \
             --perfetto.")
  in
  let profile_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Profile real machine cost (monotonic wall-clock and GC \
             allocation counters per phase, region, and round) and write the \
             rows to FILE as JSON lines, readable by report.")
  in
  let audit_bounds =
    Arg.(
      value & flag
      & info [ "audit-bounds" ]
          ~doc:
            "After a skeleton run, compare observed rounds, max message \
             words, and spanner size against the paper's bounds and print \
             PASS/WARN per bound.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"With $(b,--audit-bounds): exit nonzero on any WARN.")
  in
  let protocol =
    let protocols = [ ("bfs", `Bfs); ("flood", `Flood); ("skeleton", `Skeleton) ] in
    Arg.(
      value
      & opt (enum (List.map (fun ((name, _) as p) -> (name, p)) protocols))
          (List.hd protocols)
      & info [ "protocol"; "algo" ] ~docv:"PROTO"
          ~doc:
            "Protocol to run: bfs, flood (both ARQ-lifted), or skeleton (the \
             full Section 2 construction with crash recovery).")
  in
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"V" ~doc:"Protocol root node.")
  in
  let run kind n p seed input drop dup delay max_delay crash restart
      crash_frac crash_max_round churn churn_trace phase_limit certify mutate
      trace_file replay_file metrics_file metrics_summary spans_file
      profile_file audit_bounds strict (protocol, proto) root =
    let g = load_graph ~kind ~n ~p ~seed ~input in
    if proto <> `Skeleton && (root < 0 || root >= Graph.n g) then begin
      Format.eprintf "spanner_cli: root %d out of range (n=%d)@." root
        (Graph.n g);
      exit 1
    end;
    Format.printf "graph: %a@." Graph.pp_summary g;
    let faults, recorded =
      match replay_file with
      | Some file ->
          let events, stored = reading Distnet.Trace.load file in
          Format.printf "replaying %d events from %s@." (List.length events)
            file;
          (* A loss-free recording must replay over the loss-free
             engine: protocols (skeleton) pick their transport by
             [Fault.is_none], and a scripted all-deliver plan is not
             [none] even though it injects nothing. *)
          let has_faults =
            List.exists
              (fun (e : Distnet.Trace.event) ->
                match e.kind with
                | Distnet.Trace.Send | Distnet.Trace.Deliver -> false
                | _ -> true)
              events
          in
          let plan =
            if has_faults then Distnet.Fault.scripted events
            else Distnet.Fault.none
          in
          (plan, stored)
      | None ->
          let crashes =
            crash
            @ Distnet.Fault.random_crashes ~seed:(seed + 87) ~n:(Graph.n g)
                ~frac:crash_frac ~max_round:crash_max_round
          in
          let churn =
            churn
            @
            match churn_trace with
            | None -> []
            | Some file ->
                let events, _ = reading Distnet.Trace.load file in
                let churn = Distnet.Fault.churn_of_trace events in
                Format.printf "churn plan: %d events from %s@."
                  (List.length churn) file;
                churn
          in
          ( fault_plan ~seed g
              {
                Distnet.Fault.drop;
                dup;
                delay;
                max_delay;
                crashes;
                restarts = restart;
                churn;
                drop_profile = [];
              },
            None )
    in
    let tracer =
      match (replay_file, trace_file) with
      | None, Some _ -> Some (Distnet.Trace.create ())
      | _ -> None
    in
    let certification_failed = ref false in
    let reg =
      metrics_sink (metrics_file <> None || metrics_summary || audit_bounds)
    in
    let spans =
      if spans_file <> None then Obs.Span.create () else Obs.Span.disabled
    in
    let prof = profiler profile_file in
    let plan_ref = ref None in
    let spanner_edges_ref = ref None in
    let stuck = ref false in
    let stats =
      match proto with
      | `Bfs ->
          let stats, dist =
            Distnet.Protocols.reliable_bfs ~faults ?tracer ~metrics:reg ~spans
              g ~root
          in
          let expected = Graphlib.Bfs.distances g ~src:root in
          Format.printf "distances correct: %b@." (dist = expected);
          stats
      | `Flood ->
          let stats, reached =
            Distnet.Protocols.reliable_flood ~faults ?tracer ~metrics:reg
              ~spans g ~root ~payload_words:4
          in
          let cover =
            Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reached
          in
          Format.printf "reached %d/%d nodes@." cover (Graph.n g);
          stats
      | `Skeleton -> (
          match
            Spanner.Skeleton_dist.build ~faults ?tracer ~metrics:reg ~spans
              ?phase_round_limit:phase_limit ~seed g
          with
          | exception
              Spanner.Skeleton_dist.Stuck { phase; waiting_on; stats } ->
              (* Structured dead end — e.g. a partition that never heals
                 and outlasts the phase budget.  Report it, write the
                 logs, then exit 2. *)
              let preview =
                List.filteri (fun i _ -> i < 8) waiting_on
                |> List.map (fun (v, w) -> Printf.sprintf "%d->%d" v w)
                |> String.concat ", "
              in
              Format.printf "stuck: %s phase cannot complete; waiting on %d \
                             link(s)%s@."
                phase
                (List.length waiting_on)
                (if preview = "" then "" else " (" ^ preview ^ ")");
              stuck := true;
              stats
          | r ->
              plan_ref := Some r.Spanner.Skeleton_dist.plan;
              spanner_edges_ref :=
                Some (Edge_set.cardinal r.Spanner.Skeleton_dist.spanner);
              Format.printf "spanner: %d edges, %d aborts@."
                (Edge_set.cardinal r.Spanner.Skeleton_dist.spanner)
                r.Spanner.Skeleton_dist.aborts;
              let rc = r.Spanner.Skeleton_dist.recovery in
              if not (Distnet.Fault.is_none faults) then
                Format.printf
                  "recovery: %d crashed, %d orphaned, %d recovered edges, %d \
                   checkpoints, %d retransmissions, %d dead letters@."
                  rc.Spanner.Skeleton_dist.crashed
                  rc.Spanner.Skeleton_dist.orphaned
                  rc.Spanner.Skeleton_dist.recovered_edges
                  rc.Spanner.Skeleton_dist.checkpoints
                  rc.Spanner.Skeleton_dist.retransmissions
                  rc.Spanner.Skeleton_dist.dead_letters;
              if Spanner.Skeleton_dist.repairs faults then begin
                let rp = r.Spanner.Skeleton_dist.repair in
                Format.printf
                  "repair: %a (%d dead spanner edges, %d rehooked, %d \
                   replaced, %d keep-all, %d rejoined, %d rounds, %d \
                   components)@."
                  Spanner.Skeleton_dist.pp_outcome
                  rp.Spanner.Skeleton_dist.outcome
                  rp.Spanner.Skeleton_dist.dead_spanner_edges
                  rp.Spanner.Skeleton_dist.rehooked
                  rp.Spanner.Skeleton_dist.replaced_edges
                  rp.Spanner.Skeleton_dist.keep_all_fallbacks
                  rp.Spanner.Skeleton_dist.rejoined
                  rp.Spanner.Skeleton_dist.repair_rounds
                  rp.Spanner.Skeleton_dist.components
              end;
              if certify || mutate then begin
                let r =
                  if not mutate then r
                  else begin
                    let w = r.Spanner.Skeleton_dist.witness in
                    let victim = ref (-1) in
                    Array.iteri
                      (fun v e ->
                        if
                          !victim < 0 && e >= 0
                          && not w.Spanner.Certify.crashed.(v)
                        then victim := e)
                      w.Spanner.Certify.parent_edge;
                    if !victim < 0 then
                      failwith "mutate: no cluster-tree edge to remove";
                    Format.printf "mutate: removed cluster-tree edge %d@."
                      !victim;
                    let spanner =
                      Edge_set.copy r.Spanner.Skeleton_dist.spanner
                    in
                    Edge_set.remove spanner !victim;
                    { r with spanner }
                  end
                in
                let verdict =
                  Spanner.Skeleton_dist.certify ~metrics:reg ~faults g r
                in
                Format.printf "%a@." Spanner.Certify.pp verdict;
                if not (Spanner.Certify.ok verdict) then
                  certification_failed := true
              end;
              r.Spanner.Skeleton_dist.stats)
    in
    Format.printf "network: %a@." Distnet.Sim.pp_stats stats;
    (match recorded with
    | Some original when not !stuck -> (
        match Distnet.Trace.diff_stats original stats with
        | [] -> Format.printf "replay reproduces original stats: yes@."
        | diffs ->
            List.iter
              (fun (field, a, b) ->
                Format.printf "replay mismatch: %s recorded %d, got %d@." field
                  a b)
              diffs;
            exit 1)
    | _ -> ());
    (match (trace_file, tracer) with
    | Some file, Some tr ->
        Distnet.Trace.save ~stats tr file;
        Format.printf "trace written to %s (%d events)@." file
          (Distnet.Trace.length tr)
    | _ -> ());
    if metrics_summary then begin
      Format.printf "per-phase cost:@.";
      Obs.Report.pp_phase_table Format.std_formatter
        (Obs.Metrics.snapshot reg)
    end;
    (* The meta header of each log: the run's identity and final
       stats.  The metrics header also carries the plan and spanner
       size, enough for [report --audit-bounds] to audit the file
       standalone. *)
    let header kind extra =
      Printf.sprintf
        {|{"kind":"%s","algo":"%s","n":%d,"arq":%d%s,"rounds":%d,"messages":%d,"words":%d,"max_message_words":%d}|}
        kind protocol (Graph.n g)
        (if Distnet.Fault.is_none faults then 0 else 1)
        extra stats.Distnet.Sim.rounds stats.Distnet.Sim.messages
        stats.Distnet.Sim.words stats.Distnet.Sim.max_message_words
    in
    let extra =
      (match !plan_ref with
      | Some (plan : Spanner.Plan.t) ->
          Printf.sprintf {|,"d":%d,"eps":%g|} plan.Spanner.Plan.d
            plan.Spanner.Plan.eps
      | None -> "")
      ^
      match !spanner_edges_ref with
      | Some edges -> Printf.sprintf {|,"spanner_edges":%d|} edges
      | None -> ""
    in
    save_metrics ~meta:(header "meta" extra) reg metrics_file;
    (match spans_file with
    | Some file ->
        Obs.Span.save ~extra:[ header "span_meta" "" ] spans file;
        Format.printf "spans written to %s (%d spans)@." file
          (Obs.Span.count spans)
    | None -> ());
    save_profile ~meta:(header "prof_meta" "") prof profile_file;
    if !stuck then exit 2;
    if audit_bounds then begin
      match !plan_ref with
      | None ->
          Format.eprintf "spanner_cli: --audit-bounds needs --protocol skeleton@.";
          exit 1
      | Some plan ->
          audit ~strict
            ~arq:(not (Distnet.Fault.is_none faults))
            ?spanner_edges:!spanner_edges_ref ~plan ~stats
            (Obs.Metrics.snapshot reg)
    end;
    if !certification_failed then exit 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a protocol over a faulty network (loss, duplication, delay, \
          crashes), optionally tracing every event for deterministic replay.")
    Term.(
      const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ input_arg $ drop $ dup
      $ delay $ max_delay $ crash $ restart $ crash_frac $ crash_max_round
      $ churn_arg $ churn_trace $ phase_limit $ certify $ mutate $ trace_file
      $ replay_file $ metrics_file $ metrics_summary $ spans_file
      $ profile_file $ audit_bounds $ strict $ protocol $ root)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Trace or metrics JSONL files (written by simulate --trace / \
             --metrics); the kind is auto-detected per file.")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the top-$(docv) tables.")
  in
  let audit_bounds =
    Arg.(
      value & flag
      & info [ "audit-bounds" ]
          ~doc:
            "Audit a metrics file's recorded run against the paper's bounds \
             (needs the meta header of a skeleton run).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"With $(b,--audit-bounds): exit nonzero on any WARN.")
  in
  let critical_path =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "On a spans file: extract the causal critical path ending at \
             quiescence — the primary chain hop by hop, the per-phase slack \
             table, and one-line summaries of the next $(b,--top) chains.")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"OUT"
          ~doc:
            "On a spans file: export Chrome trace-event JSON to $(docv), \
             loadable in ui.perfetto.dev or chrome://tracing.  When a \
             profile file (simulate --profile) is also given, its per-round \
             GC samples are merged in as counter tracks.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Require profile files (simulate --profile): the per-phase and \
             per-region machine-cost tables with top-$(b,--top) allocation \
             sites.  Profile files are also auto-detected without the flag.")
  in
  let take k = List.filteri (fun i _ -> i < k) in
  (* Auto-detect on the first line's kind: metrics files start with
     meta or metric, spans files with span_meta or span, profiles with
     prof_meta, prof or prof_round.  Anything else, a line without a
     kind included, goes to the trace reader, which reports it. *)
  let file_kind file =
    match Obs.Jsonl.first_kind file with
    | None -> `Empty
    | Some ("metric" | "meta") -> `Metrics
    | Some ("span" | "span_meta") -> `Spans
    | Some ("prof" | "prof_round" | "prof_meta") -> `Profile
    | Some _ -> `Trace
  in
  let pp_meta_line l =
    let get f = Option.value ~default:0 (Obs.Jsonl.int_opt l f) in
    Format.printf
      "  run: algo=%s n=%d arq=%d rounds=%d messages=%d words=%d \
       max_message_words=%d@."
      (Option.value ~default:"?" (Obs.Jsonl.str_opt l "algo"))
      (get "n") (get "arq") (get "rounds") (get "messages") (get "words")
      (get "max_message_words")
  in
  let bump tbl key w =
    let m, ww = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (m + 1, ww + w)
  in
  (* Sort (key, (msgs, words)) rows for the top-k tables.  The order
     must be a total one — words descending, then messages descending,
     then key (node or link id) ascending — so rows that tie on the
     measured quantities still print in a stable order and cram output
     never depends on hash-table iteration. *)
  let ranked tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, (m1, w1)) (k2, (m2, w2)) ->
           if w1 <> w2 then compare w2 w1
           else if m1 <> m2 then compare m2 m1
           else compare k1 k2)
  in
  let report_trace ~top file =
    let module T = Distnet.Trace in
    let sends = ref 0
    and delivers = ref 0
    and drops = ref 0
    and dups = ref 0
    and delays = ref 0
    and send_words = ref 0
    and max_round = ref 0 in
    let node_sent = Hashtbl.create 64 in
    let node_recv = Hashtbl.create 64 in
    let link = Hashtbl.create 64 in
    let round_words = Hashtbl.create 64 in
    let stats =
      T.iter_file file (fun e ->
          if e.T.round > !max_round then max_round := e.T.round;
          match e.T.kind with
          | T.Send ->
              sends := !sends + 1;
              send_words := !send_words + e.T.words;
              bump node_sent e.T.src e.T.words;
              bump link (e.T.src, e.T.dst) e.T.words;
              Hashtbl.replace round_words e.T.round
                (e.T.words
                + Option.value ~default:0
                    (Hashtbl.find_opt round_words e.T.round))
          | T.Deliver -> delivers := !delivers + 1;
              bump node_recv e.T.dst e.T.words
          | T.Drop _ -> drops := !drops + 1
          | T.Dup -> dups := !dups + 1
          | T.Delay _ -> delays := !delays + 1
          | _ -> ())
    in
    Format.printf "trace report: %s@." file;
    Format.printf
      "  sends %d (%d words), delivered %d, dropped %d, dup %d, delayed %d@."
      !sends !send_words !delivers !drops !dups !delays;
    (match stats with
    | Some s -> Format.printf "  recorded stats: %a@." Distnet.Sim.pp_stats s
    | None -> ());
    let nodes = take top (ranked node_sent) in
    if nodes <> [] then begin
      Format.printf "  top %d nodes by sent words:@." (List.length nodes);
      List.iter
        (fun (v, (m, w)) ->
          let rm, rw =
            Option.value ~default:(0, 0) (Hashtbl.find_opt node_recv v)
          in
          Format.printf
            "    node %d: sent %d msgs / %d words, received %d / %d@." v m w
            rm rw)
        nodes
    end;
    let links = take top (ranked link) in
    if links <> [] then begin
      Format.printf "  top %d links by words:@." (List.length links);
      List.iter
        (fun ((u, v), (m, w)) ->
          Format.printf "    %d->%d: %d msgs, %d words@." u v m w)
        links
    end;
    if Hashtbl.length round_words > 0 then begin
      let bins = 10 in
      let width = Stdlib.max 1 ((!max_round + bins) / bins) in
      let acc = Array.make bins 0 in
      Hashtbl.iter
        (fun r w ->
          let b = Stdlib.min (bins - 1) (r / width) in
          acc.(b) <- acc.(b) + w)
        round_words;
      Format.printf "  round timeline (words sent per bin of %d rounds):@."
        width;
      Array.iteri
        (fun i w ->
          Format.printf "    r%d-r%d: %d@." (i * width)
            (((i + 1) * width) - 1)
            w)
        acc
    end
  in
  let report_metrics ~top ~audit_bounds ~strict file =
    let samples = Obs.Metrics.load file in
    let meta = Obs.Jsonl.find ~kind:"meta" file in
    Format.printf "metrics report: %s@." file;
    Option.iter pp_meta_line meta;
    Obs.Report.pp_phase_table Format.std_formatter samples;
    let links =
      List.filter_map
        (fun (s : Obs.Metrics.sample) ->
          match (s.Obs.Metrics.name, s.Obs.Metrics.value) with
          | "link_words", Obs.Metrics.Counter w ->
              let f k =
                match List.assoc_opt k s.Obs.Metrics.labels with
                | Some v -> int_of_string_opt v |> Option.value ~default:(-1)
                | None -> -1
              in
              Some (f "src", f "dst", w)
          | _ -> None)
        samples
    in
    if links <> [] then begin
      let links =
        List.sort
          (fun (s1, d1, w1) (s2, d2, w2) ->
            if w1 <> w2 then compare w2 w1 else compare (s1, d1) (s2, d2))
          links
        |> take top
      in
      Format.printf "  top %d links by words:@." (List.length links);
      List.iter
        (fun (s, d, w) -> Format.printf "    %d->%d: %d words@." s d w)
        links
    end;
    let prefixed prefix (s : Obs.Metrics.sample) =
      let l = String.length prefix in
      String.length s.Obs.Metrics.name >= l
      && String.sub s.Obs.Metrics.name 0 l = prefix
    in
    let is_phase = prefixed "phase_" in
    let is_serve = prefixed "serve_" in
    if List.exists is_serve samples then begin
      Format.printf "  serve:@.";
      Obs.Report.pp_serve_table Format.std_formatter samples
    end;
    let others =
      List.filter
        (fun (s : Obs.Metrics.sample) ->
          s.Obs.Metrics.name <> "link_words"
          && (not (is_phase s))
          && not (is_serve s))
        samples
    in
    if others <> [] then begin
      Format.printf "  other metrics:@.";
      Obs.Report.pp_summary Format.std_formatter others
    end;
    if audit_bounds then begin
      match meta with
      | None ->
          Format.eprintf
            "spanner_cli: report --audit-bounds: %s has no meta header@." file;
          exit 1
      | Some l -> (
          match
            ( Obs.Jsonl.int_opt l "n",
              Obs.Jsonl.int_opt l "d",
              Obs.Jsonl.float_opt l "eps" )
          with
          | Some n, Some d, Some eps ->
              let plan = Spanner.Plan.make ~n ~d ~eps () in
              let get f = Option.value ~default:0 (Obs.Jsonl.int_opt l f) in
              let stats =
                {
                  Distnet.Sim.rounds = get "rounds";
                  messages = get "messages";
                  words = get "words";
                  max_message_words = get "max_message_words";
                }
              in
              audit ~strict
                ~arq:(get "arq" = 1)
                ?spanner_edges:(Obs.Jsonl.int_opt l "spanner_edges")
                ~plan ~stats samples
          | _ ->
              Format.eprintf
                "spanner_cli: report --audit-bounds: %s's meta header has no \
                 d/eps (not a skeleton run)@."
                file;
              exit 1)
    end
  in
  let report_profile ~top file =
    let rows, rounds = Obs.Prof.load file in
    Format.printf "profile report: %s@." file;
    Option.iter pp_meta_line (Obs.Jsonl.find ~kind:"prof_meta" file);
    Obs.Report.pp_profile_table ~top Format.std_formatter (rows, rounds)
  in
  let report_spans ~top ~critical_path ~perfetto ~counters file =
    let records = Obs.Span.load file in
    Format.printf "spans report: %s@." file;
    Option.iter pp_meta_line (Obs.Jsonl.find ~kind:"span_meta" file);
    let count p = List.length (List.filter p records) in
    let messages =
      count (fun (s : Obs.Span.record) -> s.Obs.Span.kind = Obs.Span.Message)
    in
    let delivered =
      count (fun (s : Obs.Span.record) ->
          s.Obs.Span.kind = Obs.Span.Message
          && s.Obs.Span.status = Obs.Span.Delivered)
    in
    let by_kind k = count (fun (s : Obs.Span.record) -> s.Obs.Span.kind = k) in
    Format.printf
      "  %d spans: %d messages (%d delivered, %d dropped), %d phases, %d \
       calls, %d clusters, %d arq, %d retransmissions@."
      (List.length records) messages delivered (messages - delivered)
      (by_kind Obs.Span.Phase) (by_kind Obs.Span.Call)
      (by_kind Obs.Span.Cluster) (by_kind Obs.Span.Arq)
      (by_kind Obs.Span.Retransmit);
    if critical_path then
      Obs.Causal.pp Format.std_formatter (Obs.Causal.analyze ~k:top records);
    match perfetto with
    | Some out ->
        let n = Obs.Perfetto.export ~counters records out in
        Format.printf "perfetto trace written to %s (%d events)@." out n
    | None -> ()
  in
  let run files top audit_bounds strict critical_path perfetto profile_flag =
    let kinds = List.map (fun file -> (file, reading file_kind file)) files in
    (* A profile file given alongside a spans file under --perfetto is
       not reported on its own: its round samples become the counter
       tracks of the merged export. *)
    let merge_counters =
      perfetto <> None && List.exists (fun (_, k) -> k = `Spans) kinds
    in
    let counters =
      if not merge_counters then []
      else
        List.concat_map
          (fun (file, k) ->
            if k = `Profile then snd (reading Obs.Prof.load file) else [])
          kinds
    in
    List.iter
      (fun (file, kind) ->
        if
          (critical_path || perfetto <> None)
          && kind <> `Spans
          && not (merge_counters && kind = `Profile)
        then begin
          Format.eprintf
            "spanner_cli: report --critical-path/--perfetto need a spans \
             file (simulate --spans), but %s is not one@."
            file;
          exit 1
        end;
        if profile_flag && kind <> `Profile then begin
          Format.eprintf
            "spanner_cli: report --profile needs a profile file (simulate \
             --profile), but %s is not one@."
            file;
          exit 1
        end;
        if audit_bounds && kind <> `Metrics then begin
          Format.eprintf
            "spanner_cli: report --audit-bounds needs a metrics file, but %s \
             is %s@."
            file
            (match kind with
            | `Spans -> "a spans file"
            | `Profile -> "a profile"
            | `Empty -> "empty"
            | _ -> "a trace");
          exit 1
        end;
        reading
          (function
            | `Metrics -> report_metrics ~top ~audit_bounds ~strict file
            | `Spans -> report_spans ~top ~critical_path ~perfetto ~counters file
            | `Profile -> if not merge_counters then report_profile ~top file
            | `Trace -> report_trace ~top file
            | `Empty -> Format.printf "%s: empty file@." file)
          kind)
      kinds
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate a saved trace, metrics, or spans file: per-phase and \
          per-node summaries, most congested links, a round timeline, the \
          causal critical path, and (optionally) the paper-bound audit or a \
          Perfetto export.")
    Term.(
      const run $ files $ top $ audit_bounds $ strict $ critical_path
      $ perfetto $ profile_flag)

(* ------------------------------------------------------------------ *)
(* serve / query: the spanner as a live distance/route service *)

let oracle_k_arg =
  Arg.(
    value
    & opt (at_least 1) 2
    & info [ "oracle-k" ] ~docv:"K"
        ~doc:"Thorup-Zwick parameter of the snapshot oracle (stretch 2K-1).")

let snapshot_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-in" ] ~docv:"FILE"
        ~doc:"Serve from a saved snapshot instead of building one.")

let serve_cmd =
  let queries =
    Arg.(
      value
      & opt (at_least 0) 10000
      & info [ "queries" ] ~docv:"Q" ~doc:"Generated workload size.")
  in
  let zipf =
    let exponent = checked Arg.float ~want:">= 0" (fun s -> s >= 0.) in
    Arg.(
      value
      & opt (some exponent) None
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf exponent for source popularity (heavier tail with larger \
             $(docv); uniform sources when absent).")
  in
  let route_frac =
    Arg.(
      value
      & opt fraction 0.
      & info [ "route-frac" ] ~docv:"F"
          ~doc:
            "Fraction of point-to-point route queries (answered by compact \
             routing; the rest are distance queries).")
  in
  let workload_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"FILE"
          ~doc:"Load the query workload from FILE instead of generating it.")
  in
  let workload_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload-out" ] ~docv:"FILE"
          ~doc:"Save the generated workload to FILE.")
  in
  let snapshot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-out" ] ~docv:"FILE"
          ~doc:"Save the serving snapshot (edge list + build parameters).")
  in
  let routing_flag =
    Arg.(
      value & flag
      & info [ "routing" ]
          ~doc:
            "Build compact-routing tables even for a pure distance workload \
             (they are built automatically when the workload has routes).")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Record serve metrics (per-generation answer counters, latency \
             histograms, staleness) and write the snapshot to FILE as JSON \
             lines.")
  in
  let metrics_summary =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:"Print the per-generation serve table from the metrics sink.")
  in
  let run kind n p seed input d eps k queries zipf route_frac workload_in
      workload_out snapshot_in snapshot_out routing_flag churn metrics_file
      metrics_summary =
    let reg = metrics_sink (metrics_file <> None || metrics_summary) in
    (* The workload is read (or generated) and the churn plan made as
       soon as the graph is known, so a bad workload file or churn flag
       fails before any build. *)
    let wseed = seed + 41 in
    let workload g =
      match workload_in with
      | Some file -> reading (Serve.Workload.load ~n:(Graph.n g)) file
      | None ->
          Serve.Workload.generate ~seed:wseed ~n:(Graph.n g)
            { Serve.Workload.queries; zipf; route_frac }
    in
    (* The serving graph and the gen-0 snapshot: either a saved snapshot
       (no rebuild possible — the full graph is gone) or a fresh
       skeleton build. *)
    let g, w, faults, plan_opt, build_snap0 =
      match snapshot_in with
      | Some file ->
          if churn <> [] then begin
            Format.eprintf
              "spanner_cli: serve --snapshot-in cannot take churn flags (a \
               rebuild needs the full input graph)@.";
            exit 1
          end;
          let snap = reading Serve.Snapshot.load file in
          Format.printf "snapshot loaded from %s@." file;
          let g = Serve.Snapshot.graph snap in
          (g, workload g, Distnet.Fault.none, None, fun ~routing:_ -> snap)
      | None ->
          let g = load_graph ~kind ~n ~p ~seed ~input in
          Format.printf "graph: %a@." Graph.pp_summary g;
          let w = workload g in
          let faults =
            fault_plan ~seed g { Distnet.Fault.default_spec with churn }
          in
          let r = Spanner.Skeleton_dist.build ~d ~eps ~seed g in
          Format.printf "spanner: %d edges@."
            (Edge_set.cardinal r.Spanner.Skeleton_dist.spanner);
          ( g,
            w,
            faults,
            Some r.Spanner.Skeleton_dist.plan,
            fun ~routing ->
              Serve.Snapshot.build ~generation:0 ~k ~seed ~routing g
                r.Spanner.Skeleton_dist.spanner )
    in
    Format.printf "workload: %d queries (%d routes)%s@." (Array.length w)
      (Serve.Workload.route_count w)
      (match workload_in with
      | Some file -> " from " ^ file
      | None -> Printf.sprintf ", seed %d" wseed);
    (match workload_out with
    | Some file ->
        Serve.Workload.save w file;
        Format.printf "workload written to %s@." file
    | None -> ());
    let routing = routing_flag || Serve.Workload.route_count w > 0 in
    let snap0 = build_snap0 ~routing in
    if Serve.Workload.route_count w > 0 && not (Serve.Snapshot.has_routing snap0)
    then begin
      Format.eprintf
        "spanner_cli: the workload has route queries but the snapshot has no \
         routing tables@.";
      exit 1
    end;
    Format.printf "snapshot: %a@." Serve.Snapshot.pp snap0;
    (match snapshot_out with
    | Some file ->
        Serve.Snapshot.save snap0 file;
        Format.printf "snapshot written to %s@." file
    | None -> ());
    let server = Serve.Server.create ~metrics:reg snap0 in
    let rep =
      if churn = [] then Serve.Server.run server w
      else begin
        (* The rebuild under the churn plan; [run_swap] calls it once,
           while the server is marked dirty. *)
        let rebuild () =
          Format.printf "churn landed: epoch %d, serving stale from gen %d@."
            (Serve.Server.epoch server)
            (Serve.Server.generation server);
          let rr = Spanner.Skeleton_dist.build ~faults ~d ~eps ~seed g in
          Serve.Snapshot.build ~generation:1 ~k ~seed ~routing
            ~exclude:rr.Spanner.Skeleton_dist.dead_edges g
            rr.Spanner.Skeleton_dist.spanner
        in
        let rep = Serve.Server.run_swap server w ~rebuild in
        Format.printf "swap: published %a (%d swap)@." Serve.Snapshot.pp
          (Serve.Server.snapshot server)
          (Serve.Server.swaps server);
        rep
      end
    in
    Format.printf "%a" Serve.Server.pp_report rep;
    (* The one wall-clock-dependent line, kept alone so pinned output
       can filter it. *)
    if rep.Serve.Server.answered > 0 then begin
      let lat = rep.Serve.Server.latency_sorted in
      Format.printf
        "latency: p50=%.0fns p90=%.0fns p99=%.0fns, throughput %.0f q/s@."
        (Util.Stats.p50_of_sorted lat)
        (Util.Stats.p90_of_sorted lat)
        (Util.Stats.p99_of_sorted lat)
        (float_of_int rep.Serve.Server.answered
        *. 1e9
        /. float_of_int (Stdlib.max 1 rep.Serve.Server.elapsed_ns))
    end;
    let a =
      Serve.Server.audit ~seed:(seed + 53) (Serve.Server.snapshot server) w
    in
    Format.printf "%a@." Serve.Server.pp_audit a;
    (match plan_opt with
    | Some plan ->
        Format.printf
          "bounds: skeleton distortion <= %.2f (Theorem 2), oracle stretch <= \
           %d@."
          (Spanner.Certify.stretch_bound plan)
          ((2 * k) - 1)
    | None -> ());
    if not (Serve.Server.audit_ok a) then exit 1;
    if metrics_summary then begin
      Format.printf "per-generation serve table:@.";
      Obs.Report.pp_serve_table Format.std_formatter (Obs.Metrics.snapshot reg)
    end;
    save_metrics reg metrics_file
      ~meta:
        (Printf.sprintf
           {|{"kind":"meta","algo":"serve","n":%d,"queries":%d,"workload_seed":%d,"generations":%d,"swaps":%d}|}
           (Graph.n g) (Array.length w) wseed
           (Serve.Server.generation server + 1)
           (Serve.Server.swaps server))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Freeze the skeleton into a read-optimized snapshot and answer a \
          query workload against it: distance and route queries, exact \
          latency percentiles, staleness accounting, and atomic snapshot \
          swaps under churn.  Any churn flag switches serve into the swap \
          flow: serve fresh, mark the snapshot stale, rebuild under the \
          churn plan in the background, publish the next generation \
          atomically, keep serving.")
    Term.(
      const run $ kind_arg $ n_arg $ p_arg $ seed_arg $ input_arg $ d_arg
      $ eps_arg $ oracle_k_arg $ queries $ zipf $ route_frac $ workload_in
      $ workload_out $ snapshot_in_arg $ snapshot_out $ routing_flag
      $ churn_arg $ metrics_file $ metrics_summary)

let query_cmd =
  let snapshot_in =
    Arg.(
      required
      & opt (some string) None
      & info [ "snapshot-in" ] ~docv:"FILE"
          ~doc:"Snapshot to answer from (written by serve --snapshot-out).")
  in
  let pairs =
    Arg.(
      value
      & pos_all (pair ~sep:',' int int) []
      & info [] ~docv:"U,V"
          ~doc:"Query pairs, e.g. 3,17; seeded samples when omitted.")
  in
  let route =
    Arg.(
      value & flag
      & info [ "route" ]
          ~doc:"Answer with compact-routing hop counts instead of distances.")
  in
  let count =
    Arg.(
      value
      & opt int 10
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Sampled queries when no pairs are given.")
  in
  let run snapshot_in pairs route count seed =
    let snap = reading Serve.Snapshot.load snapshot_in in
    Format.printf "snapshot: %a@." Serve.Snapshot.pp snap;
    if route && not (Serve.Snapshot.has_routing snap) then begin
      Format.eprintf
        "spanner_cli: %s has no routing tables (serve --routing when saving \
         it)@."
        snapshot_in;
      exit 1
    end;
    let n = Serve.Snapshot.n snap in
    let answer u v =
      if u < 0 || u >= n || v < 0 || v >= n then begin
        Format.eprintf "spanner_cli: vertex out of range (n=%d)@." n;
        exit 1
      end;
      let label = if route then "hops" else "d" in
      let value =
        if route then Serve.Snapshot.route_hops snap u v
        else Serve.Snapshot.distance snap u v
      in
      if value < 0 then
        Format.printf "  %s(%d,%d) = unreachable [gen %d]@." label u v
          (Serve.Snapshot.generation snap)
      else
        Format.printf "  %s(%d,%d) = %d [gen %d]@." label u v value
          (Serve.Snapshot.generation snap)
    in
    if pairs = [] then begin
      let rng = Util.Prng.create ~seed in
      for _ = 1 to count do
        answer (Util.Prng.int rng n) (Util.Prng.int rng n)
      done
    end
    else List.iter (fun (u, v) -> answer u v) pairs
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer ad-hoc distance/route queries from a saved snapshot.")
    Term.(const run $ snapshot_in $ pairs $ route $ count $ seed_arg)

(* ------------------------------------------------------------------ *)
(* sweep: resilience sweeps over scenario families, with shrinking *)

let sweep_cmd =
  let specs =
    Arg.(
      value
      & opt_all string []
      & info [ "spec" ] ~docv:"NAME|FILE"
          ~doc:
            "Scenario families to sweep: a built-in name (crash-storm, \
             bursty-loss, churn-heavy, mixed, restart-storm, tight-budget) \
             or a scenario spec file.  Repeatable; defaults to the four \
             fault staples.")
  in
  let samples =
    Arg.(
      value
      & opt (at_least 1) 25
      & info [ "samples" ] ~docv:"N"
          ~doc:"Scenarios sampled per family (sample k reseeds with seed+k).")
  in
  let out_dir =
    Arg.(
      value
      & opt string "sweep-out"
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Where shrunk reproducer plan files are written.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the aggregate report as JSON lines, one per family.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Record sweep metrics (per-scenario/outcome run counts, \
             per-ingredient failure attribution, certifier outcomes) to FILE \
             as JSON lines.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one plan file (e.g. a shrunk reproducer) instead of \
             sweeping; exits 3 when the plan still FAILs.")
  in
  let profile_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Record the sweep's aggregate allocation/time profile (all \
             samples accumulate into one table) to FILE as JSON lines, as \
             in simulate --profile.")
  in
  let shrink_evals =
    Arg.(
      value
      & opt (at_least 0) 80
      & info [ "shrink-evals" ] ~docv:"N"
          ~doc:"Candidate-run budget per shrink.")
  in
  let pp_outcome ppf (r : Scenario.Sweep.report) =
    match r.Scenario.Sweep.outcome with
    | Scenario.Sweep.Certified o ->
        Format.fprintf ppf "certified %a" Spanner.Skeleton_dist.pp_outcome o
    | Scenario.Sweep.Failed f ->
        Format.fprintf ppf "FAIL (%s)" (Scenario.Sweep.failure_tag f)
  in
  let run specs samples out_dir json_file metrics_file replay profile_file
      shrink_evals =
    match replay with
    | Some file ->
        let plan = reading Scenario.Compile.load file in
        let r = Scenario.Sweep.run_plan plan in
        Format.printf "plan %s sample %d: %a@." plan.Scenario.Compile.scenario
          plan.Scenario.Compile.sample pp_outcome r;
        Format.printf "rounds %d, messages %d, words %d, spanner %d edges@."
          r.Scenario.Sweep.rounds r.Scenario.Sweep.messages
          r.Scenario.Sweep.words r.Scenario.Sweep.spanner_edges;
        exit
          (match r.Scenario.Sweep.outcome with
          | Scenario.Sweep.Failed _ -> 3
          | Scenario.Sweep.Certified _ -> 0)
    | None ->
        let resolve name =
          match Scenario.Spec.builtin name with
          | Some spec -> spec
          | None -> reading Scenario.Spec.load name
        in
        let names =
          match specs with
          | [] -> [ "crash-storm"; "bursty-loss"; "churn-heavy"; "mixed" ]
          | names -> names
        in
        let families = List.map resolve names in
        let reg = metrics_sink (metrics_file <> None) in
        let prof = profiler profile_file in
        let json_lines = ref [] in
        let unshrunk = ref 0 in
        List.iter
          (fun spec ->
            let agg = Scenario.Sweep.run ~metrics:reg spec ~samples in
            Format.printf "%a@." Scenario.Sweep.pp agg;
            (* Every FAIL gets shrunk to a minimal reproducer that
               fails the same way, written as a replayable plan. *)
            List.iter
              (fun (r : Scenario.Sweep.report) ->
                match r.Scenario.Sweep.outcome with
                | Scenario.Sweep.Certified _ -> ()
                | Scenario.Sweep.Failed f ->
                    let plan = r.Scenario.Sweep.plan in
                    let shrunk =
                      Scenario.Sweep.shrink ~max_evals:shrink_evals r
                    in
                    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
                    let path =
                      Filename.concat out_dir
                        (Printf.sprintf "%s-s%d.plan"
                           plan.Scenario.Compile.scenario
                           plan.Scenario.Compile.sample)
                    in
                    Scenario.Compile.save shrunk.Scenario.Shrink.plan path;
                    Format.printf
                      "  reproducer: %s (%s, weight %d -> %d, %d evals, \
                       verified %b)@."
                      path
                      (Scenario.Sweep.failure_tag f)
                      (Scenario.Shrink.weight plan)
                      (Scenario.Shrink.weight shrunk.Scenario.Shrink.plan)
                      shrunk.Scenario.Shrink.evals
                      shrunk.Scenario.Shrink.verified;
                    if not shrunk.Scenario.Shrink.verified then incr unshrunk)
              agg.Scenario.Sweep.failures;
            json_lines := Scenario.Sweep.to_json agg :: !json_lines)
          families;
        (match json_file with
        | None -> ()
        | Some file ->
            Out_channel.with_open_text file (fun oc ->
                List.iter
                  (fun l -> Out_channel.output_string oc (l ^ "\n"))
                  (List.rev !json_lines));
            Format.printf "report written to %s@." file);
        save_metrics reg metrics_file;
        save_profile prof profile_file
          ~meta:
            (Printf.sprintf
               {|{"kind":"prof_meta","algo":"sweep:%s","samples":%d}|}
               (String.concat "," names) samples);
        if !unshrunk > 0 then begin
          Format.eprintf
            "spanner_cli: %d failing scenario(s) could not be shrunk to a \
             verified reproducer@."
            !unshrunk;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sample probabilistic failure scenarios (crash storms, bursty loss, \
          heavy-tailed churn), run each through build + certify + serve, \
          aggregate a resilience report, and shrink any failure to a minimal \
          replayable plan file.")
    Term.(
      const run $ specs $ samples $ out_dir $ json_file $ metrics_file
      $ replay $ profile_file $ shrink_evals)

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let ids =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E25); all when omitted.")
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Full-size workloads.") in
  let run ids full seed =
    let quick = not full in
    let selected =
      match ids with
      | [] -> Experiments.Run.ids
      | ids -> ids
    in
    List.iter
      (fun id ->
        match Experiments.Run.by_id id with
        | Some f -> Experiments.Table.print Format.std_formatter (f ~quick ~seed ())
        | None ->
            Printf.eprintf "unknown experiment %s (have: %s)\n" id
              (String.concat ", " Experiments.Run.ids);
            exit 2)
      selected
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run the paper-reproduction experiment tables.")
    Term.(const run $ ids $ full $ seed_arg)

let main =
  Cmd.group
    (Cmd.info "spanner_cli" ~version:"1.0.0"
       ~doc:"Ultrasparse spanners and linear-size skeletons (Pettie, PODC 2008).")
    [ gen_cmd; build_cmd; eval_cmd; trace_cmd; oracle_cmd; simulate_cmd;
      sweep_cmd; serve_cmd; query_cmd; report_cmd; experiment_cmd ]

let () = exit (Cmd.eval main)
