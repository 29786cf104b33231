(* The three workloads: input set-up, the timed op, and the checks that
   decide whether an op failed.

   Each workload is one process on one domain running a closed loop:
   the next op starts only when the previous one has returned.  The
   libraries see only the inputs generated here from the benchmark
   seed.  Calls into the libraries are wrapped in {!Meter.span}, which
   records nothing unless the run is traced, and the per-layer counts
   an op can read off its results go into a {!Tally.t}. *)

module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set
module Fault = Distnet.Fault
module SD = Spanner.Skeleton_dist
module Certify = Spanner.Certify
module Snapshot = Serve.Snapshot
module Server = Serve.Server
module Workload = Serve.Workload
module Compile = Scenario.Compile
module Sweep = Scenario.Sweep

type size = {
  lossfree_n : int;
  sweep_samples : int;  (** per family *)
  serve_n : int;
  serve_queries : int;
}

let full = { lossfree_n = 20_000; sweep_samples = 40; serve_n = 4000; serve_queries = 1_000_000 }

let families =
  [ "mixed"; "crash-storm"; "bursty-loss"; "churn-heavy"; "restart-storm" ]

(* What one op reports.  Every workload serves requests of its own
   kind: a solve (build-lossfree), a fault-plan sample (sweep-faults) or
   a query (serve-churn).  [exact] holds the values that repeat exactly
   for one build and seed, [alloc_mwords] among them. *)
type op = {
  attempted : int;
  failed : int;
  requests : int;
  request_s : float;  (** time spent serving the requests *)
  latencies_ns : float array;  (** per-request service times *)
  solve_s : float;  (** graph to certified spanner *)
  republish_s : float;  (** input changed to new output in service *)
  exact : (string * float) list;
}

(* Everything a traced run needs besides the op itself: the graphs the
   engine and ARQ probes run on, and the workload's own spanner builds
   (graph, fault plan, seed) for the ARQ tax and the sink passes. *)
type probe_input = {
  graphs : Graph.t list;
  builds : (Graph.t * Fault.t option * int) list;
}

(* A run sets up [instances] inputs, instance [j] of seed [s] from the
   instance seed [s * instances + j], and cycles its ops over them, so
   that its figures average over several inputs and one seed's
   outliers move them less.  A traced run uses instance 0.  The layer
   pass, where there is one, runs after the traced op and measures the
   layers the op leaves out or hides behind one call; it returns false
   if it finds a verdict of the op wrong. *)
type 'input t = {
  instances : int;
  setup : Meter.spans -> int -> 'input;
  op : Meter.spans -> Tally.t -> 'input -> int -> op;
  layer_pass : (Meter.spans -> Tally.t -> 'input -> bool) option;
  probe_input : 'input -> probe_input;
}

let span = Meter.span
let now_s () = float_of_int (Meter.now_ns ()) *. 1e-9

let note_build tally (r : SD.result) =
  let st = r.SD.stats and rc = r.SD.recovery and rp = r.SD.repair in
  Tally.notei tally "sim.messages" st.Distnet.Sim.messages;
  Tally.notei tally "sim.max_message_words" st.Distnet.Sim.max_message_words;
  Tally.notei tally "arq.retransmissions" rc.SD.retransmissions;
  Tally.notei tally "arq.dead_letters" rc.SD.dead_letters;
  Tally.notei tally "skel.aborts" r.SD.aborts;
  Tally.notei tally "skel.orphaned" rc.SD.orphaned;
  Tally.notei tally "skel.recovered_edges" rc.SD.recovered_edges;
  Tally.notei tally "skel.repair_rounds" rp.SD.repair_rounds;
  Tally.notei tally "skel.rehooked" rp.SD.rehooked;
  Tally.notei tally "skel.rejoined" rp.SD.rejoined

let note_certify tally (v : Certify.verdict) =
  Tally.notei tally "certify.pairs" v.Certify.pairs;
  Tally.note tally "certify.max_stretch" v.Certify.max_stretch

let note_serve tally (rep : Server.report) =
  Tally.notei tally "server.answered" rep.Server.answered;
  Tally.notei tally "server.unanswerable" rep.Server.failed;
  Tally.notei tally "server.stale" rep.Server.stale;
  Array.iter (Tally.note tally "server.latency_ns") rep.Server.latency_sorted

let note_audit tally (a : Server.audit) =
  Tally.notei tally "server.audit_failures" a.Server.failures

(* One [Server.run] call, with its wall time and allocation.  The
   server sorts its latencies with a polymorphic compare that boxes a
   float per comparison, and how many comparisons a sort makes depends
   on the measured timings, so these words are not repeatable: ops
   leave them out of [alloc_mwords] and the per-layer table reports
   them as [server.words_per_query]. *)
let serve_batch sp tally ?first ?count server queries =
  let rep, c =
    Meter.measure (fun () -> span sp "Server.run" (fun () -> Server.run ?first ?count server queries))
  in
  note_serve tally rep;
  (rep, c)

(* Certification of a build that may have run under churn or restarts:
   down edges leave both sides of the stretch audit and every surviving
   component gets a source, as the sweep does it. *)
let certify sp tally ?(faults = Fault.none) g (r : SD.result) =
  let repaired = Fault.has_churn faults || Fault.has_restarts faults in
  let down = Array.make (max 1 (Graph.m g)) false in
  List.iter (fun e -> down.(e) <- true) r.SD.dead_edges;
  let v =
    span sp "Certify.run" (fun () ->
        Certify.run
          ~down_edge:(fun e -> repaired && down.(e))
          ~per_component:repaired ~plan:r.SD.plan ~witness:r.SD.witness g
          r.SD.spanner)
  in
  note_certify tally v;
  v

let gnp seed n = Graphlib.Gen.connected_gnp (Util.Prng.create ~seed) ~n ~p:(8. /. float_of_int n)

(* {1 build-lossfree}

   One build plus certification of G(n, 8/n) on the Direct engine (no
   fault plan, so the ARQ is bypassed).  The request is the solve. *)

type lossfree = { lf_g : Graph.t; lf_seed : int }

let lossfree ?phase_round_limit size =
  let setup sp seed =
    { lf_g = span sp "Gen.connected_gnp" (fun () -> gnp seed size.lossfree_n); lf_seed = seed }
  in
  (* The spanner of the traced op, once certified, for the layer pass. *)
  let certified = ref None in
  let op sp tally inp i =
    let g = inp.lf_g in
    let w0 = Meter.alloc_words () in
    let t0 = now_s () in
    (* The forced-failure hook of the benchmark's tests: only the first
       op gets the round limit. *)
    let phase_round_limit = if i = 0 then phase_round_limit else None in
    let r = span sp "Skeleton_dist.build" (fun () -> SD.build ?phase_round_limit ~seed:inp.lf_seed g) in
    note_build tally r;
    let v = certify sp tally g r in
    let solve = now_s () -. t0 in
    if sp.Meter.on && Certify.ok v then certified := Some r.SD.spanner;
    let st = r.SD.stats in
    {
      attempted = 1;
      failed = (if Certify.ok v then 0 else 1);
      requests = 1;
      request_s = solve;
      latencies_ns = [| solve *. 1e9 |];
      solve_s = solve;
      republish_s = solve;
      exact =
        [
          ("alloc_mwords", (Meter.alloc_words () -. w0) /. 1e6);
          ("spanner_edges", float_of_int (Edge_set.cardinal r.SD.spanner));
          ("sim_rounds", float_of_int st.Distnet.Sim.rounds);
          ("sim_words", float_of_int st.Distnet.Sim.words);
        ];
    }
  in
  (* The traced op's certified spanner put into service, so that the
     serving rows are measured on this workload's output too: a
     snapshot (k = 4 keeps it under a second at this size), 2 * 10^5
     uniform distance queries and an audit. *)
  let layer_pass sp tally inp =
    match !certified with
    | None -> true
    | Some spanner ->
        let g = inp.lf_g and seed = inp.lf_seed in
        let snap = span sp "Snapshot.build" (fun () -> Snapshot.build ~k:4 ~seed g spanner) in
        Tally.notei tally "snapshot.oracle_entries" (Snapshot.oracle_entries snap);
        let queries =
          span sp "Workload.generate" (fun () ->
              Workload.generate ~seed:(seed + 41) ~n:(Graph.n g)
                { Workload.queries = 200_000; zipf = None; route_frac = 0. })
        in
        ignore (serve_batch sp tally (Server.create snap) queries);
        let audit = span sp "Server.audit" (fun () -> Server.audit ~seed:(seed + 53) snap queries) in
        note_audit tally audit;
        Server.audit_ok audit
  in
  let probe_input inp = { graphs = [ inp.lf_g ]; builds = [ (inp.lf_g, None, inp.lf_seed) ] } in
  { instances = 6; setup; op; layer_pass = Some layer_pass; probe_input }

(* {1 sweep-faults}

   The five staple builtin families at their native size, compiled in
   set-up and each run with [Sweep.run_plan], the traffic of CI and the
   nightly soak.  An instance is a window of samples: window [w] holds
   samples [w * per .. w * per + per - 1] of every family. *)

let plans_for ~seed ~per =
  List.concat_map
    (fun name ->
      let spec =
        match Scenario.Spec.builtin name with
        | Some s -> s
        | None -> failwith ("unknown builtin scenario " ^ name)
      in
      List.init per (fun i -> Compile.compile spec ~sample:((seed * per) + i)))
    families

let repairs (p : Compile.plan) =
  p.Compile.fspec.Fault.churn <> [] || p.Compile.fspec.Fault.restarts <> []

let note_sample tally (p : Compile.plan) (rep : Sweep.report) c =
  let fam = p.Compile.scenario in
  Tally.note tally "sweep.sample_ms" (c.Meter.wall_s *. 1e3);
  Tally.note tally ("sweep." ^ fam ^ ".sample_ms") (c.Meter.wall_s *. 1e3);
  Tally.note tally ("sweep." ^ fam ^ ".alloc_mwords") (c.Meter.words /. 1e6);
  let rung =
    match rep.Sweep.outcome with
    | Sweep.Certified SD.Intact -> "sweep.intact"
    | Sweep.Certified SD.Patched -> "sweep.patched"
    | Sweep.Certified SD.Degraded -> "sweep.degraded"
    | Sweep.Certified (SD.Partitioned _) -> "sweep.partitioned"
    | Sweep.Failed _ -> "sweep.failed"
  in
  Tally.notei tally rung 1

let run_sample sp tally p =
  let rep, c = Meter.measure (fun () -> span sp "Sweep.run_plan" (fun () -> Sweep.run_plan p)) in
  note_sample tally p rep c;
  (rep, c)

(* The public calls [Sweep.run_plan] makes, issued one by one so that a
   traced run can give each layer its own span: graph, fault plan,
   build, certification, and for plans with a serve workload the
   snapshot, the workload, its answers and the audit.  The plan's
   queries are answered with [Server.run] as well as audited, so that
   the server row has a measurement on this workload.  Returns whether
   the verdict agrees with [run_plan]'s. *)
let expand_plan sp tally (p : Compile.plan) (rep : Sweep.report) =
  let g = span sp "Compile.graph_of" (fun () -> Compile.graph_of p) in
  let faults = span sp "Compile.faults" (fun () -> Compile.faults ~graph:g p) in
  match span sp "Skeleton_dist.build" (fun () -> SD.build ~faults ~seed:p.Compile.graph_seed g) with
  | exception SD.Stuck _ -> (
      match rep.Sweep.outcome with Sweep.Failed (Sweep.Stuck_phase _) -> true | _ -> false)
  | exception _ -> (
      match rep.Sweep.outcome with Sweep.Failed (Sweep.Crashed _) -> true | _ -> false)
  | r -> (
      note_build tally r;
      let v = certify sp tally ~faults g r in
      let over_budget =
        match p.Compile.budget_rounds with
        | Some b -> r.SD.stats.Distnet.Sim.rounds > b
        | None -> false
      in
      let audit_ok =
        match p.Compile.workload with
        | Some w when Certify.ok v && not over_budget ->
            let snap =
              span sp "Snapshot.build" (fun () ->
                  Snapshot.build ~routing:(w.Workload.route_frac > 0.) ~exclude:r.SD.dead_edges g
                    r.SD.spanner)
            in
            Tally.notei tally "snapshot.oracle_entries" (Snapshot.oracle_entries snap);
            let queries =
              span sp "Workload.generate" (fun () ->
                  Workload.generate ~seed:p.Compile.workload_seed ~n:(Graph.n g) w)
            in
            ignore (serve_batch sp tally (Server.create snap) queries);
            let a = span sp "Server.audit" (fun () -> Server.audit snap queries) in
            note_audit tally a;
            Server.audit_ok a
        | _ -> true
      in
      let certified = Certify.ok v && (not over_budget) && audit_ok in
      match rep.Sweep.outcome with
      | Sweep.Certified _ -> certified
      | Sweep.Failed _ -> not certified)

let sweep size =
  let setup sp window =
    span sp "Compile.compile" (fun () -> plans_for ~seed:window ~per:size.sweep_samples)
  in
  let op sp tally plans _ =
    let w0 = Meter.alloc_words () in
    let t0 = now_s () in
    let samples = List.map (fun p -> (p, run_sample sp tally p)) plans in
    let pass = now_s () -. t0 in
    let words = Meter.alloc_words () -. w0 in
    let certified (_, ((rep : Sweep.report), _)) =
      match rep.Sweep.outcome with Sweep.Certified _ -> true | Sweep.Failed _ -> false
    in
    let n = List.length samples in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 samples in
    {
      attempted = n;
      failed = n - List.length (List.filter certified samples);
      requests = n;
      request_s = pass;
      latencies_ns = Array.of_list (List.map (fun (_, (_, c)) -> c.Meter.wall_s *. 1e9) samples);
      solve_s = pass;
      (* The samples whose plan lands churn or restarts end in a repair
         pass, whose output a live server would republish. *)
      republish_s =
        List.fold_left
          (fun acc (p, (_, c)) -> if repairs p then acc +. c.Meter.wall_s else acc)
          0. samples;
      exact =
        [
          ("alloc_mwords", words /. 1e6);
          ("spanner_edges", float_of_int (sum (fun (_, (r, _)) -> r.Sweep.spanner_edges)));
          ("sim_rounds", float_of_int (sum (fun (_, (r, _)) -> r.Sweep.rounds)));
          ("sim_words", float_of_int (sum (fun (_, (r, _)) -> r.Sweep.words)));
        ];
    }
  in
  (* Every plan through [Sweep.run_plan] and then through
     {!expand_plan}; false if an expanded verdict disagrees. *)
  let layer_pass sp tally plans =
    List.fold_left (fun ok p -> expand_plan sp tally p (Sweep.run_plan p) && ok) true plans
  in
  let probe_input plans =
    let builds =
      List.map
        (fun p ->
          let g = Compile.graph_of p in
          (g, Some (Compile.faults ~graph:g p), p.Compile.graph_seed))
        plans
    in
    { graphs = List.map (fun (g, _, _) -> g) builds; builds }
  in
  { instances = 7; setup; op; layer_pass = Some layer_pass; probe_input }

(* {1 serve-churn}

   [spanner_cli serve] with churn: a gen-0 snapshot with routing tables
   serves a Zipf workload; two cluster-tree hook edges of the gen-0
   spanner go down (the damage E25 injects), the server is marked dirty
   and keeps answering stale while the repair build runs over the ARQ,
   and the repaired snapshot is published as gen 1. *)

type serve = {
  sv_g : Graph.t;
  sv_snap0 : Snapshot.t;
  sv_queries : Workload.query array;
  sv_faults : Fault.t;
  sv_seed : int;
}

let hook_churn ~seed g (r : SD.result) =
  let w = r.SD.witness in
  let hooks = ref [] in
  Array.iter (fun e -> if e >= 0 then hooks := e :: !hooks) w.Certify.parent_edge;
  let a = Array.of_list (List.sort_uniq compare !hooks) in
  Util.Prng.shuffle (Util.Prng.create ~seed:(seed + 7)) a;
  List.init (min 2 (Array.length a)) (fun i ->
      let u, v = Graph.edge_endpoints g a.(i) in
      Fault.Edge_down { round = 40; u; v })

let serve size =
  let k = 2 in
  let setup sp seed =
    let n = size.serve_n in
    let g = span sp "Gen.connected_gnp" (fun () -> gnp seed n) in
    let r0 = span sp "Skeleton_dist.build" (fun () -> SD.build ~seed g) in
    let snap0 =
      span sp "Snapshot.build" (fun () ->
          Snapshot.build ~generation:0 ~k ~seed ~routing:true g r0.SD.spanner)
    in
    let queries =
      span sp "Workload.generate" (fun () ->
          Workload.generate ~seed:(seed + 41) ~n
            { Workload.queries = size.serve_queries; zipf = Some 1.1; route_frac = 0.25 })
    in
    let faults =
      Fault.make ~seed:(seed + 31) ~graph:g
        { Fault.default_spec with Fault.churn = hook_churn ~seed g r0 }
    in
    { sv_g = g; sv_snap0 = snap0; sv_queries = queries; sv_faults = faults; sv_seed = seed }
  in
  let op sp tally inp _ =
    let g = inp.sv_g and w = inp.sv_queries in
    let total = Array.length w in
    let s1 = total / 3 and s2 = total / 3 in
    let w0 = Meter.alloc_words () in
    let server = Server.create inp.sv_snap0 in
    let r1, c1 = serve_batch sp tally ~first:0 ~count:s1 server w in
    Server.mark_dirty server;
    let r2, c2 = serve_batch sp tally ~first:s1 ~count:s2 server w in
    (* The closed loop answers the stale third before the repair starts;
       the republish window is timed from there. *)
    let t_repair = now_s () in
    let rr =
      span sp "Skeleton_dist.build" (fun () -> SD.build ~faults:inp.sv_faults ~seed:inp.sv_seed g)
    in
    note_build tally rr;
    let v = certify sp tally ~faults:inp.sv_faults g rr in
    let t_solved = now_s () in
    let snap1 =
      span sp "Snapshot.build" (fun () ->
          Snapshot.build ~generation:1 ~k ~seed:inp.sv_seed ~routing:true
            ~exclude:rr.SD.dead_edges g rr.SD.spanner)
    in
    Tally.notei tally "snapshot.oracle_entries" (Snapshot.oracle_entries snap1);
    span sp "Server.publish" (fun () -> Server.publish server snap1);
    let t_published = now_s () in
    let r3, c3 = serve_batch sp tally ~first:(s1 + s2) ~count:(total - s1 - s2) server w in
    let audit =
      span sp "Server.audit" (fun () ->
          Server.audit ~seed:(inp.sv_seed + 53) (Server.snapshot server) w)
    in
    note_audit tally audit;
    let served f = f c1 +. f c2 +. f c3 in
    let words = Meter.alloc_words () -. w0 -. served (fun c -> c.Meter.words) in
    let rep = Server.merge [ r1; r2; r3 ] in
    let st = rr.SD.stats in
    {
      attempted = 1;
      failed = (if Certify.ok v && Server.audit_ok audit && rep.Server.stale = s2 then 0 else 1);
      requests = rep.Server.answered;
      request_s = served (fun c -> c.Meter.wall_s);
      latencies_ns = rep.Server.latency_sorted;
      solve_s = t_solved -. t_repair;
      republish_s = t_published -. t_repair;
      exact =
        [
          ("alloc_mwords", words /. 1e6);
          ("spanner_edges", float_of_int (Snapshot.edges snap1));
          ("sim_rounds", float_of_int st.Distnet.Sim.rounds);
          ("sim_words", float_of_int st.Distnet.Sim.words);
        ];
    }
  in
  let probe_input inp =
    { graphs = [ inp.sv_g ]; builds = [ (inp.sv_g, Some inp.sv_faults, inp.sv_seed) ] }
  in
  { instances = 5; setup; op; layer_pass = None; probe_input }
