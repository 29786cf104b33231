module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

type failure =
  | Stuck_phase of string
  | Over_budget of { rounds : int; budget : int }
  | Cert_failed of string
  | Serve_failed of { sampled : int; failures : int }
  | Crashed of string

let failure_tag = function
  | Stuck_phase _ -> "stuck"
  | Over_budget _ -> "over-budget"
  | Cert_failed check -> "certify:" ^ check
  | Serve_failed _ -> "serve-audit"
  | Crashed _ -> "error"

let pp_failure ppf = function
  | Stuck_phase phase -> Fmt.pf ppf "stuck in %s phase" phase
  | Over_budget { rounds; budget } ->
      Fmt.pf ppf "over budget: %d rounds > %d" rounds budget
  | Cert_failed check -> Fmt.pf ppf "certification failed: %s" check
  | Serve_failed { sampled; failures } ->
      Fmt.pf ppf "serve audit failed: %d/%d answers out of bound" failures
        sampled
  | Crashed msg -> Fmt.pf ppf "error: %s" msg

type outcome = Certified of Spanner.Skeleton_dist.repair_outcome | Failed of failure

type report = {
  plan : Compile.plan;
  outcome : outcome;
  rounds : int;
  messages : int;
  words : int;
  spanner_edges : int;
  max_stretch : float;
  stretch_bound : float;
  crashed : int;
  rejoined : int;
  retransmissions : int;
  dead_letters : int;
}

let empty_report plan failure =
  {
    plan;
    outcome = Failed failure;
    rounds = 0;
    messages = 0;
    words = 0;
    spanner_edges = 0;
    max_stretch = 0.;
    stretch_bound = 0.;
    crashed = 0;
    rejoined = 0;
    retransmissions = 0;
    dead_letters = 0;
  }

let run_plan ?(metrics = Obs.Metrics.disabled) plan =
  match Compile.graph_of plan with
  | exception e -> empty_report plan (Crashed (Printexc.to_string e))
  | g -> (
      match Compile.faults ~graph:g plan with
      | exception Invalid_argument msg -> empty_report plan (Crashed msg)
      | faults -> (
          match
            Spanner.Skeleton_dist.build ~faults ~seed:plan.Compile.graph_seed g
          with
          | exception Spanner.Skeleton_dist.Stuck { phase; stats; _ } ->
              {
                (empty_report plan (Stuck_phase phase)) with
                rounds = stats.Distnet.Sim.rounds;
                messages = stats.Distnet.Sim.messages;
                words = stats.Distnet.Sim.words;
              }
          | exception e -> empty_report plan (Crashed (Printexc.to_string e))
          | r -> (
              let stats = r.Spanner.Skeleton_dist.stats in
              let rc = r.Spanner.Skeleton_dist.recovery in
              (* The repair pass runs under churn or restarts; either
                 way the surviving graph may be partitioned, so the
                 audit needs a source per component. *)
              let repaired =
                Distnet.Fault.has_churn faults
                || Distnet.Fault.has_restarts faults
              in
              let down = Array.make (Stdlib.max 1 (Graph.m g)) false in
              List.iter
                (fun e -> down.(e) <- true)
                r.Spanner.Skeleton_dist.dead_edges;
              match
                Spanner.Certify.run
                  ~down_edge:(fun e -> repaired && down.(e))
                  ~per_component:repaired ~metrics
                  ~plan:r.Spanner.Skeleton_dist.plan
                  ~witness:r.Spanner.Skeleton_dist.witness g
                  r.Spanner.Skeleton_dist.spanner
              with
              | exception e -> empty_report plan (Crashed (Printexc.to_string e))
              | verdict ->
                  let base =
                    {
                      plan;
                      outcome =
                        Certified
                          r.Spanner.Skeleton_dist.repair
                            .Spanner.Skeleton_dist.outcome;
                      rounds = stats.Distnet.Sim.rounds;
                      messages = stats.Distnet.Sim.messages;
                      words = stats.Distnet.Sim.words;
                      spanner_edges =
                        Edge_set.cardinal r.Spanner.Skeleton_dist.spanner;
                      max_stretch = verdict.Spanner.Certify.max_stretch;
                      stretch_bound = verdict.Spanner.Certify.stretch_bound;
                      crashed = rc.Spanner.Skeleton_dist.crashed;
                      rejoined = verdict.Spanner.Certify.rejoined;
                      retransmissions =
                        rc.Spanner.Skeleton_dist.retransmissions;
                      dead_letters = rc.Spanner.Skeleton_dist.dead_letters;
                    }
                  in
                  if not (Spanner.Certify.ok verdict) then
                    let first =
                      List.find
                        (fun c -> not c.Spanner.Certify.ok)
                        verdict.Spanner.Certify.checks
                    in
                    { base with outcome = Failed (Cert_failed first.Spanner.Certify.name) }
                  else
                    let over_budget =
                      match plan.Compile.budget_rounds with
                      | Some budget when stats.Distnet.Sim.rounds > budget ->
                          Some
                            (Over_budget
                               { rounds = stats.Distnet.Sim.rounds; budget })
                      | _ -> None
                    in
                    (match over_budget with
                    | Some f -> { base with outcome = Failed f }
                    | None -> (
                        match plan.Compile.workload with
                        | None -> base
                        | Some w -> (
                            match
                              let snapshot =
                                Serve.Snapshot.build
                                  ~routing:(w.Serve.Workload.route_frac > 0.)
                                  ~exclude:r.Spanner.Skeleton_dist.dead_edges g
                                  r.Spanner.Skeleton_dist.spanner
                              in
                              let queries =
                                Serve.Workload.generate
                                  ~seed:plan.Compile.workload_seed
                                  ~n:(Graph.n g) w
                              in
                              Serve.Server.audit snapshot queries
                            with
                            | exception e ->
                                {
                                  base with
                                  outcome =
                                    Failed (Crashed (Printexc.to_string e));
                                }
                            | audit ->
                                if Serve.Server.audit_ok audit then base
                                else
                                  {
                                    base with
                                    outcome =
                                      Failed
                                        (Serve_failed
                                           {
                                             sampled =
                                               audit.Serve.Server.sampled;
                                             failures =
                                               audit.Serve.Server.failures;
                                           });
                                  }))))))

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type aggregate = {
  scenario : string;
  samples : int;
  intact : int;
  patched : int;
  degraded : int;
  partitioned : int;
  failures : report list;
  worst_rounds : int;
  worst_words : int;
  worst_size : int;
  worst_stretch : float;
  stretch_bound : float;
}

let failed a = List.length a.failures

(* The fault ingredients a plan actually carries — the attribution
   axis for failures. *)
let ingredients (plan : Compile.plan) =
  let f = plan.Compile.fspec in
  List.filter_map
    (fun (active, tag) -> if active then Some tag else None)
    [
      (f.Distnet.Fault.drop > 0., "iid-loss");
      (f.Distnet.Fault.drop_profile <> [], "bursty-loss");
      (f.Distnet.Fault.dup > 0., "dup");
      (f.Distnet.Fault.delay > 0., "delay");
      (f.Distnet.Fault.crashes <> [], "crash");
      (f.Distnet.Fault.restarts <> [], "restart");
      (f.Distnet.Fault.churn <> [], "churn");
      (plan.Compile.budget_rounds <> None, "budget");
    ]

let run ?(metrics = Obs.Metrics.disabled) spec ~samples =
  let acc =
    ref
      {
        scenario = spec.Spec.name;
        samples;
        intact = 0;
        patched = 0;
        degraded = 0;
        partitioned = 0;
        failures = [];
        worst_rounds = 0;
        worst_words = 0;
        worst_size = 0;
        worst_stretch = 0.;
        stretch_bound = 0.;
      }
  in
  for sample = 0 to samples - 1 do
    let plan = Compile.compile spec ~sample in
    let r = run_plan ~metrics plan in
    let a = !acc in
    let a =
      {
        a with
        worst_rounds = Stdlib.max a.worst_rounds r.rounds;
        worst_words = Stdlib.max a.worst_words r.words;
        worst_size = Stdlib.max a.worst_size r.spanner_edges;
        worst_stretch = Float.max a.worst_stretch r.max_stretch;
        stretch_bound = Float.max a.stretch_bound r.stretch_bound;
      }
    in
    let tag, a =
      match r.outcome with
      | Certified Spanner.Skeleton_dist.Intact ->
          ("intact", { a with intact = a.intact + 1 })
      | Certified Spanner.Skeleton_dist.Patched ->
          ("patched", { a with patched = a.patched + 1 })
      | Certified Spanner.Skeleton_dist.Degraded ->
          ("degraded", { a with degraded = a.degraded + 1 })
      | Certified (Spanner.Skeleton_dist.Partitioned _) ->
          ("partitioned", { a with partitioned = a.partitioned + 1 })
      | Failed f ->
          List.iter
            (fun ingredient ->
              Obs.Metrics.incr
                (Obs.Metrics.counter metrics
                   ~labels:
                     [ ("scenario", spec.Spec.name); ("ingredient", ingredient) ]
                   "sweep_fail_ingredients"))
            (ingredients plan);
          (failure_tag f, { a with failures = r :: a.failures })
    in
    Obs.Metrics.incr
      (Obs.Metrics.counter metrics
         ~labels:[ ("scenario", spec.Spec.name); ("outcome", tag) ]
         "sweep_runs");
    acc := a
  done;
  { !acc with failures = List.rev (!acc).failures }

let pp ppf a =
  Fmt.pf ppf
    "@[<v>scenario %s: %d samples: %d intact, %d patched, %d degraded, %d \
     partitioned, %d FAIL@,\
     worst: %d rounds, %d words, %d spanner edges, stretch %.2f (bound %.2f)@]"
    a.scenario a.samples a.intact a.patched a.degraded a.partitioned (failed a)
    a.worst_rounds a.worst_words a.worst_size a.worst_stretch a.stretch_bound;
  List.iter
    (fun r ->
      match r.outcome with
      | Failed f ->
          Fmt.pf ppf "@,  sample %d: FAIL, %a" r.plan.Compile.sample pp_failure
            f
      | Certified _ -> ())
    a.failures

let to_json a =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"kind":"sweep","scenario":"%s","samples":%d,"intact":%d,"patched":%d,"degraded":%d,"partitioned":%d,"failed":%d|}
       a.scenario a.samples a.intact a.patched a.degraded a.partitioned
       (failed a));
  Buffer.add_string b
    (Printf.sprintf
       {|,"worst_rounds":%d,"worst_words":%d,"worst_size":%d,"worst_stretch":%g,"stretch_bound":%g|}
       a.worst_rounds a.worst_words a.worst_size a.worst_stretch
       a.stretch_bound);
  if a.failures <> [] then begin
    Buffer.add_string b {|,"failures":[|};
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char b ',';
        let reason =
          match r.outcome with Failed f -> failure_tag f | Certified _ -> "?"
        in
        Buffer.add_string b
          (Printf.sprintf {|{"sample":%d,"reason":"%s","rounds":%d}|}
             r.plan.Compile.sample reason r.rounds))
      a.failures;
    Buffer.add_char b ']'
  end;
  Buffer.add_char b '}';
  Buffer.contents b
