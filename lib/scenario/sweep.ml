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

(* The serve audit of the plan's workload, answered from a snapshot
   of the finished spanner without its dead edges. *)
let serve_audit plan g (r : Spanner.Skeleton_dist.result) w =
  let snapshot =
    Serve.Snapshot.build
      ~routing:(w.Serve.Workload.route_frac > 0.)
      ~exclude:r.Spanner.Skeleton_dist.dead_edges g
      r.Spanner.Skeleton_dist.spanner
  in
  Serve.Server.audit snapshot
    (Serve.Workload.generate ~seed:plan.Compile.workload_seed ~n:(Graph.n g) w)

(* Why a finished run fails, in order: its first failing certification
   check, the round budget, then the serve audit of its workload. *)
let judge plan g (r : Spanner.Skeleton_dist.result) verdict =
  let rounds = r.Spanner.Skeleton_dist.stats.Distnet.Sim.rounds in
  match
    List.find_opt
      (fun c -> not c.Spanner.Certify.ok)
      verdict.Spanner.Certify.checks
  with
  | Some c -> Some (Cert_failed c.Spanner.Certify.name)
  | None -> (
      match (plan.Compile.budget_rounds, plan.Compile.workload) with
      | Some budget, _ when rounds > budget ->
          Some (Over_budget { rounds; budget })
      | _, None -> None
      | _, Some w -> (
          match serve_audit plan g r w with
          | exception e -> Some (Crashed (Printexc.to_string e))
          | a when Serve.Server.audit_ok a -> None
          | a ->
              Some
                (Serve_failed
                   {
                     sampled = a.Serve.Server.sampled;
                     failures = a.Serve.Server.failures;
                   })))

let run_plan ?metrics plan =
  let crashed e = empty_report plan (Crashed (Printexc.to_string e)) in
  match Compile.graph_of plan with
  | exception e -> crashed e
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
          | exception e -> crashed e
          | r -> (
              match Spanner.Skeleton_dist.certify ?metrics ~faults g r with
              | exception e -> crashed e
              | verdict ->
                  let stats = r.Spanner.Skeleton_dist.stats in
                  let rc = r.Spanner.Skeleton_dist.recovery in
                  {
                    plan;
                    outcome =
                      (match judge plan g r verdict with
                      | Some f -> Failed f
                      | None ->
                          Certified
                            r.Spanner.Skeleton_dist.repair
                              .Spanner.Skeleton_dist.outcome);
                    rounds = stats.Distnet.Sim.rounds;
                    messages = stats.Distnet.Sim.messages;
                    words = stats.Distnet.Sim.words;
                    spanner_edges =
                      Edge_set.cardinal r.Spanner.Skeleton_dist.spanner;
                    max_stretch = verdict.Spanner.Certify.max_stretch;
                    stretch_bound = verdict.Spanner.Certify.stretch_bound;
                    crashed = rc.Spanner.Skeleton_dist.crashed;
                    rejoined = verdict.Spanner.Certify.rejoined;
                    retransmissions = rc.Spanner.Skeleton_dist.retransmissions;
                    dead_letters = rc.Spanner.Skeleton_dist.dead_letters;
                  })))

let shrink ?max_evals report =
  match report.outcome with
  | Certified _ -> invalid_arg "Sweep.shrink: the report is certified"
  | Failed f ->
      let tag = failure_tag f in
      let fails p =
        match (run_plan p).outcome with
        | Failed f' -> failure_tag f' = tag
        | Certified _ -> false
      in
      Shrink.shrink ?max_evals ~fails report.plan

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
