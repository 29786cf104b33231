(** Sampling a scenario family into one concrete, replayable plan.

    [compile spec ~sample] draws every probabilistic ingredient of the
    spec — storm seeds and contagion, link-flap schedule, bursty-loss
    segments — from a PRNG derived from [(spec.graph_seed, sample)]
    alone, producing a {!plan}: a fully explicit
    {!Distnet.Fault.spec} plus the graph parameters, fault seed, and
    workload needed to re-run it.  The same spec and sample always
    compile to the same plan, byte for byte ({!to_string} is
    canonical), which is what makes a shrunk failing plan a durable
    reproducer: the plan file, not the scenario, is the artifact a
    bug report carries. *)

type plan = {
  scenario : string;  (** the spec this was sampled from *)
  sample : int;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;  (** concrete per-sample seed *)
  fault_seed : int;  (** seeds the engine's per-message decisions *)
  fspec : Distnet.Fault.spec;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
  workload_seed : int;
}

val graph_of : plan -> Graphlib.Graph.t
(** Regenerate the plan's graph through {!Graphlib.Gen.generate}, like
    the CLI's [--kind].  @raise Invalid_argument on an unknown kind,
    which {!parse} rejects. *)

val compile : Spec.t -> sample:int -> plan
(** Sample number [sample] of the family.  Graph-dependent draws
    (storm contagion, which link flaps) regenerate the graph
    internally.  @raise Invalid_argument on a spec {!Spec.validate}
    rejects. *)

val faults : graph:Graphlib.Graph.t -> plan -> Distnet.Fault.t
(** The plan's engine-ready fault plan — [Fault.make] on the plan's
    spec and seed, validated against the graph. *)

(** {1 Plan files}

    Line-oriented like scenario specs ([#plan v1] header); one fault
    ingredient per line, crash and churn events one per line so a
    shrinker's diff is a line diff. *)

val to_string : plan -> string
(** Canonical: [parse ~file (to_string p) = p], same bytes for the same
    plan. *)

val parse : file:string -> string -> plan
(** Parse [text], named [file] in errors.  @raise Util.Lines.Parse_error
    at the first malformed line, or after the last line when there is
    no [graph] line. *)

val load : string -> plan
(** {!parse} a plan file. *)

val save : plan -> string -> unit
