(** The resilience sweep: sample a scenario family, run every sample
    through build + certify + (optionally) serve, and aggregate one
    report.

    Each sample becomes a {!Compile.plan}, is run through
    {!Spanner.Skeleton_dist.build} over the plan's fault plan, and is
    judged:

    - a run that gets {b stuck}, exceeds the plan's {b round budget},
      fails {b certification} ({!Spanner.Skeleton_dist.certify}:
      subset/forest/contribution/stretch, per component under churn
      or restarts), or fails the {b serve audit} of its
      workload is a FAIL carrying the reason;
    - otherwise the run lands on the repair ladder
      ([intact]/[patched]/[degraded]/[partitioned]) — all four rungs
      are survivals, counted separately because they cost different
      amounts of size and service.

    Runs are deterministic, so a FAIL is exactly reproducible from its
    plan, and {!shrink} minimizes it. *)

(** Why a run failed. *)
type failure =
  | Stuck_phase of string  (** {!Spanner.Skeleton_dist.Stuck} *)
  | Over_budget of { rounds : int; budget : int }
  | Cert_failed of string  (** first failing certification check *)
  | Serve_failed of { sampled : int; failures : int }
      (** workload answers outside the oracle bound *)
  | Crashed of string  (** unexpected exception *)

val failure_tag : failure -> string
(** Stable short label ([stuck], [over-budget], [certify:NAME],
    [serve-audit], [error]) — the attribution key in metrics and
    JSON. *)

type outcome = Certified of Spanner.Skeleton_dist.repair_outcome | Failed of failure

type report = {
  plan : Compile.plan;
  outcome : outcome;
  rounds : int;
  messages : int;
  words : int;
  spanner_edges : int;  (** [0] when the build never finished *)
  max_stretch : float;  (** worst sampled stretch; [0.] if unchecked *)
  stretch_bound : float;
  crashed : int;  (** nodes crash-stopped by the plan *)
  rejoined : int;  (** nodes that restarted and were reintegrated *)
  retransmissions : int;
  dead_letters : int;
}

val run_plan : ?metrics:Obs.Metrics.t -> Compile.plan -> report
(** One sample, end to end.  Never raises: every exception becomes a
    [Failed] outcome.  [metrics] flows into certification
    ([certify_checks]); the sweep-level counters below are the
    caller's ({!run}'s) business. *)

val shrink : ?max_evals:int -> report -> Shrink.result
(** Minimize a FAILed report's plan with {!Shrink.shrink}: a candidate
    plan fails when {!run_plan} FAILs it with the same {!failure_tag}.
    [max_evals] is {!Shrink.shrink}'s.
    @raise Invalid_argument on a certified report. *)

type aggregate = {
  scenario : string;
  samples : int;
  intact : int;
  patched : int;
  degraded : int;
  partitioned : int;
  failures : report list;  (** FAILed samples, in sample order *)
  worst_rounds : int;
  worst_words : int;
  worst_size : int;
  worst_stretch : float;
  stretch_bound : float;
}

val failed : aggregate -> int

val run :
  ?metrics:Obs.Metrics.t ->
  Spec.t ->
  samples:int ->
  aggregate
(** Compile and run samples [0 .. samples-1].  With an enabled [metrics]
    registry the sweep records one [sweep_runs] counter per
    (scenario, outcome) and, per failing run, a
    [sweep_fail_ingredients] counter per active fault ingredient
    ([iid-loss], [bursty-loss], [dup], [delay], [crash], [churn],
    [budget]) — the per-distribution attribution of failures. *)

val pp : Format.formatter -> aggregate -> unit
(** Deterministic multi-line summary (no timings). *)

val to_json : aggregate -> string
(** One [{"kind":"sweep",...}] JSON line, failures inlined with their
    reasons. *)
