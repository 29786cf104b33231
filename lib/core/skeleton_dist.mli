(** Distributed implementation of the Section 2 skeleton algorithm on
    the {!Distnet.Sim} engine (the construction behind Theorem 2), with
    crash recovery and self-certification.

    Every original vertex is a network node.  The schedule ({!Plan})
    depends only on [n, D, eps], so all nodes know it; the random tape
    ({!Sampling}) is each node's private coin flips, drawn before the
    first round as the paper prescribes.  Each [Expand] call runs as a
    sequence of message phases, each an explicit resumable state
    machine whose completion is tracked by per-node waiting sets (not
    network quiescence, which loss would defeat):

    + {b exchange} — every live node tells each live neighbor its
      cluster center and that center's first-unsampled call index
      (2 words); at the exchange boundary every node also checkpoints
      that identity;
    + {b convergecast} — inside each contracted vertex whose cluster
      went unsampled, candidate crossing edges to sampled clusters
      flow up the [p1] tree, min edge id winning (3 words);
    + {b decision wave} — the center broadcasts the winning edge down
      marked on-path/off-path, nodes update their [p2] pointers exactly
      as in the paper's Fig. 4 and re-register with their new parent;
    + {b dying} — a contracted vertex with no sampled neighbor streams
      its deduplicated (cluster, edge) list to the center in batches of
      at most the word budget, the center either aborts (list longer
      than [4 s_i ln n]: keep every incident crossing edge) or
      broadcasts the chosen min edge per cluster back down;
    + {b death notices} — one final word per boundary edge.

    Between rounds each node locally promotes [p2] to [p1]
    (contraction costs no communication).

    {b Fault tolerance.}  A build picks its transport once, before any
    protocol code runs: the bare engine when [faults] is
    {!Distnet.Fault.none}, and otherwise the {!Distnet.Reliable}
    stop-and-wait ARQ on every link, which makes delivery exact-once
    under loss, duplication and delay, and whose abandoned
    transmissions double as a crash-stop failure detector.  A
    node learns that a neighbor is gone in three ways — an ARQ
    write-off, a [Dead] notice, or the write-off a revival forces — and
    handles all three alike: it stops waiting on the neighbor and
    forgets it as a tree child.  A node whose cluster-tree parent ([p1]
    or [p2]) is gone executes the {e orphan abort}: it restores its
    exchange-boundary checkpoint (if it has committed one), keeps
    {e all} its incident live edges (the paper's abort rule widened to
    intra-cluster edges — a crash can sever the cluster tree itself;
    see DESIGN.md), cascades the abort to its own subtree, and leaves
    the algorithm at the call's death-notice phase.  Crashes are meant
    to cost spanner {e size} (the recovered edges), never {e stretch};
    [cli.t] and [sweep.t] pin the crash schedules that still break it.
    On either transport, with no fault to mask, the produced spanner
    is {e edge for edge identical} to {!Skeleton.build_with} on the
    same tape, and the ARQ retransmits nothing — the test suite relies
    on this.

    The construction also records the per-vertex {!Certify.witness}
    labels, so any output can be independently certified after the
    fact. *)

(** What fault recovery did during the run (all zero on a loss-free
    network). *)
type recovery_report = {
  crashed : int;  (** nodes crash-stopped by the fault plan *)
  orphaned : int;  (** nodes that executed the orphan abort *)
  recovered_edges : int;  (** extra edges kept by orphan aborts *)
  checkpoints : int;  (** phase-boundary checkpoint commits *)
  retransmissions : int;  (** ARQ data retransmissions, all nodes *)
  dead_letters : int;  (** ARQ transmissions abandoned, all nodes *)
}

(** How well the spanner survived topology churn — the degradation
    ladder.  [Intact]: no spanner edge was affected.  [Patched]: local
    repair rehooked every detached fragment and substituted every dead
    crossing edge.  [Degraded]: at least one fragment fell back to the
    keep-all abort (size grows, stretch holds).  [Partitioned k]: the
    live graph itself has [k] components; repair patched each side
    independently, and certification must run per component. *)
type repair_outcome = Intact | Patched | Degraded | Partitioned of int

val pp_outcome : Format.formatter -> repair_outcome -> unit

(** What the incremental repair pass did after the last churn event or
    restart ([Intact], one component and all counts zero on a churn-
    and restart-free run). *)
type repair_report = {
  outcome : repair_outcome;
  dead_spanner_edges : int;  (** spanner edges swept because down *)
  rehooked : int;  (** fragments re-attached by the repair wave *)
  replaced_edges : int;  (** substitute edges for dead crossing edges *)
  keep_all_fallbacks : int;  (** fragments degraded to keep-all *)
  repair_rounds : int;  (** engine rounds spent repairing *)
  components : int;  (** live-graph components after churn *)
  rejoined : int;
      (** restarted nodes reintegrated by this pass — rehooked,
          still attached, or degraded to keep-all; each is audited by
          {!Certify.run} like any live vertex *)
}

(** A phase that can make no further progress: the round limit was hit,
    or the transport drained with every probe already answered.  Either
    a protocol bug or a fault plan outside the recoverable envelope —
    e.g. a partition that never heals.  [waiting_on] lists the
    (waiter, awaited-peer) links still open, which under a partition
    names the links crossing the cut. *)
exception
  Stuck of {
    phase : string;
    waiting_on : (int * int) list;
    stats : Distnet.Sim.stats;
  }

type result = {
  spanner : Graphlib.Edge_set.t;
  plan : Plan.t;
  aborts : int;  (** the paper's abort rule firings (not orphan aborts) *)
  stats : Distnet.Sim.stats;
  witness : Certify.witness;  (** labels for {!Certify.run} *)
  recovery : recovery_report;
  repair : repair_report;
  dead_edges : int list;  (** edge ids still down when the run ended *)
}

val build :
  ?d:int ->
  ?eps:float ->
  ?faults:Distnet.Fault.t ->
  ?tracer:Distnet.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  ?phase_round_limit:int ->
  seed:int ->
  Graphlib.Graph.t ->
  result

val build_with :
  ?faults:Distnet.Fault.t ->
  ?tracer:Distnet.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  ?phase_round_limit:int ->
  plan:Plan.t ->
  sampling:Sampling.t ->
  Graphlib.Graph.t ->
  result
(** [metrics] (default {!Obs.Metrics.disabled}) attributes the run's
    cost per phase: counters [phase_rounds] / [phase_messages] /
    [phase_words] and a [phase_max_message_words] gauge under a
    ["phase"] label (exchange, convergecast, wave, notify, dying,
    final, death-notices, the repair-* phases, churn-forward, and a
    catch-all [post]), accounted as deltas of the engine statistics so
    the rows sum exactly to the run's [stats]; per-cluster
    [cluster_edges_kept] counters; end-of-run recovery counters
    ([skeleton_checkpoint_commits], [skeleton_orphan_aborts],
    [skeleton_recovered_edges], [skeleton_suspicion_events],
    [skeleton_aborts]); plus everything {!Distnet.Sim} and the ARQ
    layer record.  Purely observational: enabling metrics never
    changes the spanner, the statistics, or the trace.

    [spans] (default {!Obs.Span.disabled}) records the run's causal
    structure into the sink: one [Phase] span per [record_phase]
    boundary above — same boundaries, same names as the stats deltas,
    so the phase spans partition [(0, stats.rounds]] — each parented
    to a [Call] span covering its Expand call; one [Cluster] span per
    deciding center and call (open from the exchange boundary to the
    wave boundary, or the final boundary for a dying center); plus
    every message and ARQ span the transport records.  Equally
    observational: enabling spans never changes the run.

    When {!repairs} holds for the fault plan, the run fast-forwards
    past the last churn event and restart once the schedule completes,
    and executes the incremental repair pass (see {!repair_report}).
    Under churn, down links look like loss to the ARQ and ripen into
    suspicions if they stay down past the retry horizon.

    With a restart-carrying fault plan (crash-recovery), a node whose
    restart round arrives is revived with a fresh incarnation: its ARQ
    sessions are reset on both sides of every incident link, its
    exchange-boundary checkpoint (if it committed one before crashing)
    is restored, and every neighbor that
    had not yet written it off is forced to now (the crash severed
    their sessions, so the abandonment that would have ripened into a
    suspicion died with the reset).  The reborn node is engine-live
    but stays out of the call machinery; the repair pass reintegrates
    it — re-hooked, still attached, or keep-all — and reports it in
    [rejoined].  The failure detector retracts its suspicion on the
    first message delivered from the new incarnation.  [phase_round_limit] bounds
    the rounds any one phase may spend (default [10_000 + 500 n]).

    @raise Stuck if a phase cannot complete and probing the awaited
    peers produces no new crash suspicions — either a protocol bug or
    a fault plan outside the recoverable envelope (e.g. a partitioned
    link that never heals); the payload names the stuck phase. *)

val repairs : Distnet.Fault.t -> bool
(** Whether a build under this fault plan runs the repair pass after
    its calls (the plan has crashes, churn or restarts).  {!certify}
    follows it. *)

val certify :
  ?metrics:Obs.Metrics.t ->
  faults:Distnet.Fault.t ->
  Graphlib.Graph.t ->
  result ->
  Certify.verdict
(** [certify ~faults g r] runs {!Certify.run} on the output of a build
    of [g] under [faults], against the topology that survived the run.
    When [repairs faults] holds, the repair pass ran: the edges in
    [r.dead_edges] are excluded as [down_edge], and [per_component]
    gives every component of the surviving graph a BFS source.
    Otherwise certification runs with neither.  [metrics] is passed
    through.  To certify a modified spanner, pass
    [{ r with spanner }]. *)
