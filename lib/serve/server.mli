(** The serving loop: answer query batches from the current
    {!Snapshot} while background repair prepares the next one, and
    swap atomically.

    The server holds one {e current} snapshot and a {e topology
    epoch}.  A batch ({!run}) answers from the snapshot that was
    current when it started: it reads the snapshot, its generation and
    its freshness once, since nothing can publish inside a batch.
    {!publish} replaces the snapshot in one assignment (OCaml
    guarantees the reference swap is atomic — a reader either sees
    the old generation or the new one, never a mix), and the old
    snapshot, being immutable, stays valid for any reader still
    holding it until it drains.  {!mark_dirty} advances the epoch when
    the underlying topology changes (churn landed, repair started):
    from then until the repaired snapshot is published, answers are
    {e stale} — correct for the generation that produced them, behind
    the live topology — and are counted as such, so staleness is a
    measured quantity rather than a hidden failure mode.

    Per-query latency is measured with the monotonic clock and
    recorded both in the returned report (exact percentiles via
    {!Util.Stats}; the whole nanosecond counts are sorted with an LSD
    radix sort, one or two passes for sub-4 ms latencies) and, when a
    registry is supplied, in the metrics sink: a [serve_latency_ns] histogram and [serve_answers] counters
    labeled by generation and freshness, plus [serve_failed] and
    [serve_swaps]. *)

type t

val create : ?metrics:Obs.Metrics.t -> Snapshot.t -> t
(** Serve from an initial snapshot ([metrics] defaults to
    {!Obs.Metrics.disabled}). *)

val snapshot : t -> Snapshot.t
val generation : t -> int
(** Generation of the current snapshot. *)

val epoch : t -> int
(** Current topology epoch; answers are stale while it exceeds
    {!generation}. *)

val swaps : t -> int

val mark_dirty : t -> unit
(** The served topology changed; serving continues from the current
    snapshot, now stale. *)

val publish : t -> Snapshot.t -> unit
(** Atomically swap in a rebuilt snapshot.  Its generation must
    exceed the current one; the epoch advances to at least that
    generation, so answers become fresh again.
    @raise Invalid_argument on a non-increasing generation. *)

(** {1 Batches} *)

type report = {
  answered : int;
  failed : int;  (** disconnected pairs / failed routes *)
  stale : int;
  elapsed_ns : int;  (** wall-clock for the whole batch *)
  latency_sorted : float array;  (** per-query ns, ascending *)
  by_generation : (int * int * int) list;
      (** (generation, fresh answers, stale answers), ascending *)
}

val run : ?first:int -> ?count:int -> t -> Workload.query array -> report
(** Answer [queries.(first .. first+count-1)] (defaults: the whole
    array) from the current snapshot, timing each query.  The report's
    [by_generation] has that snapshot's one entry, or none for an
    empty batch. *)

val merge : report list -> report
(** Combined report of consecutive batches (latencies re-sorted,
    per-generation tallies summed). *)

val run_swap :
  t -> Workload.query array -> rebuild:(unit -> Snapshot.t) -> report
(** The swap flow under churn: answer the first third of [queries]
    fresh, {!mark_dirty}, answer the second third stale, {!publish}
    [rebuild ()], answer the rest from the new snapshot, and {!merge}
    the three batches.  [rebuild] runs once, after the stale third,
    while the server's epoch is ahead of its generation.
    @raise Invalid_argument as {!publish} does. *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic summary lines (counts, generations, staleness) —
    no timings, so output is pinnable. *)

(** {1 Answer audit}

    Certify-style sampled ground truth: re-answer a sample of the
    workload and compare against exact BFS distances on the
    snapshot's own graph.  A distance answer must lie within
    [[d, (2k-1) d]]; a route must reach its target in at most [5 d]
    hops (the Cowen bound) and never beat [d]. *)

type audit = {
  sampled : int;  (** pairs audited *)
  failures : int;
  max_stretch : float;  (** worst answer / exact ratio observed *)
  dist_bound : float;  (** the oracle's [2k-1] *)
}

val audit_ok : audit -> bool

val audit :
  ?samples:int -> ?seed:int -> Snapshot.t -> Workload.query array -> audit
(** [samples] (default 64) queries are drawn with [seed] (default 1)
    from the workload and checked against BFS on
    [Snapshot.graph]. *)

val pp_audit : Format.formatter -> audit -> unit
