(** Distributed self-certification of a constructed skeleton.

    After {!Skeleton_dist} finishes — possibly over a faulty network,
    possibly having recovered from crash-stops — the output is not
    taken on faith: every node carries a {e witness} label and a
    certifier checks the labels against the spanner, in the tradition
    of proof-labeling schemes.  Three of the four checks are purely
    local (a vertex and its incident edges can evaluate them against
    its own label); the stretch check is the auditor's sampled global
    test of Theorem 2's bound.

    The checks:

    - {b subset} — every spanner edge is an edge of the input graph
      with sane endpoints ([S ⊆ G]);
    - {b forest} — every non-crashed vertex's hook edge (the edge to
      its last cluster-tree parent) is present in the spanner, is
      incident to both endpoints of the label, and the hook edges form
      no cycle: the cluster forest is well-formed.  Removing any tree
      edge from the spanner trips this check deterministically;
    - {b contribution} — each vertex kept at most
      [calls_alive + min(deg, 4 s_i ln n)] edges ([+ deg] instead when
      it executed an abort or crash recovery, which keep all incident
      edges): the per-vertex accounting behind Lemma 6's size bound;
    - {b stretch} — sampled BFS distances in the surviving graph
      [G \ crashed] versus the surviving spanner stay within
      Theorem 2's distortion bound, and no pair connected in
      [G \ crashed] is disconnected in the spanner.

    The Lemma 6 {e aggregate} size is reported as a ratio (measured /
    expected) but not enforced — Lemma 6 bounds an expectation, and a
    single run (or an adversarial graph such as a clique) can
    legitimately exceed it. *)

(** Per-vertex certification labels, recorded by the construction.
    For a crashed vertex the label is whatever was recorded before the
    crash; the certifier skips its local checks and removes the vertex
    from the stretch audit. *)
type witness = {
  parent : int array;  (** last cluster-tree parent; [-1] at roots *)
  parent_edge : int array;  (** edge to [parent]; [-1] at roots *)
  contributed : int array;  (** spanner edges first kept by this vertex *)
  calls_alive : int array;  (** [Expand] calls the vertex was live for *)
  kept_all : bool array;
      (** the vertex kept {e all} incident edges: the paper's abort
          rule, or orphan crash recovery *)
  crashed : bool array;  (** crash-stopped during the run, never revived *)
  rejoined : bool array;
      (** crashed, restarted, and reintegrated by the repair pass: the
          vertex is audited like any live vertex (its [crashed] flag is
          false) and counted in the verdict's [rejoined] *)
  max_abort_q : int;  (** largest [4 s_i ln n] threshold of the plan *)
}

type check = { name : string; ok : bool; detail : string }

type verdict = {
  checks : check list;  (** in order: subset, forest, contribution, stretch *)
  live : int;  (** non-crashed vertices *)
  pairs : int;  (** (source, target) pairs audited for stretch *)
  max_stretch : float;  (** worst sampled multiplicative stretch *)
  stretch_bound : float;  (** Theorem 2's bound for the plan's n, D, eps *)
  size_ratio : float;  (** measured size / Lemma 6 expectation (reported) *)
  components : int;  (** components of the surviving graph *)
  rejoined : int;  (** audited vertices that crashed and rejoined *)
}

val ok : verdict -> bool
(** Every check passed. *)

val stretch_bound : Plan.t -> float
(** Theorem 2's multiplicative distortion bound for the plan's
    [(n, D, eps)] — the same value the stretch audit checks against,
    exposed so downstream consumers (the serving layer, experiment
    tables) can report end-to-end bounds without re-deriving them. *)

val run :
  ?sources:int ->
  ?seed:int ->
  ?down_edge:(int -> bool) ->
  ?per_component:bool ->
  ?metrics:Obs.Metrics.t ->
  plan:Plan.t ->
  witness:witness ->
  Graphlib.Graph.t ->
  Graphlib.Edge_set.t ->
  verdict
(** [run ~plan ~witness g spanner] certifies the output.  [sources]
    (default 8) BFS sources are drawn with [seed] (default 1) among
    the non-crashed vertices for the stretch audit; all their
    reachable pairs are checked.

    [down_edge] (default: none) marks edges the topology churn left
    down: they are excluded from both sides of the stretch comparison
    — the audit is of the spanner against the graph that actually
    survives — and a witness hook over a down edge fails the forest
    check.

    [per_component] (default false): guarantee at least one BFS source
    in every component of the surviving graph before spending the rest
    of the budget on shuffled extras.  A source never audits across a
    cut (pairs unreachable in the surviving graph are skipped), so
    after a partition this is what certifies each island separately —
    without it a small component can escape the audit entirely.

    [metrics] (default {!Obs.Metrics.disabled}) counts each check's
    outcome into a [certify_checks] counter labeled
    [check]/[outcome] (pass or fail). *)

val pp : Format.formatter -> verdict -> unit
(** Human-readable multi-line report. *)
