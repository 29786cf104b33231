(** Deterministic fault plans for the network simulator.

    A fault plan decides, for every message the engine processes, its
    {e fate}: delivered as-is, lost, duplicated, or held back a bounded
    number of rounds — plus a crash-stop schedule for nodes and a
    {e churn plan} for the topology itself (edges going down and up,
    link partitions with an optional heal round, late node joins).  All
    random decisions come from a {!Util.Prng} stream seeded once, so a
    run is reproducible from [(graph seed, fault seed)] alone; a
    {!scripted} plan takes its decisions from a recorded {!Trace}
    instead, which is how replay reproduces a run bit-for-bit.

    Crash-recovery semantics: a node with crash round [r] participates
    fully in rounds [< r]; from round [r] on it neither sends nor
    receives.  Messages it put on the wire in round [r - 1] are still
    delivered (they had already left the node).  A node may additionally
    carry a {e restart} entry [(v, r')] with [r' > r]: it comes back at
    the start of round [r'] with a fresh {e incarnation number}, and the
    engine discards any message sent by or addressed to the old
    incarnation.  Without a restart entry the crash is permanent
    (crash-stop, the pre-existing model).

    Churn semantics: the engine applies the scheduled actions of round
    [r] at the start of round [r], before any delivery of that round.
    A message in flight (including one held back by a delay fate) over
    a link that is down at its delivery round is dropped.  A node with
    join round [r] is absent before [r]: it neither sends nor receives,
    and messages addressed to it are dropped. *)

type t

(** One scheduled topology change.  Edges are named by their endpoints
    [(u, v)] (order irrelevant) and must exist in the graph the plan is
    used with — {!make} validates them when given the graph. *)
type churn_event =
  | Edge_down of { round : int; u : int; v : int }
      (** the link [u]-[v] goes down at the start of [round] *)
  | Edge_up of { round : int; u : int; v : int }
      (** the link comes (back) up at the start of [round] *)
  | Partition of { round : int; edges : (int * int) list; heal : int option }
      (** a set of links goes down together; with [heal = Some r'] they
          all come back at [r'] ([r' > round] required) *)
  | Join of { round : int; node : int }
      (** the node first appears at the start of [round] ([round >= 1]) *)

type spec = {
  drop : float;  (** per-message loss probability, in [0,1] *)
  dup : float;  (** probability a delivered message arrives twice *)
  delay : float;  (** probability a message is held back *)
  max_delay : int;  (** held-back messages wait uniform [1..max_delay] rounds *)
  crashes : (int * int) list;  (** [(node, round)] crash schedule *)
  restarts : (int * int) list;
      (** [(node, round)] restart schedule: each node must also appear
          in [crashes] with an earlier round, and comes back at the
          start of its restart round with incarnation 1 *)
  churn : churn_event list;  (** topology changes, applied between rounds *)
  drop_profile : (int * float) list;
      (** piecewise-constant loss-rate schedule overriding [drop]:
          segment [(r, p)] makes the per-message loss probability [p]
          from round [r] until the next segment's round.  Rounds before
          the first segment use [drop]; the empty list means [drop]
          throughout.  This is how bursty (Gilbert–Elliott) loss
          compiles down to a plan: one segment per channel state
          change. *)
}

val default_spec : spec
(** All rates zero, no crashes, no churn: [make ~seed default_spec]
    behaves exactly like {!none}. *)

(** The fate of one processed message. *)
type fate =
  | Lost
  | Pass of { dup : bool; delay : int }  (** [delay = 0] means deliver now *)

val none : t
(** The loss-free plan: every fate is [Pass {dup = false; delay = 0}],
    nothing crashes, the topology is static, and no PRNG is consulted.
    This is the default of [Sim.create] and preserves the seed engine's
    behavior exactly. *)

val make : seed:int -> ?graph:Graphlib.Graph.t -> spec -> t
(** A randomized plan drawing i.i.d. per-message decisions from a
    fresh [Util.Prng] stream.  When [graph] is given, every vertex and
    edge the crash/churn schedules reference is checked against it.
    @raise Invalid_argument if a rate is outside [0,1], [max_delay < 1]
    while [delay > 0], a crash round or crash node is negative, the
    same node has two crash entries, a churn event references a negative round or (given
    [graph]) a vertex or edge the graph does not have, a partition is
    empty or heals no later than it starts, a node has two join
    entries or a join round [< 1], a restart names a node without a
    crash entry, restarts no later than that node's crash round, has a
    duplicate entry, or (given [graph]) references a vertex the graph
    does not have, or a [drop_profile] segment has a negative round, a
    rate outside [0,1], or a round not strictly after its
    predecessor's.  Churn, restart, and profile rejections name the
    offending event/segment index and field. *)

val scripted : Trace.event list -> t
(** A plan that replays the decisions recorded in a trace: the fate of
    the message processed at [(round, src, dst)] is rebuilt from that
    trace's [Drop Loss]/[Dup]/[Delay] events, the crash and restart
    schedules from its [Crash]/[Restart] events, and the churn plan
    from its [Edge_down]/[Edge_up]/[Join] events (partition/heal
    markers are informational: each partitioned link is also traced as
    its own edge event; stale-incarnation drops are schedule-induced
    and re-derived).  Messages with no recorded fault event pass
    through untouched, so replaying a trace on the same graph and
    protocol reproduces the original run bit-for-bit. *)

val random_crashes :
  seed:int -> n:int -> frac:float -> max_round:int -> (int * int) list
(** A random crash-stop schedule for [crashes]: each node [0 .. n-1],
    in ascending order, crashes with probability [frac] at a round
    uniform in [1 .. max_round], all drawn from one {!Util.Prng}
    stream seeded with [seed].  The same arguments give the same list.
    @raise Invalid_argument if [frac] is outside [0,1] or
    [max_round < 1]. *)

val churn_of_trace : Trace.event list -> churn_event list
(** The churn events a recorded trace contains
    ([Edge_down]/[Edge_up]/[Join], in trace order) — for feeding one
    run's topology history into another run's churn plan
    (the CLI's [--churn-trace]). *)

val is_none : t -> bool
(** [true] only for {!none} — lets the engine skip fault bookkeeping
    entirely on the loss-free fast path. *)

val fate : t -> round:int -> src:int -> dst:int -> fate
(** The fate of the message from [src] to [dst] processed in [round].
    Consumes PRNG state on randomized plans: the engine must call it
    exactly once per processed message, in deterministic order. *)

val crashed : t -> round:int -> int -> bool
(** [crashed t ~round v]: is [v] down at [round]?  True on the
    half-open interval [crash_round, restart_round) — or from the crash
    round on forever when the node has no restart entry.

    This, {!incarnation} and {!joined} read per-node arrays: no hashing
    and no allocation.  An id the plan does not list — including one
    beyond the largest listed id, or a negative one — has no event:
    never crashed, incarnation [0], joined. *)

val incarnation : t -> round:int -> int -> int
(** [incarnation t ~round v]: the incarnation of [v] current at
    [round] — [0] before its restart round (including forever for
    nodes that never restart), [1] from the restart round on. *)

val crash_schedule : t -> (int * int) list
(** [(round, node)] pairs sorted by round — the engine uses this to
    emit [Crash] trace events as the rounds are reached. *)

val restart_schedule : t -> (int * int) list
(** [(round, node)] pairs sorted by round — the engine uses this to
    emit [Restart] trace events as the rounds are reached. *)

val has_restarts : t -> bool
(** Does the plan schedule any restart at all?  [false] keeps the
    engine on the crash-stop fast path, byte-identical to before the
    crash-recovery model existed. *)

val last_restart_round : t -> int
(** The latest scheduled restart round ([0] when none) — lets a driver
    idle the engine forward until every reborn node is back. *)

(** {1 Churn schedule}

    The engine consumes the normalized schedule below; protocol code
    normally only needs {!joined} (and [Sim.link_up] for edges). *)

(** One normalized scheduled action.  A [Partition] churn event
    appears as one [Act_partition] (the engine downs each link and
    traces the marker) and, when healing, one later [Act_heal]. *)
type action =
  | Act_edge_down of { u : int; v : int }
  | Act_edge_up of { u : int; v : int }
  | Act_partition of { links : (int * int) list; heal : int option }
  | Act_heal of { links : (int * int) list }
  | Act_join of int

val churn_schedule : t -> (int * action) list
(** [(round, action)] pairs sorted by round (stable within a round). *)

val has_churn : t -> bool
(** Does the plan schedule any topology change at all? *)

val last_churn_round : t -> int
(** The latest scheduled churn round ([0] for a static topology) —
    lets a driver idle the engine forward until all churn has landed. *)

val join_schedule : t -> (int * int) list
(** [(round, node)] pairs sorted by round, one per late joiner. *)

val joined : t -> round:int -> int -> bool
(** [joined t ~round v]: is [v] present at [round]?  Always [true] for
    nodes without a join entry. *)
