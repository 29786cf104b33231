(** Synchronous message-passing network simulator.

    This is the paper's computational model (Section 1.1): the
    communication network {e is} the input graph; computation proceeds
    in synchronized rounds; in each round a node may send one message
    to each neighbor; local computation is free.  Message length is
    measured in units of [O(log n)] bits — a "word" holds a vertex
    identifier, an edge identifier, or a small counter — which is the
    unit of the paper's Fig. 1 "message length" column.

    This module is the {e engine} alone: it enforces the model
    (neighbor-only unicast, one message per directed edge per round,
    word accounting) while the algorithm drives rounds explicitly with
    {!step} — this is how the multi-phase protocols (skeleton,
    Fibonacci balls) are written.  Node programs on a lossy network
    run on the ARQ runtime in {!Reliable}, which drives this engine and
    is itself driven the same way: its [step] takes the caller's
    per-node [receive] as this one takes the delivery callback.

    The engine can be driven over a faulty network: {!create}'s
    [?faults] plan ({!Fault.t}) injects message loss, duplication,
    bounded delay, node crashes — crash-stop, or {e crash-recovery}
    when the plan schedules a restart — and {e topology churn} (edges
    down/up, partitions, late joins), and [?tracer] records every
    network event into a {!Trace.t} for audit and deterministic replay.
    Both default to off, in which case behavior is bit-identical to the
    fault-free engine.

    Crash-recovery: a restarted node comes back with a fresh
    incarnation number.  Every envelope is stamped with the incarnation
    of both endpoints at send time, and delivery discards a message
    whose sender or addressee has since changed incarnation (traced as
    a [Drop Stale]) — a reborn node never consumes its predecessor's
    traffic.  Plans without restarts never consult incarnations, so
    crash-stop runs stay byte-identical to the crash-stop engine.

    Churn is applied between rounds: the scheduled actions of round [r]
    land at the start of round [r], before that round's deliveries.  A
    message in flight over a link that is down at its delivery round is
    dropped (and traced); a {!send} over a link that is {e already}
    down raises {!Link_down} — unlike a crash or a loss, the sender's
    own link state is locally observable, so churn-aware callers check
    {!link_up} first and treat a down link as loss. *)

type stats = Trace.stats = {
  rounds : int;  (** synchronous rounds executed *)
  messages : int;  (** messages transmitted (delivered, lost, or held) *)
  words : int;  (** total words transmitted *)
  max_message_words : int;  (** length of the longest single message *)
}

val pp_stats : Format.formatter -> stats -> unit

type 'msg t

exception Link_down of { round : int; src : int; dst : int }
(** Raised by {!send} when the link is down under the churn plan. *)

val create :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  Graphlib.Graph.t ->
  'msg t
(** [create ?faults ?tracer g] prepares an idle network on [g].
    [faults] defaults to {!Fault.none}, under which every observable
    behavior (deliveries, statistics, errors) is identical to the
    fault-free engine; [tracer] defaults to no recording.  Churn
    actions scheduled for round 0 are applied immediately, so they
    constrain the protocol's initial sends.  The engine's two send
    buffers are allocated here, with room for one message per
    directed link.

    [metrics] (default {!Obs.Metrics.disabled}) records, per {!step},
    histograms [sim_round_delivered_words] / [sim_round_dropped_words]
    / [sim_round_held_words], and a [link_words] counter per directed
    link (labels [src]/[dst], created at the link's first send).
    Metrics never affect deliveries, statistics, or the trace.

    [spans] (default {!Obs.Span.disabled}) records one causal span per
    transmission: opened at {!send} (ticking the sender's Lamport
    clock), closed as delivered at delivery time (first delivery wins
    for duplicated copies) or as dropped with the drop reason (loss,
    crashed destination, down link, unjoined destination).  A send
    refused before reaching the wire — crashed or unjoined sender —
    opens no span.  Like metrics, spans never affect behavior. *)

val round : 'msg t -> int
(** The current round number: 0 before the first {!step}, and during a
    delivery callback the round being delivered.  Protocols and the
    tracer read this instead of threading their own counter. *)

val send : 'msg t -> src:int -> dst:int -> words:int -> 'msg -> unit
(** Enqueue a message for delivery at the next {!step}.  The link is
    resolved on the graph's adjacency rows, in O(min degree).  If [src] has
    crash-stopped (or has not joined yet), the message is silently
    discarded (and traced as a drop) — a dead or absent node cannot
    put anything on the wire.
    @raise Link_down if the link is down under the churn plan: the
    sender can observe its own link state, so the refusal is loud.
    @raise Invalid_argument if [dst] is not a neighbor of [src], if
    [words < 1], or if [src] already sent to [dst] this round; the
    message names the current round and both endpoints. *)

val link_up : 'msg t -> src:int -> dst:int -> bool
(** The live-edge view: is the link up this round?  [true] whenever the
    plan schedules no churn.
    @raise Invalid_argument if [src]-[dst] is not a network link. *)

val edge_up : 'msg t -> int -> bool
(** {!link_up} by undirected edge identifier. *)

val step : 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> int
(** Advance one synchronous round: decide the fate of every queued
    message under the fault plan, deliver the surviving ones (and any
    held-back message whose delay expires this round) through the
    callback in deterministic order, and return the number delivered.
    Counts as one round even when nothing was queued.

    The order: first the held-back messages due this round, in the
    order they were held; then the messages queued for this round, in
    send order, a duplicate right after its original.  The fate of
    each queued message is drawn once, in that order.  A {!send} made
    from inside the callback is queued for the next step; the callback
    must not call [step] itself.  No message is allocated or hashed on
    the way: queued messages live in two reusable buffers, swapped at
    each step, and only a held-back message gets a record of its own.
    A step with nothing queued and no held message coming due
    allocates nothing. *)

val quiescent : 'msg t -> bool
(** No messages queued or held back for a later round. *)

val run_until_quiescent :
  ?max_rounds:int -> 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> unit
(** Repeated {!step} until no message is in flight.  The callback may
    {!send} further messages.  @raise Invalid_argument after
    [max_rounds] (default [10_000_000]) rounds; the message reports the
    current round, the statistics accumulated so far, and the endpoints
    of the head in-flight message (matching the send errors). *)

val stats : 'msg t -> stats

val take_window_max : 'msg t -> int
(** Length of the longest single message charged since the previous
    [take_window_max] (or since {!create}), and reset the window.
    Unlike the additive stats fields, a maximum cannot be attributed
    to a phase by differencing {!stats} snapshots — this is the
    reset-on-read window the per-phase instrumentation uses.  Reading
    it never affects {!stats}. *)
