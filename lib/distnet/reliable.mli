(** Reliable delivery over a lossy network: the one ARQ runtime.  A
    run is a value that its caller drives round by round, as it drives
    a bare {!Sim}: the caller's node program sends with {!send} and
    gets each visited node's deliveries through {!step}'s [receive].

    Per directed neighbor link the runtime runs stop-and-wait ARQ:
    outgoing messages are queued FIFO, transmitted one at a time with a
    sequence number, and retransmitted on a timeout with exponential
    backoff until acknowledged.  Acknowledgements are piggybacked on
    data traffic when possible and echoed on every (re)receipt, so a
    lost ack is repaired by the sender's retry.  The receiver keeps the
    set of delivered sequence numbers, making delivery to the node
    program idempotent under duplication and retransmission.

    Each link's state lives in a preallocated peer slot: the send
    queue (a ring), the in-flight seq and its payload, the acks owed
    (a count and the largest seq), and the delivered set as the next
    expected seq plus the seqs below it that were skipped — abandoned
    by the sender before they arrived, and still delivered once if a
    late copy does arrive.  A transmission allocates one frame and
    nothing else.

    Each wire message costs [1] word per carried ack plus, when data
    is present, [1] word of sequence number plus the payload's words
    ({!create}'s [words]) — so [Sim.stats] keeps honest word accounting
    including every retransmission.

    The retransmit timer is fixed, in rounds: the first timeout is 3,
    one past the loss-free ack round trip; each timeout doubles it up
    to 32 (counted in the [arq_backoff_escalations] metric when it
    grows); and after 12 retransmissions the next timeout abandons the
    transmission, e.g. to a crashed neighbor.  Abandonments are counted
    in {!dead_letters}, which bounds the run when a peer is gone
    forever, and the first one toward a peer writes that peer off:
    {!step} hands the write-off to its caller's [suspect].

    Timers are absolute: a seq sent or retransmitted at round [r] with
    timeout [rto] times out at round [r + rto], the round its node must
    be visited to fire it.  Between rounds each node keeps the earliest
    such deadline, so {!step} visits only the nodes with mail or
    due work; a skipped visit would have sent nothing and armed
    nothing.  The clock keeps running while a node is down: a node
    frozen by a crash and resumed with its state fires its overdue
    timers on its first round back, while a node started again
    ({!start}) begins afresh. *)

type 'm frame
(** An ARQ frame carrying ['m] payloads: the acks owed, as a count and
    the largest seq acknowledged, and at most one sequenced payload.  A
    frame from a peer can only complete the in-flight seq through its
    largest ack, since the in-flight seq is the newest its sender
    started; the count sets the frame's word cost. *)

type 'm t
(** One run carrying ['m] payloads: the engine, an ARQ endpoint per
    started node, and the inboxes.  Instruments and spans go to the
    sinks given to {!create}. *)

val create :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  words:('m -> int) ->
  Graphlib.Graph.t ->
  'm t
(** A run on a fresh engine ([Sim.create] with the same arguments)
    with no node started; [words m] is payload [m]'s length in words.
    [metrics] (default {!Obs.Metrics.disabled}) receives counters
    [arq_retransmissions] / [arq_dead_letters] / [arq_timer_fires] /
    [arq_backoff_escalations] and an [arq_ack_latency] histogram
    (rounds from a message's first transmission to its
    acknowledgement), created before the engine's instruments.
    [spans] (default {!Obs.Span.disabled}) receives one [Arq] span per
    stop-and-wait exchange, opened at the seq's first transmission and
    closed at its acknowledgement (dropped with reason ["dead-letter"]
    on abandonment), plus one [Retransmit] point-event per
    retransmission, linked via [parent] to the exchange it retried.
    Both are purely observational. *)

val net : 'm t -> 'm frame Sim.t
(** The engine: round, statistics and link state. *)

val start : 'm t -> int -> (int * 'm) list -> unit
(** [start rt v msgs] gives [v] a fresh endpoint and queues [msgs]
    (neighbor, payload), [v]'s first sends: their frames go out this
    round unless [v] is down.  Start the nodes present at round 0
    before the first {!step}.  A late joiner is started by {!step}'s
    [landed] hook in its join round, a revived node again in its
    restart round, and is visited in that same step. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Queue a message in [src]'s outbox, from the caller's [receive] or
    from outside it (a driver's own sends).  The outbox goes out at
    [src]'s next visit — for a send from [receive], in the same visit,
    right after [receive] returns.  It counts as pending work and keeps
    the link busy ({!link_idle}).
    @raise Invalid_argument if [src] was never started. *)

val step :
  'm t ->
  receive:(int -> senders:int array -> payloads:'m array -> int -> unit) ->
  landed:(int -> unit) ->
  suspect:(by:int -> int -> unit) ->
  unit
(** One round: the engine delivers into the inboxes; [landed round]
    runs (the caller starts the joins or revivals due this round);
    then every started node that is up and has mail or due work — an
    outbox, a timer at its deadline, or unanchored timers before its
    first visit — is visited behind the ARQ, in ascending order, and
    its frames go out.  A frame over a down link is dropped like a
    loss.

    A visit to node [v] calls [receive v ~senders ~payloads k] once:
    entry [i < k] of [senders] and [payloads] is the [i]-th (sender,
    payload) delivered this round, in arrival order.  Both arrays
    belong to the runtime: read them during the call, and nothing at
    or beyond [k].  [receive] must be {e message-driven}: with [k = 0]
    it sends nothing.  That is what lets the runtime skip a node with
    no mail, since such a visit would send nothing and arm no timer.

    Last, [suspect ~by w] runs once for each neighbor [w] that node
    [by] wrote off during this step: the first transmission [by]
    abandoned toward [w] since [by] started or last reset [w]
    ({!reset_peer}).  The calls come in visit order, and in [by]'s
    neighbor order within a visit; none comes while a visit runs.  In
    a crash-stop fault model a write-off is most often a crashed peer,
    so this is a failure detector: the fault-tolerant skeleton records
    each write-off in a {!Recovery.Detector} and scrubs [w] from
    [by]'s state as it does for a death notice.  It is not perfect: a
    try fails when either the frame or its ack is lost, so under
    independent loss [p] a live peer is written off with probability
    [(1 - (1 - p)^2)^13] per frame, about 1.7e-6 at [p = 0.2]
    (DESIGN.md §3, "Failure detection").  A build that sends millions
    of frames meets it; [cli.t] pins such a wedge at n = 2,000. *)

val idle : 'm t -> round:int -> bool
(** No message is in flight and no started node up at [round] has
    pending work.  Allocation-free. *)

type 'm endpoint
(** A started node's ARQ state. *)

val endpoint : 'm t -> int -> 'm endpoint
(** @raise Invalid_argument if the node was never started. *)

val retransmissions : 'm endpoint -> int
(** Data retransmissions this node has performed. *)

val dead_letters : 'm endpoint -> int
(** Transmissions this node abandoned after 12 retransmissions. *)

val link_idle : 'm endpoint -> int -> bool
(** No message queued, in the outbox or awaiting acknowledgement
    toward that neighbor (pending acks don't count).  Streaming
    protocols use this to pace batch emission: offering the next batch
    only on an idle link keeps their per-round word budget honest even
    though the ARQ layer, not the protocol, owns the wire. *)

val reset_peer : 'm endpoint -> round:int -> int -> unit
(** [reset_peer ep ~round w] forgets every ARQ session toward and from
    neighbor [w]: the in-flight transmission (its span dropped with
    reason ["session-reset"]), the send queue, sequence numbers (back
    to 0), the acks owed, the delivered seqs, and the write-off of [w],
    which the next abandonment toward [w] reports to {!step}'s
    [suspect] again.  The outbox stays.  Call it on both sides of a
    link when one endpoint restarts with a fresh incarnation — the
    reborn node must never consume its predecessor's acks, and its
    restarted sequence numbers must not be swallowed as duplicates.  A
    [w] that is not a neighbor is ignored. *)
