(** Reliable delivery over a lossy network: an ack/retransmit wrapper
    that lifts any {!Sim.PROTOCOL} node program onto a faulty network
    unchanged.

    Per directed neighbor link the wrapper runs stop-and-wait ARQ:
    outgoing inner-protocol messages are queued FIFO, transmitted one
    at a time with a sequence number, and retransmitted on a timeout
    with exponential backoff until acknowledged.  Acknowledgements are
    piggybacked on data traffic when possible and echoed on every
    (re)receipt, so a lost ack is repaired by the sender's retry.  The
    receiver tracks seen sequence numbers, making delivery to the
    inner protocol idempotent under duplication and retransmission.

    Each wire message costs [1] word per carried ack plus, when data
    is present, [1] word of sequence number plus the inner payload's
    words — so [Sim.stats] keeps honest word accounting including
    every retransmission.

    A transmission abandoned after {!max_retries} unacknowledged tries
    (e.g. to a crashed neighbor) is counted in {!dead_letters}; this
    bounds the run when a peer is gone forever.

    Timers are absolute: a seq sent or retransmitted at round [r] with
    timeout [rto] times out at round [r + rto], the round its
    [receive] must run to fire it.  Between rounds a node keeps the
    earliest such deadline, so a driver can ask {!Make.due} and skip a
    node that has no mail, no outbound message and no timer due: the
    skipped [receive] would have sent nothing and armed nothing.  The
    clock keeps running while a node is down; a node frozen by a crash
    and resumed (as {!Sim.Run_active} does) fires its overdue timers
    on its first round back. *)

(** Retransmission policy (rounds are the time unit). *)

(** The retransmit-timer policy, shared by every instantiation of
    {!Make} (the ARQ is a property of the network, not of one
    protocol).  On each timeout the timer grows by the [backoff]
    factor (truncated), capped at [max_rto]; [backoff = 1.] is a fixed
    retransmit interval.  Timeouts that actually grow the window are
    counted in the [arq_backoff_escalations] metric. *)
type config = {
  initial_rto : int;  (** first timeout, rounds; must be [>= 1] *)
  max_rto : int;  (** backoff ceiling; must be [>= initial_rto] *)
  max_retries : int;  (** tries before a dead letter; must be [>= 1] *)
  backoff : float;  (** timer growth per timeout; must be [>= 1.] *)
}

val default_config : config
(** [{initial_rto = 3; max_rto = 32; max_retries = 12; backoff = 2.}] —
    the historical constants: first timeout one round past the
    loss-free ack round trip, classic doubling.  Runs that never call
    {!set_config} are byte-identical to runs before the policy became
    configurable. *)

val config : unit -> config
(** The policy currently in force. *)

val set_config : config -> unit
(** Install a policy for subsequent runs.  Affects every {!Make}
    instantiation; call before [Sim.create]/[run], not mid-run: an
    in-flight exchange keeps the deadline it was armed with, so a
    mid-run change would mix policies.
    @raise Invalid_argument naming the offending field if the config
    violates the bounds above. *)

val initial_rto : int
(** First timeout of {!default_config}: [3] rounds. *)

val max_rto : int
(** Backoff ceiling of {!default_config}: [32] rounds. *)

val max_retries : int
(** Retransmissions before a message is abandoned, by default: [12]. *)

module Make (P : Sim.PROTOCOL) : sig
  include Sim.ACTIVE_PROTOCOL

  val use_metrics : Obs.Metrics.t -> unit
  (** Route this instantiation's instruments into the given registry
      (network-wide aggregates): counters [arq_retransmissions] /
      [arq_dead_letters] / [arq_timer_fires] and an [arq_ack_latency]
      histogram (rounds from a message's first transmission to its
      acknowledgement).  Defaults to the no-op sink; call again with
      {!Obs.Metrics.disabled} to turn recording back off.  Purely
      observational — never changes protocol behavior. *)

  val use_spans : Obs.Span.t -> unit
  (** Route this instantiation's causal spans into the given sink: one
      [Arq] span per stop-and-wait exchange, opened at the seq's first
      transmission and closed at its acknowledgement (dropped with
      reason ["dead-letter"] on abandonment), plus one [Retransmit]
      point-event per retransmission, linked via [parent] to the
      exchange it retried.  Defaults to the no-op sink; call again
      with {!Obs.Span.disabled} to turn recording back off.  Purely
      observational — never changes protocol behavior. *)

  val inner : state -> P.state
  (** The wrapped protocol's state at this node. *)

  val retransmissions : state -> int
  (** Data retransmissions this node has performed. *)

  val dead_letters : state -> int
  (** Transmissions this node abandoned after {!max_retries}. *)

  val due : state -> round:int -> bool
  (** Must this node's [receive] run at [round] even with an empty
      inbox?  True when an in-flight seq's deadline is [<= round] — a
      retransmission or a dead letter is due — and, before the node's
      first [receive], whenever [init] put a seq in flight ([init] has
      no round, so its timers are anchored on that first call).  A
      [receive] with an empty inbox, nothing newly queued by the inner
      protocol and [due = false] is a no-op: it sends nothing and
      fires or arms no timer. *)

  val link_idle : state -> int -> bool
  (** No inner message queued or awaiting acknowledgement toward that
      neighbor (pending acks don't count).  Streaming protocols use
      this to pace batch emission: offering the next batch only on an
      idle link keeps their per-round word budget honest even though
      the ARQ layer, not the protocol, owns the wire. *)

  val suspected : state -> int list
  (** Neighbors to which at least one transmission was abandoned.  In
      a crash-stop fault model an abandoned transmission is (whp) a
      crashed peer — after {!max_retries} tries the probability that
      independent per-message loss ate every copy is negligible — so
      this doubles as the failure detector that {!Recovery} and the
      fault-tolerant skeleton consume. *)

  val reset_peer : state -> round:int -> int -> unit
  (** [reset_peer st ~round w] forgets every ARQ session toward and
      from neighbor [w]: the in-flight transmission (its span dropped
      with reason ["session-reset"]), the send queue, sequence numbers
      (back to 0), pending and remembered acks, the receive-side dedup
      table, and [w]'s entry in {!suspected}.  Call it on both sides
      of a link when one endpoint restarts with a fresh incarnation —
      the reborn node must never consume its predecessor's acks, and
      its restarted sequence numbers must not be swallowed as
      duplicates.  Callers that consume {!suspected} as a positional
      delta must re-baseline their cursor afterwards.  A [w] that is
      not a neighbor is ignored. *)
end
