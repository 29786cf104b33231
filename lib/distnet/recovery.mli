(** Crash recovery building blocks for multi-phase protocols.

    Two pieces, both deliberately protocol-agnostic so any phased
    construction on {!Sim} can reuse them:

    - {!Checkpoints} — a per-node store of phase-boundary snapshots.  A
      protocol commits an immutable projection of each node's state
      whenever a phase completes; when a node must later recover
      — typically because a peer it depended on crash-stopped mid-phase
      — it restores the snapshot instead of trusting half-updated
      in-phase state.  In the skeleton construction the snapshot is the
      exchange-boundary view (cluster identity and crossing edges),
      which is exactly what the paper's abort rule needs.
    - {!Detector} — a crash-stop failure detector merging the two
      honest information sources a node has: transport-level suspicion
      (a write-off that {!Reliable.Make.step} hands its caller: a
      transmission abandoned after 12 retransmissions means the peer is
      whp gone) and protocol-level death notices (a [Dead]
      message from a peer that left the algorithm gracefully).  The
      two are tracked separately — a suspected node {e crashed} (its
      state is lost, its incident edges may be missing from the
      output) while a notified node died {e cleanly} (its contribution
      is complete).  *)

(** {1 Phase-boundary checkpoints} *)

module Checkpoints : sig
  type 'st t

  val create : n:int -> 'st t
  (** A store for [n] nodes.  It keeps the snapshots as given, so
      commit immutable ones. *)

  val commit : 'st t -> int -> 'st -> unit
  (** [commit t v st] records [st] as node [v]'s state at a phase
      boundary, replacing any earlier checkpoint. *)

  val restore : 'st t -> int -> 'st option
  (** The latest committed snapshot of a node, if any. *)

  val commits : 'st t -> int
  (** Total number of [commit] calls (checkpointing traffic, for
      reporting). *)
end

(** {1 Crash-stop failure detection} *)

module Detector : sig
  type t

  val create : n:int -> t

  val suspect : t -> int -> unit
  (** Transport-level: a transmission to this node was abandoned. *)

  val note_death : t -> int -> unit
  (** Protocol-level: this node announced its own (clean) death. *)

  val unsuspect : t -> int -> unit
  (** Crash-recovery: a message from this node arrived after it was
      suspected, so the suspicion belonged to a previous incarnation —
      return it to [Up].  A node that announced its own death stays
      [Announced]: its old role completed, and its reborn incarnation
      re-enters through repair instead. *)

  val is_down : t -> int -> bool
  (** Suspected or announced dead — either way, no further message
      from this node will ever arrive. *)

  val is_suspected : t -> int -> bool
  (** Down {e without} a death notice: a crash-stop, whose state and
      pending contributions are lost. *)

  val suspected : t -> int list
  (** All suspected (crash-stopped) nodes, ascending. *)

  val suspected_count : t -> int
end
