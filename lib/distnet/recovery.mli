(** Crash-stop failure detection for multi-phase protocols on {!Sim}.

    {!Detector} merges the two honest information sources a node has:
    transport-level suspicion (a write-off that {!Reliable.step} hands
    its caller: a transmission abandoned after 12 retransmissions
    means the peer is whp gone) and protocol-level death notices (a
    [Dead] message from a peer that left the algorithm gracefully).
    The two are tracked separately — a suspected node {e crashed} (its
    state is lost, its incident edges may be missing from the output)
    while a notified node died {e cleanly} (its contribution is
    complete).  The fault-tolerant skeleton keeps its phase-boundary
    checkpoints in its own node records. *)

module Detector : sig
  type t

  val create : n:int -> t

  val suspect : t -> int -> unit
  (** Transport-level: a transmission to this node was abandoned.  A
      node that announced its own death stays announced. *)

  val note_death : t -> int -> unit
  (** Protocol-level: this node announced its own (clean) death.  The
      notice supersedes any suspicion, earlier or later. *)

  val unsuspect : t -> int -> unit
  (** Crash-recovery: a message from this node arrived after it was
      suspected, so the suspicion belonged to a previous incarnation —
      clear it.  A death notice is never cleared: the old role
      completed, and the reborn incarnation re-enters through repair
      instead. *)

  val is_suspected : t -> int -> bool
  (** Written off {e without} a death notice: a crash-stop, whose
      state and pending contributions are lost. *)
end
