(** Reference protocols on the simulator: distributed BFS and flooding,
    in both the paper's loss-free model and fault-tolerant (ARQ-lifted)
    form.  Used by tests (to validate the engine against sequential
    BFS), the overlay-broadcast experiment (E10), and the fault
    experiment (E21).

    Every protocol raises [Invalid_argument] naming the root and [n]
    when [root] is not a vertex of the graph. *)

val bfs :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  Graphlib.Graph.t ->
  root:int ->
  Sim.stats * int array
(** Layered BFS from [root] with unit-word messages.  Returns the
    per-node distances ([-1] when unreachable) and the round/message
    statistics.  Completes in eccentricity+1 rounds.  Under a fault
    plan this protocol is {e fragile by design} — a lost announcement
    silently truncates the tree; use {!reliable_bfs} on lossy
    networks. *)

val flood :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  Graphlib.Graph.t ->
  root:int ->
  payload_words:int ->
  Sim.stats * bool array
(** Broadcast a [payload_words]-word message from [root] by flooding:
    every node forwards the first copy it receives to all neighbors
    except the sender.  Returns reachability.  Like {!bfs}, fragile
    under faults. *)

(** {1 Fault-tolerant variants}

    The same algorithms as node programs driven over the {!Reliable}
    ARQ runtime, their state in arrays: every message is sequenced,
    acknowledged, and retransmitted until delivered, so both converge
    to the correct answer under any loss/duplication/delay rates below
    1 (crashed nodes excepted).  Statistics include all ARQ traffic.

    Under a fault plan, a node that crashes at round [r] runs nothing
    from round [r] on: its state is frozen as of round [r - 1].  If the
    plan restarts it at round [r'], it resumes from [r'] with that
    frozen state, and the run is kept alive until every scheduled
    restart has landed.  A node with join round [r] starts at round [r]
    (its first sends go out that round); a node whose join round never
    arrives ends in its initial state.  Under churn the node programs
    stay oblivious — a send over a down link is simply lost.  The run
    ends when nothing is in flight, no node up in the next round has
    work pending, and no join or restart is still to come; a run still
    going after 1,000,000 rounds raises [Invalid_argument] with the
    round and the statistics so far. *)

val reliable_bfs :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  Graphlib.Graph.t ->
  root:int ->
  Sim.stats * int array
(** Unweighted Bellman-Ford from [root] over reliable links: nodes
    re-announce on every improvement, so distances are correct no
    matter how deliveries are reordered.  On a loss-free network the
    distance array equals {!bfs}'s. *)

val reliable_flood :
  ?faults:Fault.t ->
  ?tracer:Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Span.t ->
  Graphlib.Graph.t ->
  root:int ->
  payload_words:int ->
  Sim.stats * bool array
(** Flooding over reliable links: reaches every live node in [root]'s
    component at any loss rate below 1. *)
