(** Read-optimized immutable snapshot of a built skeleton: the unit of
    publication of the serving stack.

    A snapshot freezes the spanner into a standalone CSR graph (the
    edge set re-indexed as its own {!Graphlib.Graph.t} — compressed
    adjacency, no hash tables on the read path) and precomputes the
    query structures from [lib/oracle] on it: a Thorup–Zwick distance
    oracle always, and Cowen-style compact routing tables on demand.
    Once built, a snapshot is never mutated — the swap layer
    ({!Server}) replaces whole snapshots atomically, so readers of an
    old generation keep a consistent structure until they drain.

    Every snapshot carries a {e generation} number.  Queries answered
    from it report that generation, which is how staleness under
    background repair is measured. *)

type t

val build :
  ?generation:int ->
  ?k:int ->
  ?seed:int ->
  ?routing:bool ->
  ?exclude:int list ->
  Graphlib.Graph.t ->
  Graphlib.Edge_set.t ->
  t
(** [build g spanner] freezes [spanner] (an edge set over host [g]).
    [generation] defaults to 0; [k] (oracle levels, stretch [2k-1])
    defaults to 2; [seed] (default 1) drives the oracle's level
    sampling; [routing] (default false) also builds the compact
    routing tables, needed to answer route queries; [exclude] lists
    host edge ids to leave out — the edges churn left dead, so a
    snapshot of a repaired spanner serves only the surviving
    topology. *)

val of_graph :
  ?generation:int -> ?k:int -> ?seed:int -> ?routing:bool ->
  Graphlib.Graph.t -> t
(** Freeze a graph that already {e is} the structure to serve (the
    whole graph becomes the snapshot's CSR).  [load] uses this. *)

(** {1 Queries}

    Allocation-free reads — the serving hot path: array reads and
    binary searches of the oracle's and the routing tables' flat rows,
    with no hashing, closure or option.  A test holds 10,000 of each
    on a 2,000-vertex snapshot to 0 minor words. *)

val distance : t -> int -> int -> int
(** Oracle distance estimate, within [2k-1] of the spanner distance;
    [-1] when disconnected. *)

val route_hops : t -> int -> int -> int
(** Hops of the compact-routing walk; [-1] when disconnected or when
    the snapshot was built without [~routing:true]. *)

val has_routing : t -> bool

(** {1 Inspection} *)

val generation : t -> int
val n : t -> int
val edges : t -> int
(** Spanner edges frozen into the snapshot. *)

val oracle_k : t -> int
val oracle_entries : t -> int
(** Stored oracle entries — the snapshot's table space. *)

val graph : t -> Graphlib.Graph.t
(** The frozen CSR spanner graph (for audits: BFS ground truth). *)

val pp : Format.formatter -> t -> unit
(** One-line [gen=… edges=… oracle k=… entries=… routing=on/off]. *)

(** {1 Persistence}

    A snapshot file is the spanner edge list plus the build
    parameters; {!load} rebuilds the oracle tables deterministically
    from them (same seed, same tables), so a reloaded snapshot answers
    every query identically to the saved one.  The header carries an
    Adler-32 checksum and byte count of the body, and {!save} writes
    through a temp file renamed into place — a crashed writer never
    leaves a half-written file under the snapshot's name, and a
    truncated or bit-flipped file fails {!load} with a one-line error
    naming what mismatched instead of silently serving a damaged
    spanner. *)

val save : t -> string -> unit
(** Atomic: writes [path ^ ".tmp"], then renames over [path]. *)

val load : ?generation:int -> string -> t
(** [generation] overrides the stored one (a reloaded snapshot being
    republished under a new generation).  @raise Util.Lines.Parse_error
    on a malformed, truncated, or corrupted file, naming the failed
    check: a missing or bad header field, a body shorter or longer than
    declared, or a checksum mismatch (all at line 1, the header that
    declares them), or a malformed edge line of the body. *)
