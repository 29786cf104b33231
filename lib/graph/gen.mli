(** Graph generators for tests, examples and experiments.

    All randomized generators take an explicit {!Util.Prng.t}. *)

val path : int -> Graph.t
val cycle : int -> Graph.t
val complete : int -> Graph.t
val complete_bipartite : int -> int -> Graph.t
val star : int -> Graph.t
(** [star n]: vertex 0 joined to [1 .. n-1]. *)

val grid : width:int -> height:int -> Graph.t
val torus : width:int -> height:int -> Graph.t

val king_torus : width:int -> height:int -> Graph.t
(** Torus with diagonal (king-move) adjacency: degree 8, diameter
    [max width height / 2].  Dense enough to sparsify while keeping a
    large diameter — the workload for distortion-vs-distance
    experiments. *)

val hypercube : dims:int -> Graph.t

val gnp : Util.Prng.t -> n:int -> p:float -> Graph.t
(** Erdős–Rényi [G(n,p)], sampled with geometric gap-skipping so the
    cost is proportional to the number of realized edges. *)

val gnm : Util.Prng.t -> n:int -> m:int -> Graph.t
(** Uniform graph with exactly [min m (n choose 2)] edges. *)

val preferential_attachment : Util.Prng.t -> n:int -> k:int -> Graph.t
(** Barabási–Albert-style: each new vertex attaches to [k] endpoints
    drawn proportionally to degree. Connected by construction. *)

val random_regularish : Util.Prng.t -> n:int -> d:int -> Graph.t
(** Configuration-model graph with degrees ≤ [d] and average degree
    close to [d] (collisions and loops dropped rather than resampled). *)

val caterpillar : spine:int -> legs:int -> Graph.t
(** A path of [spine] vertices, each with [legs] pendant vertices. *)

val random_geometric : Util.Prng.t -> n:int -> radius:float -> Graph.t
(** Unit-square random geometric graph: [n] uniform points, an edge
    between every pair within Euclidean distance [radius].  The
    workload family of the geometric-spanner literature the paper's
    §1.4 points at. *)

val connected_gnp : Util.Prng.t -> n:int -> p:float -> Graph.t
(** [gnp] patched into one component (component representatives chained
    with extra edges).  Used when an experiment requires connectivity. *)

val ensure_connected : Util.Prng.t -> Graph.t -> Graph.t
(** Identity on connected graphs; otherwise adds one random edge
    between consecutive components. *)

val kinds : string list
(** The graph families {!generate} knows, by name: [gnp] (connected
    [G(n,p)]), [gnp-raw], [torus], [king], [hypercube], [pa], [path]
    and [cycle]. *)

val generate : kind:string -> n:int -> p:float -> seed:int -> Graph.t
(** The [kind] family's graph for [n] (rounded to a square side or a
    power of two where the family needs one), [p] and [seed].  The
    CLI's [--kind] and the graph line of scenario specs and plans both
    generate through it.  @raise Invalid_argument on a kind not in
    {!kinds}. *)
