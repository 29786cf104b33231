(** Edge-weighted view of a graph: the setting where Baswana–Sen is
    optimal (paper §1.2: "Baswana and Sen's randomized algorithm for
    constructing (2k-1)-spanners in weighted graphs is optimal in all
    respects, save for a factor of k in the spanner size"). *)

type t

val of_graph : Graph.t -> weights:float array -> t
(** One positive weight per edge identifier.
    @raise Invalid_argument on a size mismatch or nonpositive weight. *)

val random : Util.Prng.t -> Graph.t -> lo:float -> hi:float -> t
(** Uniform weights in [\[lo, hi)]. *)

val unit : Graph.t -> t
(** All weights 1 (so weighted distances = hop distances). *)

val graph : t -> Graph.t
val weight : t -> int -> float

val distances : t -> src:int -> float array
(** Dijkstra; [infinity] marks unreachable vertices. *)

val spanner_distances : t -> Edge_set.t -> src:int -> float array
(** Dijkstra restricted to a spanner's edges. *)

val max_stretch :
  Util.Prng.t -> t -> Edge_set.t -> sources:int -> float
(** Max over sampled pairs of (spanner distance / true distance);
    [infinity] if the spanner disconnects a sampled pair. *)
