(** Undirected, unweighted, simple graphs in compressed adjacency form.

    Vertices are integers [0 .. n-1].  Every undirected edge has a
    stable identifier in [0 .. m-1]; spanner algorithms return sets of
    edge identifiers, which keeps the mapping from contracted /
    auxiliary structures back to the original graph explicit (the
    paper's [pi^-1] notation). *)

type t

type edge = { u : int; v : int }
(** Normalized so that [u < v]. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : n:int -> t
  (** [create ~n] prepares a builder for a graph on [n] vertices. *)

  val add_edge : t -> int -> int -> unit
  (** Adds the undirected edge.  Self-loops and duplicate edges are
      silently dropped (the paper's contracted graphs are simple). *)

  val n : t -> int
  val build : t -> graph
end

val of_edges : n:int -> (int * int) list -> t
(** Convenience wrapper around {!Builder}. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int

val edge : t -> int -> edge
(** The endpoints of an edge identifier. *)

val edge_endpoints : t -> int -> int * int
(** [edge_endpoints g e] is [(u, v)] with [u < v]. *)

val edge_id : t -> int -> int -> int
(** Edge identifier joining two vertices, or [-1] when they are not
    adjacent — including when either is out of range.  Scans the CSR
    row of the lower-degree endpoint: O(min degree), no allocation. *)

val find_edge : t -> int -> int -> int option
(** {!edge_id} as an option. *)

val mem_edge : t -> int -> int -> bool

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v e] for every neighbor [v] of [u]
    via edge [e]. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f e u v] once per undirected edge, [u < v]. *)

val neighbors : t -> int -> int list
(** Neighbor list (freshly allocated; prefer {!iter_neighbors} in hot
    paths). *)

(** {1 Whole-graph helpers} *)

val is_connected : t -> bool
val components : t -> int array * int
(** [components g] is [(label, count)]: per-vertex component label in
    [0 .. count-1]. *)

val max_degree : t -> int
val average_degree : t -> float

val pp_summary : Format.formatter -> t -> unit
(** "n=…, m=…, avg deg …" one-liner. *)
