(** Sets of edge identifiers of a host graph — the representation of a
    spanner [S ⊆ E].  *)

type t

val create : Graph.t -> t
(** Empty set over the host graph's edges. *)

val host : t -> Graph.t
val add : t -> int -> unit

val remove : t -> int -> unit
(** Remove an edge id; no-op if absent.  Used by the incremental
    repair path when a spanner edge dies under churn. *)

val mem : t -> int -> bool
val cardinal : t -> int

val iter : t -> (int -> unit) -> unit
val to_graph : t -> Graph.t
(** The spanning subgraph [(V, S)] as a standalone graph on the same
    vertex set.  Edge identifiers are renumbered. *)

val union : t -> t -> t
(** Fresh union of two sets over the same host graph. *)

val of_list : Graph.t -> int list -> t
val copy : t -> t
