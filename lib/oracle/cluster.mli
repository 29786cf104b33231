(** Thorup–Zwick clusters grown from reusable scratch arrays.

    The cluster of a centre [w] under a bound array [b] is [w] together
    with every vertex [v] with [delta(v, w) < b.(v)]: the vertices whose
    bunch (oracle, [b = delta(., A_{i+1})]) or ball (routing,
    [b = delta(., L)]) receives [w].  A cluster is closed under shortest
    paths to its centre, so a BFS from [w] that admits only such
    vertices finds it with exact distances. *)

type t

val create : Graphlib.Graph.t -> t

val grow : t -> bound:int array -> int -> int
(** [grow t ~bound w] grows [w]'s cluster, in FIFO BFS order with
    neighbours in CSR order, and returns its size.  The accessors below
    read it until the next [grow]. *)

val member : t -> int -> int
(** [member t i]: the [i]-th vertex admitted; [member t 0] is the
    centre. *)

val dist : t -> int -> int
(** Distance from the centre, of a member. *)

val parent : t -> int -> int
(** The member that admitted a member: its neighbour one step closer to
    the centre ([w] for [w] itself). *)
