(** Thorup–Zwick approximate distance oracles (J. ACM 2005), for
    unweighted graphs — the application class the paper's conclusion
    singles out ("the most interesting applications of spanners are in
    constructing distance labeling schemes, approximate distance
    oracles, and compact routing tables").

    Construction: a sampled hierarchy [A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1}],
    [A_k = ∅], each level kept with probability [n^(-1/k)].  Every
    vertex stores its {e bunch}
    [B(v) = ∪_i { w ∈ A_i \ A_{i+1} | delta(v,w) < delta(v, A_{i+1}) }]
    together with exact distances, plus its {e pivots} [p_i(v)]
    (nearest [A_i]-vertex).  Expected space [O(k n^{1+1/k})] entries;
    queries answer in [O(k)] lookups with stretch at most [2k - 1].

    The hierarchy sampling is the same machinery as the paper's spanner
    constructions — this module shows it powering a query structure.

    Layout: every bunch is an ascending run of [(centre, distance)]
    pairs, one packed word each, in one CSR array over all vertices,
    and a lookup is a binary search of the run.  [build] grows each
    centre's cluster — the vertices whose bunch receives it — from one
    reusable set of BFS arrays, and sorts the cluster entries into
    bunch order with a counting sort.  {!query_est} allocates
    nothing. *)

type t

val build : k:int -> seed:int -> Graphlib.Graph.t -> t
(** Requires [k >= 1].  O(k m + total bunch size) time. *)

val query : t -> int -> int -> int option
(** [query t u v] is an estimate [d'] with
    [delta(u,v) <= d' <= (2k-1) delta(u,v)], or [None] when [u] and
    [v] are disconnected. *)

val query_est : t -> int -> int -> int
(** [query t u v] without the option wrapper: [-1] when disconnected.
    The serving hot path — answering millions of queries against a
    snapshot — uses this form: it allocates nothing. *)

val k : t -> int
val size : t -> int
(** Total stored entries (bunches + pivot tables) — the oracle's
    space. *)

val levels : t -> int array
(** Per vertex, the highest [i] with [v ∈ A_i]. *)
