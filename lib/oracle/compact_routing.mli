(** Landmark-based compact routing (Cowen 1999 / Thorup–Zwick 2001
    style) — the "compact routing tables with small stretch"
    application of the paper's §1 and §5.

    Construction, for one level [k = 2]:

    - sample landmarks [L] with probability [n^(-1/2)];
    - every node stores a next hop towards {e every landmark} (one BFS
      forest per landmark);
    - every node [x] stores a next hop towards every [w] whose ball it
      lies in ([delta(x,w) < delta(x,L)] — the Thorup–Zwick cluster of
      [w]), and towards every [v] whose shortest path from its home
      landmark [l(v)] passes through [x] (the {e write set});
    - the routing header for [v] is just [(v, l(v))].

    Routing walks direct entries when available and otherwise heads for
    [l(v)], where the write-set entries take over.  Total stretch is at
    most [1 + 2 delta(v, L) / delta(u, v) <= 5] for pairs without a
    direct entry, and measured stretch is far lower; per-node state is
    [O(|L| + ball + write set)] entries ≈ [O(sqrt n)] on average.

    Layout: the next hops towards the landmarks are one dense
    [n x |L|] matrix, a node's row being its [|L|] hops.  On a
    connected graph it holds the same [n |L|] entries as per-node
    tables would (the one slot of a landmark towards itself stays
    empty), in one word each.  The ball and write-set entries are
    ascending per-node rows of [(destination, hop)] pairs, one packed
    word each, in one CSR array, found by binary search; a node on
    both a write-set path and in a ball for the same destination keeps
    the ball entry, the later write.  Balls grow from one reusable set
    of BFS arrays.  {!route_hops} allocates nothing. *)

type t

val build : seed:int -> Graphlib.Graph.t -> t

val route : t -> src:int -> dst:int -> int list option
(** The nodes visited, starting with [src] and ending with [dst];
    [None] if the pair is disconnected (or routing failed, which the
    tests rule out for connected pairs). *)

val route_hops : t -> src:int -> dst:int -> int
(** Hop count of the walk {!route} would take, without materializing
    the node list: [-1] if the pair is disconnected (or routing
    failed), [0] for [src = dst].  The serving hot path answers route
    queries with this form. *)

val total_state : t -> int
val landmarks : t -> int list
val home_landmark : t -> int -> int
(** The landmark in a node's routing header; [-1] if unreachable. *)
