(** Per-vertex sorted int maps in CSR form, shared by the oracle's
    bunches and the routing tables' ball and write-set entries.

    Row [v] is a run of [(key, value)] pairs ascending by key, found by
    binary search; all rows sit end to end in one int array, a pair
    packed in one word.  Keys lie in [[0, n)] and values in
    [[0, 2^32)], so a lookup that misses can answer [-1] without an
    option. *)

type t

type writes
(** A stream of [(row, key, value)] writes, in the order they were
    made. *)

val writes : unit -> writes
val add : writes -> int -> int -> int -> unit
(** [add w row key value]. *)

val build : n:int -> writes -> t
(** Rows [0 .. n-1] of the writes.  A [(row, key)] pair written more
    than once keeps its last write, as a hash table's [replace]
    would.  O(writes + n).  @raise Invalid_argument if [n > 2^30]. *)

val find : t -> int -> int -> int
(** [find t row key] is the value stored under [key] in [row], or
    [-1].  Allocates nothing. *)

val length : t -> int
(** Entries over all rows. *)
