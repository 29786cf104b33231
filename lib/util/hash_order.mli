(** The order in which an int-keyed [Hashtbl] iterates its keys.

    Covers [Hashtbl.Make] with [hash = Hashtbl.hash] (and the
    polymorphic table, unrandomized) when the table was created at any
    size up to 16:

    - It starts with 16 buckets, and [reset] brings it back to 16.
    - Adding a new key that leaves more than twice as many keys as
      buckets doubles the bucket count.  Nothing else changes it: a
      removal only takes the key out.
    - [iter] visits the buckets in index order, key [k] being in bucket
      [Hashtbl.hash k land (buckets - 1)].  Within a bucket the latest
      insertion comes first, counting the insertion that added the key,
      not a later [replace] of it.  A resize keeps that order.

    Code that keeps its entries in arrays, but must visit them as such
    a table would, tracks the bucket count with {!grow} and orders the
    entries with {!sort}. *)

val initial_buckets : int
(** 16: the bucket count of a table just created at size 16 or less,
    or just reset. *)

val grow : buckets:int -> count:int -> int
(** The bucket count once adding a new key has brought a table with
    [buckets] buckets to [count] keys. *)

val sort : buckets:int -> keys:int array -> stamps:int array -> int array -> int -> unit
(** [sort ~buckets ~keys ~stamps ix len] reorders [ix.(0) .. ix.(len - 1)]
    into the order [iter] visits their keys, for a table with [buckets]
    buckets.  Entry [x] stands for key [keys.(x)], added at time
    [stamps.(x)]: later insertions have larger stamps, and no two
    entries share one.  An insertion sort, meant for tables of a few
    dozen keys; it allocates nothing. *)
