(** User-style query workloads: millions of distance/route lookups,
    generated from a seed or loaded from a file.

    A workload is just an array of queries against vertex ids of the
    served graph.  The generator draws sources from either a uniform
    or a Zipf-popular distribution ({!Util.Dist} — heavy-tailed
    popularity is what real query traffic looks like), destinations
    uniformly, and makes each query a route lookup with probability
    [route_frac].  Everything is deterministic in [(seed, n, spec)]:
    the same workload can be regenerated for replay or saved with
    {!save}. *)

type query = {
  src : int;
  dst : int;
  route : bool;  (** route lookup rather than distance lookup *)
}

type spec = {
  queries : int;
  zipf : float option;
      (** source-popularity exponent; [None] = uniform sources *)
  route_frac : float;  (** fraction of route queries, in [0, 1] *)
}

val default_spec : spec
(** 1000 uniform distance queries. *)

val generate : seed:int -> n:int -> spec -> query array
(** @raise Invalid_argument if [n <= 0], [queries < 0], or
    [route_frac] outside [0, 1].  With [zipf = Some s] the popularity
    ranks are assigned to vertices by a seeded shuffle, so the popular
    sources are spread over the graph rather than biased to low
    ids. *)

val save : query array -> string -> unit
(** One query per line: [d u v] or [r u v], after a [#workload]
    header. *)

val load : n:int -> string -> query array
(** @raise Util.Lines.Parse_error on a malformed line or a vertex id
    outside [0 .. n-1]. *)

val route_count : query array -> int
