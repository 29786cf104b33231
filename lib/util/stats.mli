(** Running statistics and small numeric summaries used by the
    experiment harness. *)

type t
(** A mutable accumulator of float observations. *)

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit

val count : t -> int
val total : t -> float
val mean : t -> float
(** [mean t] is [nan] when no observation was added. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val min : t -> float
val max : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator holding the union of the
    observations of [a] and [b] (exactly for count/total/min/max, via
    the parallel-variance formula for second moments). *)

val summary : t -> string
(** One-line [mean ± stddev (min..max, n)] rendering. *)

val median_of_sorted : float array -> float
(** Median of a sorted array.  @raise Invalid_argument on [||]. *)

val percentile_of_sorted : float array -> float -> float
(** [percentile_of_sorted a p] for [p] in [\[0,1\]], nearest-rank with
    linear interpolation.  The array must be sorted ascending. *)

val exact_percentile_of_sorted : float array -> float -> float
(** Exact nearest-rank percentile: the smallest element of the sorted
    array [a] such that at least [p * n] observations are [<=] it —
    always an actual observation, never interpolated, so it is the
    right quantile for integer-valued data (message lengths, round
    counts).  [nan] on [[||]]; the single element for [n = 1]. *)

val p50_of_sorted : float array -> float
val p90_of_sorted : float array -> float
val p99_of_sorted : float array -> float
(** [exact_percentile_of_sorted] at 0.5 / 0.9 / 0.99. *)
