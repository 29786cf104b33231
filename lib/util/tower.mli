(** The tower sequence [(s_i)] of the paper's Section 2 and assorted
    iterated-logarithm helpers.

    The sequence is [s_0 = s_1 = D] and [s_i = s_{i-1} ^ s_{i-1}] for
    [i >= 2] (paper, Section 2, before Lemma 1).  It reaches any
    feasible [n] within [log* n] terms (Lemma 1(1)), so all values are
    computed with saturation at {!cap}. *)

val cap : int
(** Saturation value for tower entries (large, but safely below
    [max_int]). *)

val pow_sat : int -> int -> int
(** [pow_sat b e] is [b^e] saturating at {!cap}.  Requires [b >= 0],
    [e >= 0]. *)

val s : d:int -> int -> int
(** [s ~d i] is [s_i] for parameter [D = d] (requires [d >= 2],
    [i >= 0]), saturating at {!cap}. *)

val rounds_for : d:int -> n:int -> int
(** [rounds_for ~d ~n] is the least [l] such that
    [s_1^2 * ... * s_{l-1}^2 * s_l >= n] — the number of rounds [L] the
    idealized algorithm needs (the paper assumes
    [n = s_1^2 ... s_{L-1}^2 s_L]). *)

val log2 : float -> float
val log_star : int -> int
(** Iterated base-2 logarithm: least [k] with [log2^(k) n <= 1]. *)

val zeta : float
(** [ln 2 -. 1. /. e ≈ 0.325], the constant of Lemma 6. *)
