(** Parameters of a Fibonacci spanner (Section 4.1 and Lemma 8).

    The construction is governed by the {e order} [o] (in
    [1 .. log_phi log n]), the ball-growth base [ell] and the sampling
    probabilities [q_0 = 1 >= q_1 >= … >= q_o >= q_{o+1} = 1/n].
    Lemma 8 solves the Fibonacci-like recurrences
    [f_i = f_{i-1} + f_{i-2} + 1], [h_i = h_{i-1} + h_{i-2} + (i-1)]
    (so [f_i = g_i = F_{i+2} - 1], [h_i = F_{i+3} - (i+2)]) and sets

    [q_i = n^(-f_i * alpha) * ell^(-g_i * phi + h_i)],

    with [alpha = 1/(F_{o+3} - 1)].  The monotonicity [q_i < q_{i-1}]
    is exactly the golden-ratio fact [phi F_k + 1 > F_{k+1}]. *)

type t = {
  n : int;
  o : int;  (** order *)
  ell : int;  (** ball base; Theorem 7 uses [ell = 3 o / eps + 2] *)
  eps : float;
  qs : float array;  (** [qs.(i)] = q_i for i in [0 .. o+1]; q_0 = 1 *)
}

val make : n:int -> ?o:int -> ?eps:float -> ?ell:int -> unit -> t
(** [o] defaults to the sparsest order [log_phi log n] (the paper's
    headline parametrization); [eps] to [0.5]; [ell] to
    [ceil (3 o / eps) + 2] (Theorem 7's choice).  [q_i] values are
    clamped to be nonincreasing and at least [1/n]. *)

val fi : int -> int
(** [f_i = F_{i+2} - 1]. *)

val hi : int -> int
(** [h_i = F_{i+3} - (i + 2)]. *)

val radius : t -> int -> int
(** [radius t i] is [ell^i], saturating. *)

val budgeted : t -> tee:int -> t
(** Theorem 8's message-budget adjustment: find the largest [i] with
    [q_i / q_{i+1} <= n^(1/tee)], keep [q_1 .. q_{i+1}] and replace
    every later probability by [q_{i+1} * n^(-(j-i-1)/tee)], so that no
    consecutive ratio — and hence no expected relay load in the ball
    protocol — exceeds the budget.  "The overall effect of limiting
    the message size to O(n^(1/t)) is to increase the order o by at
    most t" (§4.4). *)

val draw_levels : Util.Prng.t -> t -> int array
(** Per-vertex maximal level: [levels.(v) = max { i | v in V_i }]
    (0 for every vertex; never exceeds [o]). *)

val pp : Format.formatter -> t -> unit
