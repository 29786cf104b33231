(** Closed-form bounds from the paper's lemmas and theorems, shared by
    the test suite (which checks measured quantities against them) and
    the experiment tables (which print paper-vs-measured columns). *)

(** {1 Section 2 — skeleton} *)

val skeleton_size : n:int -> d:int -> float
(** Lemma 6's explicit expected-size expression:
    [n (D/e + 1 - 2/e + (1 + 1/D)(ln(D+2) - zeta + 1) + (ln D + 0.2)/D)]
    — the constant behind "[Dn/e + O(n log D)]". *)

val skeleton_distortion : n:int -> d:int -> eps:float -> float
(** Theorem 2's distortion bound
    [eps^-1 2^(log* n - log* D + 7) log_D n] (the explicit constant
    appearing at the end of the proof). *)

val skeleton_time : n:int -> d:int -> eps:float -> float
(** Theorem 2's round bound [O(t + log n)] with
    [t = eps^-1 2^(log* n - log* D) log_D n]; returned without the
    hidden constant. *)

(** {1 Section 4 — Fibonacci spanners} *)

val fib_c : ell:int -> int -> float
(** [fib_c ~ell i] — the closed-form bound on [C^i_ell] from Lemma 10:
    complete-segment length at level [i] with branching [ell].
    For [ell = 1]: [2^(i+1)]; [ell = 2]: [3 (i+1) 2^i];
    [ell >= 3]: [min (c_ell ell^i) (ell^i + 2 c'_ell i ell^(i-1))]. *)

val fib_i : ell:int -> int -> float
(** [fib_i ~ell i] — the closed-form bound on [I^i_ell] from Lemma 10:
    distance to a higher hilltop from an incomplete segment. *)

val fib_c_rec : ell:int -> int -> float
val fib_i_rec : ell:int -> int -> float
(** The exact recurrences of Lemma 9 (base cases
    [I^0 = C^0 = 1], [I^1 = ell + 1], [C^1 = ell + 2];
    [I^i = 2 I^(i-2) + I^(i-1) + ell^i + (ell-1) ell^(i-2)],
    [C^i = max (ell C^(i-1))
              ((ell-1) C^(i-1) + 2 (I^(i-2) + I^(i-1)) + ell^(i-1))]).
    The closed forms must dominate these; tests verify it. *)

val fib_size : n:int -> o:int -> ell:int -> float
(** Lemma 8: [o n + n^(1 + 1/(F_(o+3) - 1)) ell^phi]. *)

val fib_distortion_stage : o:int -> ell:int -> float
(** Theorem 7's multiplicative distortion for a pair at distance
    [ell^o]: [2^(o+1)] when [ell = 1], [3(o+1)] when [ell = 2],
    [3 + (6 ell - 2)/(ell (ell - 2))] when [ell >= 3]. *)

val log10_fib_beta : n:int -> eps:float -> t:int -> float
(** [log10] of the additive term at which a sparsest Fibonacci spanner
    becomes a [(1+eps)]-spanner (§1.2):
    [beta = (eps^-1 (log_phi log n + t)) ^ (log_phi log n + t)], with
    [t] the message-length exponent; computed in log space (no
    overflow). *)

val log10_ez_beta : n:int -> eps:float -> t:int -> float
(** [log10] of Elkin–Zhang's sparsest [(1+eps,beta)]-spanner's
    additive term (§1.2):
    [beta = (eps^-1 t^2 log n log log n) ^ (t log log n)]. *)

(** {1 Section 3 — lower bounds} *)

val lb_additive_rounds : n:int -> delta:float -> beta:float -> float
(** Theorem 5: [Omega(sqrt (n^(1-delta) / beta))] rounds for an
    additive beta-spanner of size [n^(1+delta)]; the explicit choice
    [tau = sqrt (n^(1-delta) / (4 beta)) - 6] from the proof. *)

val lb_eps_beta : n:int -> delta:float -> zeta:float -> tau:int -> float
(** Theorem 4: the expected beta forced on a tau-round
    [(1 + 2(1-zeta)/(tau+2), beta)]-spanner:
    [zeta^2 n^(1-delta) / (4 (tau+6)^2) - 2]. *)
