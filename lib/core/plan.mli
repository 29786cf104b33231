(** The call schedule of the skeleton algorithm (Section 2 and the
    proof of Theorem 2).

    The algorithm is a fixed sequence of calls to [Expand], grouped
    into rounds; between rounds the surviving clusters are contracted.
    The schedule depends only on [n], the density parameter [D], and
    the message-length exponent [eps] — never on the coin flips — so
    every node of a distributed network can compute it locally, which
    is what Theorem 2's implementation relies on.

    Phases, following the paper exactly:

    - {b Tower}: round 0 runs one call with probability [1/D]; round
      [i >= 1] runs [s_i + 1] calls with probability [1/s_i]
      ([s_i] from {!Util.Tower}).  A running {e nominal density}
      [d] (the expected value of n / #clusters) multiplies by [1/p]
      at each call.  The tower phase ends the first time
      [d > log^eps n * log(log^eps n)].
    - {b Amplify}: one round of calls at probability [(log n)^-eps]
      until the nominal density reaches [log n].
    - {b Final}: calls at probability [(log n)^-eps] until the nominal
      density reaches [n], the very last call having probability [0]
      (which kills every remaining vertex). *)

type phase = Tower | Amplify | Final | Kill

type call = {
  index : int;  (** position in the whole schedule, from 0 *)
  round : int;  (** round number; contraction happens between rounds *)
  iter : int;  (** iteration within the round, from 0 *)
  p : float;  (** sampling probability of this call *)
  density_after : float;  (** nominal density once the call completes *)
  abort_q : int;
      (** the paper's [4 s_i ln n] threshold: a dying vertex adjacent to
          more clusters than this aborts and keeps all incident edges *)
  phase : phase;
}

type t = {
  n : int;
  d : int;
  eps : float;
  word_budget : int;  (** [max 1 (round (log2 n)^eps)] — the message length *)
  calls : call array;
  num_rounds : int;
}

val make : n:int -> ?d:int -> ?eps:float -> unit -> t
(** [make ~n ()] builds the schedule.  [d] defaults to 4 (the paper
    needs [D >= 4]); [eps] defaults to [0.5].
    @raise Invalid_argument if [d < 2] or [eps] outside [(0, 1]]. *)

val last_call : t -> call
(** Always has [p = 0.]. *)

val pp : Format.formatter -> t -> unit
