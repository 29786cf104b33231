(** Declarative resilience scenarios: what a sweep samples.

    A spec names a {e family} of runs — a graph family plus
    probabilistic fault ingredients, each described by a {!Dsl}
    distribution.  Sampling the family ({!Compile.compile}) with a
    sample index yields one concrete, fully deterministic fault plan;
    the spec itself is plain text ({!parse}/{!to_string} round-trip
    byte-for-byte), so scenarios live in files, diffs, and CI
    configuration rather than code.

    Ingredients:

    - {b loss} — either i.i.d. per-message loss or a bursty
      Gilbert–Elliott channel (compiled to a
      {!Distnet.Fault.spec.drop_profile});
    - {b storm} — a correlated crash storm: seed crashes strike
      uniformly, then spread to graph neighbors with a contagion
      probability, modeling a regional outage rather than independent
      node failures.  With a [down] distribution the storm is
      crash-{e recovery}: every crashed node draws a downtime and
      restarts that many rounds after its crash, re-entering with a
      fresh incarnation (see {!Distnet.Fault});
    - {b churn} — link flaps with a heavy-tailed inter-arrival gap
      and a Zipf skew toward high-degree links (the links that carry
      the most traffic fail the most), each flap healing after a drawn
      downtime;
    - {b budget} — a round budget that turns slowness into failure: a
      run exceeding it is a FAIL the sweep must shrink;
    - {b workload} — a {!Serve.Workload} spec: after a certified
      build, the spanner is frozen into a snapshot and the workload's
      sampled answers audited against ground truth. *)

type loss =
  | No_loss
  | Iid of float  (** per-message loss probability *)
  | Bursty of { ge : Dsl.ge; horizon : int }
      (** Gilbert–Elliott channel simulated for [horizon] rounds *)

type storm = {
  frac : float;  (** per-node seed-crash probability *)
  spread : float;  (** contagion probability per live neighbor *)
  round_lo : int;  (** seed crashes land uniformly in this window... *)
  round_hi : int;  (** ...spread crashes strike shortly after *)
  down : Dsl.t option;
      (** crash-recovery: rounds a crashed node stays down before
          restarting (clamped to [>= 1]); [None] = crash-stop *)
}

type churn = {
  events : Dsl.t;  (** number of link flaps *)
  gap : Dsl.t;  (** inter-arrival rounds between flaps *)
  skew : float;  (** Zipf exponent over degree-ranked links *)
  down_for : Dsl.t;  (** rounds a flapped link stays down *)
}

type t = {
  name : string;
  kind : string;  (** graph family, as the CLI's --kind *)
  n : int;
  p : float;  (** G(n,p) density (ignored by non-gnp kinds) *)
  graph_seed : int;  (** base seed; sample [k] uses [graph_seed + k] *)
  loss : loss;
  dup : float;
  delay : float;
  max_delay : int;
  storm : storm option;
  churn : churn option;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
}

val default : t
(** [gnp n=64 p=0.12 seed=11], every ingredient off — the neutral
    base specs are built from. *)

val validate : t -> (unit, string) result
(** Checks every rate, window, and distribution; the error names the
    offending field. *)

(** {1 Text form}

    Line-oriented: a [#scenario v1] header, then one ingredient per
    line ([name], [graph], [loss], [dup], [delay], [storm], [churn],
    [budget], [workload]).  Blank lines and [#] comments are
    ignored. *)

val to_string : t -> string
(** Canonical serialization; [parse ~file (to_string s) = s]. *)

val parse : file:string -> string -> t
(** Parse [text], named [file] in errors, {!validate}-ing each line as
    it lands.  @raise Util.Lines.Parse_error at the first line that is
    malformed or sets an invalid value, or after the last line when
    there is no [name] line. *)

val load : string -> t
(** {!parse} a spec file. *)

val save : t -> string -> unit

(** {1 Built-in scenario families}

    The four sweep staples plus a deliberately failing one. *)

val builtins : (string * t) list
(** [crash-storm], [bursty-loss], [churn-heavy], [mixed],
    [restart-storm] (a crash-recovery storm under loss: every crashed
    node restarts after a drawn downtime) — and [tight-budget], whose
    round budget is set below what its churn costs, so every sample
    FAILs over-budget and exercises the shrinker end to end. *)

val builtin : string -> t option
