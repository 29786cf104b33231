(** Allocation & time profiling sink: per-phase and per-region cost
    attribution over real machine resources.

    {!Metrics} and {!Span} measure {e model} cost — rounds, messages,
    words, Lamport time.  This sink measures what the machine actually
    pays to simulate them: monotonic wall-clock nanoseconds and the
    GC's allocation counters ([Gc.quick_stat]: minor/major words,
    minor/major collections), sampled at region, phase, and round
    boundaries.  It follows the same design rules as the other sinks:

    - {b Zero cost when disabled.}  {!disabled} is a shared no-op sink
      and the default {!current} ambient sink; every operation on it
      returns after one tag check, and no clock or [Gc.quick_stat]
      call ever runs.  Runs without a profiling flag stay
      byte-identical (cram-pinned).
    - {b Deterministic structure, advisory values.}  Row {e names},
      their creation order, and the number of round samples are
      deterministic for a deterministic program; the measured
      nanoseconds and word counts are machine-dependent.  GC counters
      are exact (the runtime counts every allocated word); wall-clock
      is advisory (scheduler noise).  Consumers must treat values as
      measurements, never pin them.
    - {b Joinable attribution.}  {!phase} is called at exactly the
      same boundaries as the metrics [phase_*] counters
      ({!Spanner.Skeleton_dist}'s [record_phase]), so profile phase
      rows join the metrics phase table by name.

    Unlike Metrics/Span, the sink is ambient ({!set_current}): the hot
    paths it instruments (engine deliver loop, envelope allocation,
    ARQ timer sweep, query answering) would otherwise need a threading
    of one more argument through every layer.  The ambient default is
    {!disabled}; enabling is always an explicit flag. *)

type t
(** A profile registry, or the shared no-op sink. *)

val disabled : t
(** The no-op sink: records nothing, samples nothing. *)

val create : unit -> t
(** A fresh enabled registry.  Creation takes the initial clock/GC
    sample that the first {!phase} and {!round_mark} deltas are
    measured against. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}. *)

val set_current : t -> unit
(** Install [t] as the ambient sink read by {!current}.  Callers that
    enable profiling must restore {!disabled} afterwards. *)

val current : unit -> t
(** The ambient sink; {!disabled} unless a profiling flag installed a
    live one. *)

(** {1 Regions}

    A region is a named, properly nested interval of execution
    ([enter]/[leave], or the scoped {!region}).  Each distinct name
    accumulates one row: total (inclusive) and self (exclusive of
    nested regions) wall time and allocation.  Mismatched
    [enter]/[leave] pairs are a programming error; {!leave} on an
    empty stack is ignored. *)

val enter : t -> string -> unit
(** Open a region.  On the disabled sink this is one tag check — safe
    on per-message hot paths. *)

val leave : t -> unit
(** Close the innermost open region, attributing the interval since
    its {!enter}. *)

val region : t -> string -> (unit -> 'a) -> 'a
(** [region t name f] = {!enter}; [f ()]; {!leave}, exception-safe.
    Allocates a closure at the call site — use bare [enter]/[leave]
    where even the disabled path must not allocate. *)

(** {1 Phases}

    A phase mark attributes {e everything} since the previous mark (or
    registry creation) to a named phase row — the profiling twin of
    the metrics [phase_*] delta discipline.  Phase rows have
    [self = total] by construction. *)

val phase : t -> string -> unit

(** {1 Round samples}

    One sample per simulated round, for the Perfetto counter tracks:
    the live heap size and the allocation activity since the previous
    round mark. *)

val round_mark : t -> round:int -> unit

(** {1 Rows} *)

type kind = Phase | Region

type row = {
  kind : kind;
  name : string;
  count : int;  (** phase marks / region entries *)
  wall_ns : int;  (** total (inclusive) wall time *)
  self_ns : int;  (** exclusive of nested regions; [= wall_ns] for phases *)
  minor_words : int;  (** total words allocated in the minor heap *)
  self_minor_words : int;
  major_words : int;  (** total words allocated in the major heap,
                          promotions included *)
  self_major_words : int;
  minors : int;  (** minor collections during the row's intervals *)
  majors : int;  (** major collection cycles *)
}

type round_sample = {
  round : int;
  heap_words : int;  (** major heap size at the round boundary *)
  r_minor_words : int;  (** words allocated during this round *)
  r_minors : int;  (** minor collections during this round *)
}

val rows : t -> row list
(** Every row in creation order (like {!Metrics.snapshot}). *)

val round_samples : t -> round_sample list
(** Round samples in recording order. *)

(** {1 Persistence (JSON lines, see {!Jsonl})} *)

val save : ?extra:string list -> t -> string -> unit
(** Write [extra] lines (a run's meta header), then one line per row,
    then one line per round sample. *)

type item = Row of row | Round of round_sample

val iter_file : string -> (item -> unit) -> unit
(** Stream a profile file without materializing it.  Lines whose
    ["kind"] is neither ["prof"] nor ["prof_round"] (e.g. a meta
    header) are skipped.
    @raise Jsonl.Parse_error on a malformed line, naming file and
    line. *)

val load : string -> row list * round_sample list
