(** Pretty-printers over metric snapshots.

    The per-phase table is the contract between the skeleton
    construction's instrumentation and the CLI: phases record
    [phase_rounds] / [phase_messages] / [phase_words] counters and a
    [phase_max_message_words] gauge under a ["phase"] label, and
    {!pp_phase_table} renders them with a totals row whose
    rounds/messages/words sums equal the run's [Trace.stats] (max
    words is the max over phases). *)

type phase_row = {
  phase : string;
  rounds : int;
  messages : int;
  words : int;
  max_words : int;
}

val phase_rows : Metrics.sample list -> phase_row list
(** Rows in first-appearance order of the ["phase"] label. *)

val totals : phase_row list -> phase_row
(** Sum of rounds/messages/words, max of max_words; phase ["total"]. *)

val pp_phase_table : Format.formatter -> Metrics.sample list -> unit
(** Fixed-width per-phase table plus totals row; prints a one-line
    notice when the snapshot holds no phase metrics. *)

(** {1 Serve tables}

    The serving subsystem records [serve_answers] counters (labels
    ["generation"] and ["freshness" = "fresh"|"stale"]) and a
    [serve_latency_ns] histogram per ["generation"], plus flat
    [serve_failed] / [serve_swaps] counters. *)

type serve_row = {
  generation : int;
  fresh : int;
  stale : int;
  latency : Metrics.hist_snapshot option;
}

val serve_rows : Metrics.sample list -> serve_row list
(** Per-generation serve rows, ascending generation. *)

val pp_serve_table : Format.formatter -> Metrics.sample list -> unit
(** Per-generation answers/staleness plus latency p50/p90/p99 (ns) and
    the failed/swaps totals; one-line notice when the snapshot holds no
    serve metrics. *)

val pp_summary : Format.formatter -> Metrics.sample list -> unit
(** Every sample, one line each, in snapshot order.  Histograms show
    count/sum/min/max and exact p50/p90/p99 (from raw samples when
    present, else nearest-rank over the serialized buckets, reported
    as the bucket's upper bound). *)

val hist_percentile : Metrics.hist_snapshot -> float -> float
(** Exact when raw samples are present; bucket upper bound otherwise;
    [nan] when empty. *)

(** {1 Profile tables} *)

val top_sites : Prof.row list -> Prof.row list
(** The region rows, ranked as allocation sites: by self minor words,
    most first, ties by name.  Self minor words are exact for a build.
    Self major words are not ranked on: they are the words a minor
    collection promotes, charged to whichever region it falls in. *)

val pp_profile_table :
  ?top:int ->
  Format.formatter ->
  Prof.row list * Prof.round_sample list ->
  unit
(** Phase table (joins {!pp_phase_table} by phase name), region table
    with self/total columns, the top-[top] (default 3) of
    {!top_sites}, and a round-sample summary line.
    Row names and order are deterministic; the measured values are
    machine-dependent (word counts exact, wall-clock advisory). *)
