(** Labeled metrics registry: counters, gauges, and fixed-bucket
    histograms, with deterministic JSONL snapshots.

    The registry is the simulator stack's one measurement surface:
    {!Distnet.Sim} (per-round and per-link traffic), the ARQ layer
    (retransmissions, ack latency), the skeleton construction
    (per-phase cost), and the certifier (audit outcomes) all record
    into one of these.  Design rules:

    - {b Zero cost when disabled.}  {!disabled} is a shared no-op sink:
      every instrument created from it is a no-op value and every
      operation on such an instrument returns immediately.
      Instrumented code holds instrument handles, so the disabled path
      costs one tag check — runs without metrics stay byte-identical
      to uninstrumented ones.
    - {b Deterministic output.}  Instruments are snapshotted in
      creation order, labels are kept key-sorted, and histograms use
      fixed log-scale (power-of-two) buckets — never adaptive ones —
      so two runs of the same deterministic program produce the same
      JSONL bytes.
    - {b Exactness where it is cheap.}  Histograms additionally retain
      their raw observations, so in-process consumers (the per-phase
      summary table) can print exact p50/p90/p99 via {!Util.Stats};
      only the bucketized form is serialized.

    An instrument is identified by its name {e and} its label set:
    asking twice for the same (name, labels) pair returns the same
    underlying cell, so instrumented code can ask again at each use,
    while the same name under different labels is a distinct time
    series. *)

type t
(** A registry, or the shared no-op sink. *)

val disabled : t
(** The no-op sink: instruments created from it record nothing and
    {!snapshot} is empty. *)

val create : unit -> t
(** A fresh, enabled, empty registry. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}. *)

type labels = (string * string) list
(** Attribution labels, e.g. [["phase", "exchange"]].  Canonicalized
    to key-sorted order; a duplicate key keeps the last binding. *)

(** {1 Instruments} *)

type counter

val counter : t -> ?labels:labels -> string -> counter
(** Find-or-create.  @raise Invalid_argument if the (name, labels)
    pair already names an instrument of another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> ?labels:labels -> string -> gauge
val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** Keep the maximum of all [set_max] values (and any earlier {!set}). *)

val gauge_value : gauge -> int

type histogram

val histogram : t -> ?labels:labels -> string -> histogram
val observe : histogram -> int -> unit

(** {1 Buckets}

    [num_buckets] fixed buckets on a power-of-two scale: bucket [0]
    holds observations [<= 1] (including non-positive ones), bucket
    [i] holds [2^(i-1) < v <= 2^i], and the last bucket is unbounded
    above. *)

val num_buckets : int

val bucket_index : int -> int
(** The bucket an observation lands in. *)

val bucket_upper : int -> int
(** Inclusive upper bound of a bucket; [max_int] for the last. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  hmin : int;  (** meaningless when [count = 0] *)
  hmax : int;
  buckets : int array;  (** length {!num_buckets} *)
  samples : float array;  (** raw observations, ascending; [[||]] for a
                              snapshot parsed back from JSONL *)
}

type value = Counter of int | Gauge of int | Histogram of hist_snapshot
type sample = { name : string; labels : labels; value : value }

val snapshot : t -> sample list
(** Every instrument, in creation order. *)

val find : sample list -> ?labels:labels -> string -> sample option

(** {1 Persistence (JSON lines)} *)

val to_json : sample -> string
(** One JSON object, [{"kind":"metric",...}]; histograms serialize
    count/sum/min/max and the bucket array (trailing zeros trimmed),
    not the raw samples. *)

val save : ?extra:string list -> t -> string -> unit
(** Write [extra] lines (e.g. a run's meta header) followed by one
    line per instrument. *)

val load : string -> sample list
(** Parse a file of {!to_json} lines.  Lines of another ["kind"]
    (e.g. a meta header) are skipped.
    @raise Jsonl.Parse_error on a malformed line, naming file and
    line. *)
