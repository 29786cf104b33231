(** Causal span log: the happens-before record of a simulator run.

    Where {!Metrics} answers "how much did each phase cost", spans
    answer "why did the run take that long": every message transmission
    is one span (send event → deliver event) carrying Lamport
    timestamps, and the structural layers above it (protocol phases,
    Expand calls, cluster lifetimes, ARQ exchanges) open parent spans
    over the same boundaries their statistics already use.  The
    resulting happens-before DAG is what {!Causal} mines for critical
    paths and {!Perfetto} renders as a Chrome trace.

    The sink follows the {!Metrics} design rules exactly:

    - {b Zero cost when disabled.}  {!disabled} is a shared no-op sink:
      {!message} returns [-1], every other operation on it (or on a
      [-1] id) returns immediately, so the disabled path costs one tag
      check and runs without span recording stay byte-identical.
    - {b Deterministic output.}  Spans are identified and serialized in
      creation order; a deterministic run writes deterministic JSONL.

    Lamport clocks live in the sink, one per node: a send ticks the
    sender ([ls = L(src) + 1]), a delivery merges into the receiver
    ([ld = max(L(dst), ls) + 1]).  Structural spans carry no clock. *)

type t
(** A span sink, or the shared no-op sink. *)

val disabled : t
(** The no-op sink: nothing is recorded, {!message} returns [-1]. *)

val create : unit -> t
(** A fresh, enabled, empty sink. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}. *)

(** What a span covers.  [Message] is one transmission on the wire
    (send → deliver); the others are structural parents: a protocol
    [Phase], an Expand [Call], a [Cluster]'s decision lifetime, an
    [Arq] exchange (first transmission → acknowledgement), and a
    [Retransmit] point-event linked to its [Arq] parent. *)
type kind = Message | Phase | Call | Cluster | Arq | Retransmit

val kind_name : kind -> string

(** A message span is [Open] from send until it either reaches its
    destination ([Delivered]) or is lost ([Dropped reason]); structural
    spans reuse [Open]/[Delivered] as open/closed. *)
type status = Open | Delivered | Dropped of string

type record = {
  id : int;  (** creation index, dense from 0 *)
  kind : kind;
  name : string;  (** phase/call/cluster label; [""] for messages *)
  parent : int;  (** enclosing span id; [-1] = none *)
  src : int;  (** sender / owning node; [-1] for global spans *)
  dst : int;  (** receiver; [-1] when not a link span *)
  words : int;
  start_round : int;  (** send round / open round *)
  mutable stop_round : int;  (** deliver/close round; [-1] while open *)
  mutable ls : int;  (** Lamport timestamp at send; [0] = none *)
  mutable ld : int;  (** Lamport timestamp at deliver; [0] = none *)
  mutable status : status;
}

(** {1 Message spans (recorded by {!Distnet.Sim})} *)

val message : t -> round:int -> src:int -> dst:int -> words:int -> int
(** Record a transmission: ticks [src]'s Lamport clock and returns the
    span id to resolve at delivery time ([-1] when disabled). *)

val deliver : t -> round:int -> int -> unit
(** Close a message span as [Delivered] and merge the send timestamp
    into [dst]'s Lamport clock.  First delivery wins: a duplicate copy
    of an already-delivered span is ignored.  No-op on [-1]. *)

val drop : t -> round:int -> reason:string -> int -> unit
(** Close a span as [Dropped reason] (loss, crash, a dead-lettered ARQ
    exchange...).  Ignored if the span already closed.  No-op on [-1]. *)

(** {1 Structural spans} *)

val open_span :
  t -> ?parent:int -> ?src:int -> ?dst:int -> kind -> name:string ->
  round:int -> int
(** Open a structural span ([parent]/[src]/[dst] default [-1]); close
    it with {!close} or {!drop}.  Returns [-1] when disabled. *)

val close : t -> round:int -> int -> unit
(** Close an open structural span as [Delivered].  No-op on [-1]. *)

val span :
  t -> ?parent:int -> ?src:int -> ?dst:int -> kind -> name:string ->
  start_round:int -> stop_round:int -> int
(** A span closed at creation (e.g. a phase recorded at its boundary,
    a retransmission point-event).  Returns [-1] when disabled. *)

(** {1 Reading back} *)

val count : t -> int
val records : t -> record list
(** Every span, in creation order (ids ascending). *)

(** {1 Persistence (JSON lines)} *)

val to_json : record -> string
(** One JSON object, [{"kind":"span",...}]. *)

val save : ?extra:string list -> t -> string -> unit
(** Write [extra] lines (e.g. a run's meta header) followed by one
    line per span in creation order. *)

val iter_file : string -> (record -> unit) -> unit
(** Stream a file written by {!save} in constant memory.  Lines whose
    ["kind"] is not ["span"] (e.g. a meta header) are skipped.
    @raise Jsonl.Parse_error on a malformed line, naming file and
    line. *)

val load : string -> record list
