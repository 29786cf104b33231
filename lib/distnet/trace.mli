(** Structured event log for simulator runs.

    Every observable action of the (possibly faulty) network engine —
    a message handed to the network, a delivery, a random loss, a
    duplication, a hold-back, a crash — is recorded as one {!event}.
    A trace can be saved as JSON lines, loaded back, and used to build
    a {e scripted} fault plan ([Fault.scripted]) that reproduces the
    original run bit-for-bit without consulting a PRNG.

    This module is deliberately independent of {!Sim}: it owns the
    {!stats} record (which [Sim] re-exports) so that the engine, the
    fault layer, and the replay tooling can all share it without a
    dependency cycle. *)

type stats = {
  rounds : int;  (** synchronous rounds executed *)
  messages : int;  (** messages transmitted (including lost ones) *)
  words : int;  (** total words transmitted *)
  max_message_words : int;  (** length of the longest single message *)
}

val diff_stats : stats -> stats -> (string * int * int) list
(** [diff_stats a b] lists every field on which [a] and [b] disagree as
    [(field, a-value, b-value)]; [[]] means the runs match. *)

(** Why a message was dropped. Only [Loss] is a random decision; the
    crash, link-state, join, and incarnation variants are determined by
    their schedules and are therefore not replayed from the script.
    [Stale] marks a message sent by or addressed to a node incarnation
    that is no longer (or not yet) current — it was in flight across a
    crash/restart boundary. *)
type reason = Loss | Src_crashed | Dst_crashed | Link_down | Not_joined | Stale

type kind =
  | Send  (** a node handed a message to the network *)
  | Deliver  (** the message reached its destination *)
  | Drop of reason  (** the message was lost in transit *)
  | Dup  (** the network delivered a second copy *)
  | Delay of int  (** the message was held for that many rounds *)
  | Crash  (** the node [src] crash-stopped ([dst] is [-1]) *)
  | Restart
      (** the node [src] restarted this round with a fresh incarnation
          ([dst] is [-1]; [words] carries the new incarnation number) *)
  | Edge_down  (** the link [src]-[dst] went down (churn) *)
  | Edge_up  (** the link [src]-[dst] came (back) up (churn) *)
  | Partition
      (** marker: a scripted partition began this round; [words] counts
          its links, each also traced as its own [Edge_down] *)
  | Heal
      (** marker: a partition healed this round; [words] counts its
          links, each also traced as its own [Edge_up] *)
  | Join  (** the node [src] joined the network this round *)

type event = { round : int; kind : kind; src : int; dst : int; words : int }

(** {1 Recording} *)

type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** Events in the order they were recorded. *)

val length : t -> int

(** {1 Persistence (JSON lines, see {!Obs.Jsonl})} *)

val save : ?stats:stats -> t -> string -> unit
(** [save ?stats t file] writes one JSON object per line; when given,
    the final line records the run's statistics so a replay can be
    checked against them. *)

val iter_file : string -> (event -> unit) -> stats option
(** Stream a file written by {!save}: call the function on every event
    in file order, without materializing the event list — aggregation
    over a large trace runs in constant memory.  Returns the stats
    line when one is present.
    @raise Obs.Jsonl.Parse_error on a line that is not a trace event
    or stats line, naming the file and line number. *)

val load : string -> event list * stats option
(** [iter_file] materialized: the event list in file order, plus the
    stats line when present. *)
