(** The line codec every text format shares: the one error contract,
    the line iterators and the line writer.  Two families sit on it:

    - the four run logs (trace, metrics, spans, profile), one JSON
      object per line, read through {!scan} by [Obs.Jsonl];
    - the word formats — edge lists, [#workload] and [#snapshot] files,
      [#scenario v1] specs and [#plan v1] plans — one record per line
      of space-separated words, read through {!words}.  A line that
      starts with [#] is a comment.

    A reader either returns its record or raises {!Parse_error}; the
    only other exception is [Sys_error] when the file cannot be
    opened. *)

exception Parse_error of { file : string; line : int; msg : string }
(** A line that is not a record of its format.  [line] is 1-based.
    When the fault is on one line, [msg] ends with that line's text; a
    count or checksum that does not match names the line that declared
    it, or the line after the last.  [Printexc.to_string] renders it
    as [FILE: line N: MSG]. *)

val fail : file:string -> line:int -> string -> 'a
(** Raises {!Parse_error}. *)

(** {1 Files} *)

val scan : string -> (int -> string -> unit) -> unit
(** [scan file f] calls [f num text] on every non-blank line of [file],
    in order, numbered from 1, with a trailing CR stripped. *)

val save : string -> header:string list -> ((string -> unit) -> unit) -> unit
(** [save file ~header put] writes the [header] lines, then each line
    [put] emits. *)

(** {1 Word lines} *)

type line = { file : string; num : int; text : string; words : string list }
(** A line of a word format: [text] trimmed, [words] its non-empty
    space-separated parts. *)

val line : file:string -> num:int -> string -> line
(** Line [num] of [file] read some other way, such as a snapshot's
    [#snapshot] header, which {!words} skips as a comment. *)

val error : line -> string -> 'a
(** [error l msg] raises {!Parse_error} at [l], [msg] followed by the
    line's text. *)

val words : string -> (line -> unit) -> int
(** [words file f] calls [f] on every line of [file] that is neither
    blank nor a comment, and returns the number of the line after the
    last. *)

val words_of_string :
  file:string -> ?first:int -> string -> (line -> unit) -> int
(** {!words} over [text], named [file] in errors, its first line
    numbered [first] (default 1). *)

(** {1 Fields and tokens} *)

val field : line -> string -> (string -> 'a option) -> 'a
(** [field l k parse] reads the word [k=v] (a bare [k] reads as [""]);
    the first such word wins.  @raise Parse_error [missing k=] when
    there is none, [bad k="v"] when [parse v] is [None]. *)

val field_opt : line -> string -> (string -> 'a option) -> 'a option
(** [None] when [k=] is absent; otherwise as {!field}. *)

val token : line -> string -> (string -> 'a option) -> string -> 'a
(** [token l what read s] is [read s].  @raise Parse_error
    [bad what "s"] when that is [None]. *)

val node_at : string -> (int * int) option
(** ["V@R"]: node [V] at round [R]. *)

val edge : string -> (int * int) option
(** ["U-V"]. *)

val edge_at : string -> (int * int * int) option
(** ["U-V@R"] as [(u, v, r)]. *)
