(** The line format of the four run logs (trace, metrics, spans,
    profile): one JSON object per line, each with a ["kind"] field.
    Printers and the field scanner are hand-rolled, with no JSON
    dependency, and this is the only module that knows the format:
    {!Metrics}, {!Span}, {!Prof} and [Distnet.Trace] only map their
    records to and from lines, and write them with
    {!Util.Lines.save}. *)

exception Parse_error of { file : string; line : int; msg : string }
(** {!Util.Lines.Parse_error}, the one error of every text format: a
    line that is not a record of its log — truncated, garbage, an
    unknown kind, or a missing or malformed field.  [line] is 1-based
    and [msg] ends with the line's text.  [Printexc.to_string] renders
    it as [FILE: line N: MSG]. *)

type line = { file : string; num : int; text : string; kind : string }
(** A non-blank line of [file], line [num], CR stripped. *)

val fail : line -> string -> 'a
(** [fail l msg] raises {!Parse_error} at [l]. *)

(** {1 Fields}

    [int l "f"] reads ["f":12] and [str l "f"] reads ["f":"text"]
    (no escapes).  A missing field, or an integer that overflows,
    raises {!Parse_error} [missing field "f"]; the [_opt] forms return
    [None] instead. *)

val int : line -> string -> int
val str : line -> string -> string
val int_opt : line -> string -> int option
val float_opt : line -> string -> float option
val str_opt : line -> string -> string option

val ints : line -> string -> int list
(** ["f":[1,2,3]]. *)

val pairs : line -> string -> (string * string) list
(** ["f":{"k":"v",...}], an object of string values.  Like the
    required forms, [ints] and [pairs] raise {!Parse_error} on a
    missing field or a malformed entry. *)

(** {1 Files} *)

val iter : string -> (line -> unit) -> unit
(** Every non-blank line in file order; CRLF endings and blank lines
    are tolerated.  @raise Parse_error on a line without a ["kind"]. *)

val first_kind : string -> string option
(** The ["kind"] of the first non-blank line, [""] when it has none;
    [None] when there is no such line.  Never raises {!Parse_error}. *)

val find : kind:string -> string -> line option
(** The first line of that kind, read with {!iter}. *)
