(** Plain-text edge-list serialization.

    Format: first line "[n] [m]", then exactly [m] "[u] [v]" lines, one
    per edge.  Lines starting with '#' are comments.  Self-loops and
    repeated edges are dropped on reading, as {!Graph.Builder} does. *)

val write : Graph.t -> string -> unit
(** [write g path]. *)

val read : string -> Graph.t
(** @raise Util.Lines.Parse_error on a malformed header or edge line,
    a vertex outside [0 .. n-1], or more or fewer than [m] edge
    lines. *)

val to_buffer : Graph.t -> Buffer.t -> unit
(** Same bytes as {!write} — for callers that need the serialization
    in memory (e.g. to checksum it before writing). *)

val of_string : file:string -> first:int -> string -> Graph.t
(** {!read} over an in-memory edge list, named [file] in errors, its
    first line numbered [first]. *)
