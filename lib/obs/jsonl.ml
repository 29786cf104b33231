(* The run-log line codec.  See jsonl.mli. *)

exception Parse_error = Util.Lines.Parse_error

type line = { file : string; num : int; text : string; kind : string }

let fail l msg =
  Util.Lines.fail ~file:l.file ~line:l.num (Printf.sprintf "%s: %s" msg l.text)

(* ------------------------------------------------------------------ *)
(* Fields: a substring scan for ["name":], then the value after it.
   Our own printers never put such a key inside a string value. *)

(* The offset just past ["name":] in [text]. *)
let value text name =
  let needle = Printf.sprintf {|"%s":|} name in
  let nl = String.length needle and tl = String.length text in
  let rec matches i j = j = nl || (text.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec at i =
    if i + nl > tl then None else if matches i 0 then Some (i + nl) else at (i + 1)
  in
  at 0

(* The run of [ok] characters at [start]. *)
let token text start ok =
  let stop = ref start in
  while !stop < String.length text && ok text.[!stop] do
    incr stop
  done;
  String.sub text start (!stop - start)

(* The text after ["name":] between [opening] and the next [close]. *)
let delimited text name ~opening ~close =
  match value text name with
  | Some start when start < String.length text && text.[start] = opening ->
      Option.map
        (fun stop -> String.sub text (start + 1) (stop - start - 1))
        (String.index_from_opt text (start + 1) close)
  | _ -> None

let str_in text name = delimited text name ~opening:'"' ~close:'"'

let int_opt l name =
  Option.bind (value l.text name) (fun start ->
      int_of_string_opt
        (token l.text start (function '0' .. '9' | '-' -> true | _ -> false)))

let float_opt l name =
  Option.bind (value l.text name) (fun start ->
      float_of_string_opt
        (token l.text start (function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)))

let str_opt l name = str_in l.text name

let required get l name =
  match get l name with
  | Some v -> v
  | None -> fail l (Printf.sprintf "missing field %S" name)

let int l = required int_opt l
let str l = required str_opt l

let items l name ~opening ~close =
  match delimited l.text name ~opening ~close with
  | None -> fail l (Printf.sprintf "missing field %S" name)
  | Some body when String.trim body = "" -> []
  | Some body -> List.map String.trim (String.split_on_char ',' body)

let ints l name =
  List.map
    (fun s ->
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail l (Printf.sprintf "bad integer %S in field %S" s name))
    (items l name ~opening:'[' ~close:']')

let pairs l name =
  let unquote s =
    let s = String.trim s and n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
    else fail l (Printf.sprintf "bad entry in field %S" name)
  in
  List.map
    (fun kv ->
      match String.index_opt kv ':' with
      | Some i ->
          ( unquote (String.sub kv 0 i),
            unquote (String.sub kv (i + 1) (String.length kv - i - 1)) )
      | None -> fail l (Printf.sprintf "bad entry in field %S" name))
    (items l name ~opening:'{' ~close:'}')

(* ------------------------------------------------------------------ *)
(* Files *)

let iter file f =
  Util.Lines.scan file (fun num text ->
      match str_in text "kind" with
      | Some kind -> f { file; num; text; kind }
      | None -> fail { file; num; text; kind = "" } {|missing field "kind"|})

let first_kind file =
  let exception Found of string in
  match
    Util.Lines.scan file (fun _ text ->
        raise (Found (Option.value ~default:"" (str_in text "kind"))))
  with
  | () -> None
  | exception Found kind -> Some kind

let find ~kind file =
  let exception Found of line in
  match iter file (fun l -> if l.kind = kind then raise (Found l)) with
  | () -> None
  | exception Found l -> Some l
