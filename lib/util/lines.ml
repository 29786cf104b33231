(* The line codec of every text format.  See lines.mli. *)

exception Parse_error of { file : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { file; line; msg } ->
        Some (Printf.sprintf "%s: line %d: %s" file line msg)
    | _ -> None)

let fail ~file ~line msg = raise (Parse_error { file; line; msg })

(* [f num text] on every non-blank line [next] yields, numbered from
   [num], CR stripped; the number after the last line. *)
let rec fold next f num =
  match next () with
  | None -> num
  | Some raw ->
      let text =
        if String.ends_with ~suffix:"\r" raw then
          String.sub raw 0 (String.length raw - 1)
        else raw
      in
      if String.trim text <> "" then f num text;
      fold next f (num + 1)

let in_file file f =
  In_channel.with_open_text file (fun ic ->
      fold (fun () -> In_channel.input_line ic) f 1)

let scan file f = ignore (in_file file f)

let save file ~header put =
  Out_channel.with_open_text file (fun oc ->
      let line s =
        output_string oc s;
        output_char oc '\n'
      in
      List.iter line header;
      put line)

(* ------------------------------------------------------------------ *)
(* Word lines *)

type line = { file : string; num : int; text : string; words : string list }

let line ~file ~num text =
  let text = String.trim text in
  let words = List.filter (( <> ) "") (String.split_on_char ' ' text) in
  { file; num; text; words }

let error l msg =
  fail ~file:l.file ~line:l.num (Printf.sprintf "%s: %s" msg l.text)

let word_lines file f num text =
  let l = line ~file ~num text in
  if l.text.[0] <> '#' then f l

let words file f = in_file file (word_lines file f)

let words_of_string ~file ?(first = 1) text f =
  let pos = ref 0 and len = String.length text in
  let next () =
    if !pos >= len then None
    else
      let stop =
        Option.value ~default:len (String.index_from_opt text !pos '\n')
      in
      let raw = String.sub text !pos (stop - !pos) in
      pos := stop + 1;
      Some raw
  in
  fold next (word_lines file f) first

(* ------------------------------------------------------------------ *)
(* Fields and tokens *)

let find l k =
  let prefix = k ^ "=" and at = String.length k + 1 in
  List.find_map
    (fun w ->
      if w = k then Some ""
      else if String.starts_with ~prefix w then
        Some (String.sub w at (String.length w - at))
      else None)
    l.words

let field l k parse =
  match find l k with
  | None -> error l (Printf.sprintf "missing %s=" k)
  | Some v -> (
      match parse v with
      | Some x -> x
      | None -> error l (Printf.sprintf "bad %s=%S" k v))

let field_opt l k parse = Option.map (fun _ -> field l k parse) (find l k)

let token l what read s =
  match read s with
  | Some x -> x
  | None -> error l (Printf.sprintf "bad %s %S" what s)

let pair sep s =
  match String.split_on_char sep s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
  | _ -> None

let node_at = pair '@'
let edge = pair '-'

let edge_at s =
  match String.split_on_char '@' s with
  | [ e; r ] -> (
      match (edge e, int_of_string_opt r) with
      | Some (u, v), Some r -> Some (u, v, r)
      | _ -> None)
  | _ -> None
