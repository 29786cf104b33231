module Lines = Util.Lines

let to_buffer g b =
  Buffer.add_string b (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun _ u v ->
      Buffer.add_string b (Printf.sprintf "%d %d\n" u v))

let write g path =
  Lines.save path
    ~header:[ Printf.sprintf "%d %d" (Graph.n g) (Graph.m g) ]
    (fun put ->
      Graph.iter_edges g (fun _ u v -> put (Printf.sprintf "%d %d" u v)))

(* The "[n] [m]" header, then exactly m edge lines, over [lines] (a
   {!Lines.words} iterator).  Self-loops and repeated edges are dropped
   by [Graph.Builder]; everything else that is not an edge is an
   error. *)
let parse ~file lines =
  let b = ref None and m = ref 0 and edges = ref 0 in
  let last =
    lines (fun (l : Lines.line) ->
        let ints = List.map int_of_string_opt l.words in
        match (!b, ints) with
        | None, [ Some n; Some m' ] when n >= 0 && m' >= 0 ->
            b := Some (Graph.Builder.create ~n);
            m := m'
        | None, _ -> Lines.error l {|bad header (want "N M")|}
        | Some _, _ when !edges = !m ->
            Lines.error l (Printf.sprintf "more than m = %d edge lines" !m)
        | Some b, [ Some u; Some v ] ->
            let n = Graph.Builder.n b in
            if u < 0 || u >= n || v < 0 || v >= n then
              Lines.error l (Printf.sprintf "vertex out of range (n = %d)" n);
            Graph.Builder.add_edge b u v;
            incr edges
        | Some _, _ -> Lines.error l {|bad edge line (want "U V")|})
  in
  match !b with
  | None -> Lines.fail ~file ~line:last {|missing "N M" header|}
  | Some _ when !edges < !m ->
      Lines.fail ~file ~line:last
        (Printf.sprintf "only %d of m = %d edge lines" !edges !m)
  | Some b -> Graph.Builder.build b

let of_string ~file ~first s =
  parse ~file (Lines.words_of_string ~file ~first s)

let read path = parse ~file:path (Lines.words path)
