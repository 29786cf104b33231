module Prng = Util.Prng

let path n =
  let b = Graph.Builder.create ~n in
  for i = 0 to n - 2 do
    Graph.Builder.add_edge b i (i + 1)
  done;
  Graph.Builder.build b

let cycle n =
  let b = Graph.Builder.create ~n in
  for i = 0 to n - 2 do
    Graph.Builder.add_edge b i (i + 1)
  done;
  if n > 2 then Graph.Builder.add_edge b (n - 1) 0;
  Graph.Builder.build b

let complete n =
  let b = Graph.Builder.create ~n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Graph.Builder.add_edge b i j
    done
  done;
  Graph.Builder.build b

let complete_bipartite a bn =
  let b = Graph.Builder.create ~n:(a + bn) in
  for i = 0 to a - 1 do
    for j = 0 to bn - 1 do
      Graph.Builder.add_edge b i (a + j)
    done
  done;
  Graph.Builder.build b

let star n =
  let b = Graph.Builder.create ~n in
  for i = 1 to n - 1 do
    Graph.Builder.add_edge b 0 i
  done;
  Graph.Builder.build b

let grid ~width ~height =
  let id x y = (y * width) + x in
  let b = Graph.Builder.create ~n:(width * height) in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      if x + 1 < width then Graph.Builder.add_edge b (id x y) (id (x + 1) y);
      if y + 1 < height then Graph.Builder.add_edge b (id x y) (id x (y + 1))
    done
  done;
  Graph.Builder.build b

let torus ~width ~height =
  let id x y = (y * width) + x in
  let b = Graph.Builder.create ~n:(width * height) in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      Graph.Builder.add_edge b (id x y) (id ((x + 1) mod width) y);
      Graph.Builder.add_edge b (id x y) (id x ((y + 1) mod height))
    done
  done;
  Graph.Builder.build b

let king_torus ~width ~height =
  let id x y = (y * width) + x in
  let b = Graph.Builder.create ~n:(width * height) in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      List.iter
        (fun (dx, dy) ->
          let x' = (x + dx + width) mod width and y' = (y + dy + height) mod height in
          Graph.Builder.add_edge b (id x y) (id x' y'))
        [ (1, 0); (0, 1); (1, 1); (1, -1) ]
    done
  done;
  Graph.Builder.build b

let hypercube ~dims =
  let n = 1 lsl dims in
  let b = Graph.Builder.create ~n in
  for u = 0 to n - 1 do
    for bit = 0 to dims - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.build b

(* Translate a monotonically increasing stream of triangular pair
   indices into (i, j) pairs, advancing the row cursor incrementally. *)
let add_pairs_by_index b ~n indices =
  let row = ref 0 in
  let row_end = ref (n - 1) in
  (* row [i] covers indices [row_start, row_start + (n-1-i)). *)
  let row_start = ref 0 in
  List.iter
    (fun k ->
      while k >= !row_end do
        incr row;
        row_start := !row_end;
        row_end := !row_end + (n - 1 - !row)
      done;
      let j = !row + 1 + (k - !row_start) in
      Graph.Builder.add_edge b !row j)
    indices

(* Gap-skipping G(n,p): enumerate present pairs directly by jumping
   geometric(1-p) gaps through the lexicographic pair order. *)
let gnp rng ~n ~p =
  let b = Graph.Builder.create ~n in
  if p > 0. && n > 1 then begin
    if p >= 1. then
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          Graph.Builder.add_edge b i j
        done
      done
    else begin
      let log1p = log (1. -. p) in
      let total = n * (n - 1) / 2 in
      let indices = ref [] in
      let idx = ref (-1) in
      let continue = ref true in
      while !continue do
        let u = Prng.float rng 1. in
        let gap = 1 + int_of_float (Float.floor (log (1. -. u) /. log1p)) in
        idx := !idx + gap;
        if !idx >= total then continue := false else indices := !idx :: !indices
      done;
      add_pairs_by_index b ~n (List.rev !indices)
    end
  end;
  Graph.Builder.build b

let gnm rng ~n ~m =
  let total = if n < 2 then 0 else n * (n - 1) / 2 in
  let m = Stdlib.min m total in
  let b = Graph.Builder.create ~n in
  if m > 0 then begin
    let chosen = Prng.sample_without_replacement rng ~k:m ~n:total in
    add_pairs_by_index b ~n (Array.to_list chosen)
  end;
  Graph.Builder.build b

let preferential_attachment rng ~n ~k =
  let b = Graph.Builder.create ~n in
  if n > 1 then begin
    (* Growable endpoint multiset: each edge contributes both endpoints,
       so a uniform draw from it is degree-proportional. *)
    let cap = ref (Stdlib.max 16 (4 * n)) in
    let endpoints = ref (Array.make !cap 0) in
    let len = ref 0 in
    let push x =
      if !len = !cap then begin
        cap := 2 * !cap;
        let bigger = Array.make !cap 0 in
        Array.blit !endpoints 0 bigger 0 !len;
        endpoints := bigger
      end;
      !endpoints.(!len) <- x;
      incr len
    in
    for v = 1 to n - 1 do
      let attach = Stdlib.min k v in
      let targets = Hashtbl.create attach in
      let tries = ref 0 in
      while Hashtbl.length targets < attach && !tries < 20 * attach do
        incr tries;
        let t = if !len = 0 then v - 1 else !endpoints.(Prng.int rng !len) in
        if t <> v then Hashtbl.replace targets t ()
      done;
      if Hashtbl.length targets = 0 then Hashtbl.replace targets (v - 1) ();
      Hashtbl.iter
        (fun t () ->
          Graph.Builder.add_edge b v t;
          push v;
          push t)
        targets
    done
  end;
  Graph.Builder.build b

let random_regularish rng ~n ~d =
  let b = Graph.Builder.create ~n in
  if n > 1 && d > 0 then begin
    let stubs = Array.make (n * d) 0 in
    for v = 0 to n - 1 do
      for j = 0 to d - 1 do
        stubs.((v * d) + j) <- v
      done
    done;
    Prng.shuffle rng stubs;
    let total = Array.length stubs in
    let i = ref 0 in
    while !i + 1 < total do
      Graph.Builder.add_edge b stubs.(!i) stubs.(!i + 1);
      i := !i + 2
    done
  end;
  Graph.Builder.build b

let caterpillar ~spine ~legs =
  let n = spine * (1 + legs) in
  let b = Graph.Builder.create ~n in
  for i = 0 to spine - 2 do
    Graph.Builder.add_edge b i (i + 1)
  done;
  for i = 0 to spine - 1 do
    for leg = 0 to legs - 1 do
      Graph.Builder.add_edge b i (spine + (i * legs) + leg)
    done
  done;
  Graph.Builder.build b

let random_geometric rng ~n ~radius =
  if radius < 0. then invalid_arg "Gen.random_geometric: negative radius";
  let xs = Array.init n (fun _ -> Prng.float rng 1.) in
  let ys = Array.init n (fun _ -> Prng.float rng 1.) in
  let b = Graph.Builder.create ~n in
  (* Grid-bucket the points so the expected cost is near-linear. *)
  let cell = Stdlib.max 1e-6 radius in
  let cells = Stdlib.max 1 (int_of_float (1. /. cell)) in
  let bucket : (int, int list) Hashtbl.t = Hashtbl.create (2 * n) in
  let key i j = (i * (cells + 2)) + j in
  let cell_of x = Stdlib.min (cells - 1) (int_of_float (x /. cell)) in
  for v = 0 to n - 1 do
    let kx = cell_of xs.(v) and ky = cell_of ys.(v) in
    let kk = key kx ky in
    Hashtbl.replace bucket kk (v :: Option.value ~default:[] (Hashtbl.find_opt bucket kk))
  done;
  let r2 = radius *. radius in
  for v = 0 to n - 1 do
    let kx = cell_of xs.(v) and ky = cell_of ys.(v) in
    for dx = -1 to 1 do
      for dy = -1 to 1 do
        let i = kx + dx and j = ky + dy in
        if i >= 0 && i < cells && j >= 0 && j < cells then
          List.iter
            (fun w ->
              if w > v then begin
                let ddx = xs.(v) -. xs.(w) and ddy = ys.(v) -. ys.(w) in
                if (ddx *. ddx) +. (ddy *. ddy) <= r2 then Graph.Builder.add_edge b v w
              end)
            (Option.value ~default:[] (Hashtbl.find_opt bucket (key i j)))
      done
    done
  done;
  Graph.Builder.build b

let ensure_connected rng g =
  let label, count = Graph.components g in
  if count <= 1 then g
  else begin
    let reps = Array.make count (-1) in
    Array.iteri (fun v c -> if reps.(c) < 0 then reps.(c) <- v) label;
    let b = Graph.Builder.create ~n:(Graph.n g) in
    Graph.iter_edges g (fun _ u v -> Graph.Builder.add_edge b u v);
    for c = 1 to count - 1 do
      (* Join each later component to a random earlier representative to
         avoid creating one long artificial path. *)
      let prev = reps.(Prng.int rng c) in
      Graph.Builder.add_edge b prev reps.(c)
    done;
    Graph.Builder.build b
  end

let connected_gnp rng ~n ~p = ensure_connected rng (gnp rng ~n ~p)

(* The families behind the CLI's --kind and the graph line of scenario
   specs and plans: each is a function of (n, p, seed) alone. *)
let families =
  let side n = int_of_float (Float.round (sqrt (float_of_int n))) in
  [
    ("gnp", fun rng ~n ~p -> connected_gnp rng ~n ~p);
    ("gnp-raw", fun rng ~n ~p -> gnp rng ~n ~p);
    ("torus", fun _ ~n ~p:_ -> torus ~width:(side n) ~height:(side n));
    ("king", fun _ ~n ~p:_ -> king_torus ~width:(side n) ~height:(side n));
    ( "hypercube",
      fun _ ~n ~p:_ ->
        hypercube
          ~dims:(int_of_float (Float.round (Util.Tower.log2 (float_of_int n))))
    );
    ( "pa",
      fun rng ~n ~p:_ ->
        ensure_connected rng (preferential_attachment rng ~n ~k:3) );
    ("path", fun _ ~n ~p:_ -> path n);
    ("cycle", fun _ ~n ~p:_ -> cycle n);
  ]

let kinds = List.map fst families

let generate ~kind ~n ~p ~seed =
  match List.assoc_opt kind families with
  | Some family -> family (Prng.create ~seed) ~n ~p
  | None -> invalid_arg (Printf.sprintf "Gen.generate: unknown graph kind %s" kind)
