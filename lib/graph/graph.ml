type t = {
  n : int;
  (* CSR adjacency: neighbors of u are adj_v.(adj_off.(u) .. adj_off.(u+1)-1),
     with matching edge identifiers in adj_e. *)
  adj_off : int array;
  adj_v : int array;
  adj_e : int array;
  edge_u : int array;
  edge_v : int array;
}

type edge = { u : int; v : int }

module Builder = struct
  type t = {
    n : int;
    mutable edges : (int * int) list;
    mutable count : int;
    seen : (int * int, unit) Hashtbl.t;
  }

  let create ~n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    { n; edges = []; count = 0; seen = Hashtbl.create 64 }

  let add_edge t a b =
    if a < 0 || a >= t.n || b < 0 || b >= t.n then
      invalid_arg "Graph.Builder.add_edge: vertex out of range";
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem t.seen key) then begin
        Hashtbl.add t.seen key ();
        t.edges <- key :: t.edges;
        t.count <- t.count + 1
      end
    end

  let n t = t.n

  let build t =
    let m = t.count in
    let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
    (* Edges were accumulated in reverse insertion order; restore it so
       edge identifiers are stable and deterministic. *)
    let i = ref (m - 1) in
    List.iter
      (fun (u, v) ->
        edge_u.(!i) <- u;
        edge_v.(!i) <- v;
        decr i)
      t.edges;
    let deg = Array.make t.n 0 in
    for e = 0 to m - 1 do
      deg.(edge_u.(e)) <- deg.(edge_u.(e)) + 1;
      deg.(edge_v.(e)) <- deg.(edge_v.(e)) + 1
    done;
    let adj_off = Array.make (t.n + 1) 0 in
    for u = 0 to t.n - 1 do
      adj_off.(u + 1) <- adj_off.(u) + deg.(u)
    done;
    let cursor = Array.copy adj_off in
    let adj_v = Array.make (2 * m) 0 and adj_e = Array.make (2 * m) 0 in
    for e = 0 to m - 1 do
      let u = edge_u.(e) and v = edge_v.(e) in
      adj_v.(cursor.(u)) <- v;
      adj_e.(cursor.(u)) <- e;
      cursor.(u) <- cursor.(u) + 1;
      adj_v.(cursor.(v)) <- u;
      adj_e.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done;
    { n = t.n; adj_off; adj_v; adj_e; edge_u; edge_v }
end

let of_edges ~n edges =
  let b = Builder.create ~n in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  Builder.build b

let n t = t.n
let m t = Array.length t.edge_u
let degree t u = t.adj_off.(u + 1) - t.adj_off.(u)
let edge t e = { u = t.edge_u.(e); v = t.edge_v.(e) }
let edge_endpoints t e = (t.edge_u.(e), t.edge_v.(e))

let iter_neighbors t u f =
  for i = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    f t.adj_v.(i) t.adj_e.(i)
  done

let fold_neighbors t u ~init ~f =
  let acc = ref init in
  iter_neighbors t u (fun v e -> acc := f !acc v e);
  !acc

(* Scan [a]'s CSR row for [b]: the joining edge id, or -1. *)
let scan_row t a b =
  let i = ref t.adj_off.(a) and stop = t.adj_off.(a + 1) in
  while !i < stop && t.adj_v.(!i) <> b do
    incr i
  done;
  if !i < stop then t.adj_e.(!i) else -1

let edge_id t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n || a = b then -1
  else if degree t a <= degree t b then scan_row t a b
  else scan_row t b a

let find_edge t a b =
  let e = edge_id t a b in
  if e < 0 then None else Some e

let mem_edge t a b = edge_id t a b >= 0

let iter_edges t f =
  for e = 0 to m t - 1 do
    f e t.edge_u.(e) t.edge_v.(e)
  done

let neighbors t u = List.rev (fold_neighbors t u ~init:[] ~f:(fun acc v _ -> v :: acc))

let components t =
  let label = Array.make t.n (-1) in
  let count = ref 0 in
  let stack = ref [] in
  for s = 0 to t.n - 1 do
    if label.(s) < 0 then begin
      let c = !count in
      incr count;
      label.(s) <- c;
      stack := [ s ];
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            iter_neighbors t u (fun v _ ->
                if label.(v) < 0 then begin
                  label.(v) <- c;
                  stack := v :: !stack
                end)
      done
    end
  done;
  (label, !count)

let is_connected t =
  if t.n = 0 then true
  else
    let _, c = components t in
    c = 1

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    if degree t u > !best then best := degree t u
  done;
  !best

let average_degree t = if t.n = 0 then 0. else 2. *. float_of_int (m t) /. float_of_int t.n

let pp_summary ppf t =
  Format.fprintf ppf "n=%d, m=%d, avg deg %.2f, max deg %d" t.n (m t)
    (average_degree t) (max_degree t)
