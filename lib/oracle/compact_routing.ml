module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs

type t = {
  g : Graph.t;
  landmarks : int list;
  home : int array;  (** nearest landmark per node, -1 unreachable *)
  home_col : int array;  (** home.(v)'s column in [toward], -1 unreachable *)
  cols : int;  (** |L| *)
  toward : int array;
      (** n x |L|: toward.(x * cols + c) is x's next hop towards the c-th
          landmark, -1 if none *)
  direct : Rows.t;  (** row x : destination -> hop, ball + write-set entries *)
}

let build ~seed g =
  let n = Graph.n g in
  let rng = Util.Prng.create ~seed in
  let q = if n <= 1 then 1. else 1. /. sqrt (float_of_int n) in
  let landmarks =
    let l = List.filter (fun _ -> Util.Prng.bernoulli rng q) (List.init n (fun v -> v)) in
    match l with [] when n > 0 -> [ 0 ] | l -> l
  in
  let cols = List.length landmarks in
  (* Home landmark = overall nearest. *)
  let home_forest = Bfs.multi_source g ~sources:landmarks in
  let home = home_forest.Bfs.source in
  let col = Array.make n (-1) in
  List.iteri (fun c l -> col.(l) <- c) landmarks;
  let home_col = Array.map (fun l -> if l < 0 then -1 else col.(l)) home in
  let toward = Array.make (n * cols) (-1) in
  let writes = Rows.writes () in
  (* One BFS forest per landmark: next hop towards the landmark at every
     node.  Then the write set: every node on the shortest path from
     l(v) to v (in l(v)'s BFS tree) learns the next hop towards v. *)
  List.iteri
    (fun c l ->
      let f = Bfs.multi_source g ~sources:[ l ] in
      Array.iteri (fun v parent -> toward.((v * cols) + c) <- parent) f.Bfs.parent;
      for v = 0 to n - 1 do
        if home.(v) = l && f.Bfs.dist.(v) > 0 then begin
          let rec walk child x =
            Rows.add writes x v child;
            let p = f.Bfs.parent.(x) in
            if x <> l && p >= 0 then walk x p
          in
          walk v f.Bfs.parent.(v)
        end
      done)
    landmarks;
  (* Ball entries, written after the write set so that they win a
     repeated (node, destination) pair: grow the Thorup–Zwick cluster of
     every vertex w ({v : delta(v,w) < delta(v,L)}), whose BFS parents
     are the next hops towards w. *)
  let bound = Array.map (fun d -> if d < 0 then max_int else d) home_forest.Bfs.dist in
  let cluster = Cluster.create g in
  for w = 0 to n - 1 do
    for j = 1 to Cluster.grow cluster ~bound w - 1 do
      let y = Cluster.member cluster j in
      Rows.add writes y w (Cluster.parent cluster y)
    done
  done;
  { g; landmarks; home; home_col; cols; toward; direct = Rows.build ~n writes }

(* The next hop from x towards dst, whose home landmark is in column c:
   the direct entry if x has one, else the one towards the landmark. *)
let next_hop t ~dst ~c x =
  let hop = Rows.find t.direct x dst in
  if hop >= 0 || c < 0 then hop else t.toward.((x * t.cols) + c)

(* The walk, at the top level so that a call allocates no closure. *)
let rec walk t ~dst ~c ~limit x hops =
  if hops > limit then -1
  else if x = dst then hops
  else
    let next = next_hop t ~dst ~c x in
    if next < 0 then -1 else walk t ~dst ~c ~limit next (hops + 1)

let route_hops t ~src ~dst =
  if src = dst then 0
  else walk t ~dst ~c:t.home_col.(dst) ~limit:(4 * Graph.n t.g) src 0

(* The nodes of the walk [route_hops] counted, taken again. *)
let route t ~src ~dst =
  let hops = route_hops t ~src ~dst and c = t.home_col.(dst) in
  let rec path x k acc =
    if k = 0 then List.rev (x :: acc) else path (next_hop t ~dst ~c x) (k - 1) (x :: acc)
  in
  if hops < 0 then None else Some (path src hops [])

let total_state t =
  Array.fold_left (fun acc hop -> if hop >= 0 then acc + 1 else acc) 0 t.toward
  + Rows.length t.direct

let landmarks t = t.landmarks
let home_landmark t v = t.home.(v)
