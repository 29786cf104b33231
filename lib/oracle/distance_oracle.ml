module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs

type t = {
  k : int;
  levels : int array;
  pivots : int array array;  (** pivots.(i).(v) = p_i(v), -1 if none *)
  pivot_dist : int array array;
  bunches : Rows.t;  (** row v : w -> delta(v,w), ascending in w *)
}

let draw_levels rng ~n ~k =
  let p = float_of_int n ** (-1. /. float_of_int k) in
  Array.init n (fun _ ->
      let rec climb i =
        if i >= k - 1 then k - 1
        else if Util.Prng.bernoulli rng p then climb (i + 1)
        else i
      in
      climb 0)

let build ~k ~seed g =
  if k < 1 then invalid_arg "Distance_oracle.build: k must be >= 1";
  let n = Graph.n g in
  let rng = Util.Prng.create ~seed in
  let levels = draw_levels rng ~n ~k in
  let members i =
    let acc = ref [] in
    Array.iteri (fun v l -> if l >= i then acc := v :: !acc) levels;
    !acc
  in
  let pivots = Array.make k [||] in
  let pivot_dist = Array.make k [||] in
  let dist_to_level = Array.make (k + 1) [||] in
  for i = 0 to k - 1 do
    let f = Bfs.multi_source g ~sources:(members i) in
    pivots.(i) <- f.Bfs.source;
    pivot_dist.(i) <- f.Bfs.dist;
    dist_to_level.(i) <- Array.map (fun d -> if d < 0 then max_int else d) f.Bfs.dist
  done;
  (* A_k = empty: delta(v, A_k) = infinity. *)
  dist_to_level.(k) <- Array.make n max_int;
  (* The cluster of a level-i centre w, pruned by the Thorup–Zwick
     condition delta(v, w) < delta(v, A_{i+1}), is exactly the set of
     vertices whose bunch receives w. *)
  let cluster = Cluster.create g and writes = Rows.writes () in
  for w = 0 to n - 1 do
    let size = Cluster.grow cluster ~bound:dist_to_level.(levels.(w) + 1) w in
    for j = 0 to size - 1 do
      let v = Cluster.member cluster j in
      Rows.add writes v w (Cluster.dist cluster v)
    done
  done;
  let bunches = Rows.build ~n writes in
  { k; levels; pivots; pivot_dist; bunches }

(* The query loop, at the top level so that a call allocates no
   closure: level i, with u and v swapped at every miss. *)
let rec est t i u v =
  if i >= t.k then -1
  else
    let w = t.pivots.(i).(u) in
    if w < 0 then -1
    else
      let dwv = Rows.find t.bunches v w in
      if dwv >= 0 then t.pivot_dist.(i).(u) + dwv else est t (i + 1) v u

let query_est t u v = if u = v then 0 else est t 0 u v

let query t u v =
  let d = query_est t u v in
  if d < 0 then None else Some d

let k t = t.k
let size t = Rows.length t.bunches + (t.k * Array.length t.levels)
let levels t = t.levels
