module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs

type t = {
  k : int;
  levels : int array;
  pivots : int array array;  (** pivots.(i).(v) = p_i(v), -1 if none *)
  pivot_dist : int array array;
  bunches : (int, int) Hashtbl.t array;  (** bunches.(v) : w -> delta(v,w) *)
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

(* Truncated BFS from a level-i center w, pruned by the Thorup–Zwick
   cluster condition delta(v, w) < delta(v, A_{i+1}): exactly the
   vertices whose bunch receives w. *)
let grow_cluster g ~center ~next_dist ~visit =
  let dist : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let q = Queue.create () in
  Hashtbl.replace dist center 0;
  Queue.add center q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    let dx = Hashtbl.find dist x in
    visit ~v:x ~dist:dx;
    Graph.iter_neighbors g x (fun y _ ->
        if not (Hashtbl.mem dist y) then begin
          let dy = dx + 1 in
          if dy < next_dist.(y) then begin
            Hashtbl.replace dist y dy;
            Queue.add y q
          end
        end)
  done

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
  let bunches = Array.init n (fun _ -> Hashtbl.create 8) in
  for i = 0 to k - 1 do
    let next_dist = dist_to_level.(i + 1) in
    List.iter
      (fun w ->
        if levels.(w) = i then
          grow_cluster g ~center:w ~next_dist ~visit:(fun ~v ~dist ->
              Hashtbl.replace bunches.(v) w dist))
      (members i)
  done;
  { k; levels; pivots; pivot_dist; bunches }

let query t u v =
  if u = v then Some 0
  else begin
    let rec loop i u v =
      if i >= t.k then None
      else begin
        let w = t.pivots.(i).(u) in
        if w < 0 then None
        else
          match Hashtbl.find_opt t.bunches.(v) w with
          | Some dwv -> Some (t.pivot_dist.(i).(u) + dwv)
          | None -> loop (i + 1) v u
      end
    in
    loop 0 u v
  end

let query_est t u v =
  if u = v then 0
  else begin
    let rec loop i u v =
      if i >= t.k then -1
      else begin
        let w = t.pivots.(i).(u) in
        if w < 0 then -1
        else
          match Hashtbl.find_opt t.bunches.(v) w with
          | Some dwv -> t.pivot_dist.(i).(u) + dwv
          | None -> loop (i + 1) v u
      end
    in
    loop 0 u v
  end

let k t = t.k

let size t =
  let total = ref 0 in
  Array.iter (fun b -> total := !total + Hashtbl.length b) t.bunches;
  !total + (t.k * Array.length t.levels)

let levels t = t.levels
