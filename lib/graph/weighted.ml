type t = { g : Graph.t; w : float array }

let of_graph g ~weights =
  if Array.length weights <> Graph.m g then
    invalid_arg "Weighted.of_graph: one weight per edge required";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Weighted.of_graph: weights must be positive")
    weights;
  { g; w = weights }

let random rng g ~lo ~hi =
  if not (0. < lo && lo <= hi) then invalid_arg "Weighted.random: need 0 < lo <= hi";
  of_graph g
    ~weights:
      (Array.init (Graph.m g) (fun _ ->
           if hi = lo then lo else lo +. Util.Prng.float rng (hi -. lo)))

let unit g = of_graph g ~weights:(Array.make (Graph.m g) 1.)
let graph t = t.g
let weight t e = t.w.(e)

let dijkstra t ~src ~usable =
  let n = Graph.n t.g in
  let dist = Array.make n infinity in
  let heap = Util.Fheap.create () in
  dist.(src) <- 0.;
  Util.Fheap.push heap ~key:0. src;
  let rec drain () =
    match Util.Fheap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
        if d <= dist.(u) then
          Graph.iter_neighbors t.g u (fun v e ->
              if usable e then begin
                let nd = d +. t.w.(e) in
                if nd < dist.(v) then begin
                  dist.(v) <- nd;
                  Util.Fheap.push heap ~key:nd v
                end
              end);
        drain ()
  in
  drain ();
  dist

let distances t ~src = dijkstra t ~src ~usable:(fun _ -> true)
let spanner_distances t s ~src = dijkstra t ~src ~usable:(Edge_set.mem s)

let max_stretch rng t s ~sources =
  let n = Graph.n t.g in
  let k = Stdlib.min sources n in
  let srcs = Util.Prng.sample_without_replacement rng ~k ~n in
  let worst = ref 1. in
  Array.iter
    (fun src ->
      let dg = distances t ~src and dh = spanner_distances t s ~src in
      for v = 0 to n - 1 do
        if v <> src && dg.(v) < infinity then
          if dh.(v) = infinity then worst := infinity
          else begin
            let ratio = dh.(v) /. dg.(v) in
            if ratio > !worst then worst := ratio
          end
      done)
    srcs;
  !worst
