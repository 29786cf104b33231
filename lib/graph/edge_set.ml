type t = { g : Graph.t; bits : Util.Bitset.t }

let create g = { g; bits = Util.Bitset.create (Graph.m g) }
let host t = t.g
let add t e = Util.Bitset.set t.bits e
let remove t e = Util.Bitset.clear t.bits e
let mem t e = Util.Bitset.mem t.bits e
let cardinal t = Util.Bitset.cardinal t.bits

let add_all t other =
  if Graph.m other.g <> Graph.m t.g then
    invalid_arg "Edge_set.add_all: different host graphs";
  Util.Bitset.iter other.bits (fun e -> add t e)

let iter t f = Util.Bitset.iter t.bits f

let to_graph t =
  let b = Graph.Builder.create ~n:(Graph.n t.g) in
  iter t (fun e ->
      let u, v = Graph.edge_endpoints t.g e in
      Graph.Builder.add_edge b u v);
  Graph.Builder.build b

let union a b =
  let t = create a.g in
  add_all t a;
  add_all t b;
  t

let of_list g edges =
  let t = create g in
  List.iter (add t) edges;
  t

let copy t =
  let fresh = create t.g in
  add_all fresh t;
  fresh
