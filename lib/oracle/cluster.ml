module Graph = Graphlib.Graph

type t = {
  g : Graph.t;
  dist : int array;  (** -1 outside the last cluster grown *)
  parent : int array;
  queue : int array;  (** the last cluster, in the order it was admitted *)
  mutable len : int;
}

let create g =
  let n = Graph.n g in
  {
    g;
    dist = Array.make n (-1);
    parent = Array.make n (-1);
    queue = Array.make n 0;
    len = 0;
  }

let grow t ~bound w =
  let dist = t.dist and parent = t.parent and queue = t.queue in
  for i = 0 to t.len - 1 do
    dist.(queue.(i)) <- -1
  done;
  dist.(w) <- 0;
  parent.(w) <- w;
  queue.(0) <- w;
  let len = ref 1 and x = ref w in
  (* One closure per cluster, not per vertex expanded. *)
  let admit y _ =
    if dist.(y) < 0 && dist.(!x) + 1 < bound.(y) then begin
      dist.(y) <- dist.(!x) + 1;
      parent.(y) <- !x;
      queue.(!len) <- y;
      incr len
    end
  in
  let head = ref 0 in
  while !head < !len do
    x := queue.(!head);
    incr head;
    Graph.iter_neighbors t.g !x admit
  done;
  t.len <- !len;
  !len

let member t i = t.queue.(i)
let dist t v = t.dist.(v)
let parent t v = t.parent.(v)
