module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

type witness = {
  parent : int array;
  parent_edge : int array;
  contributed : int array;
  calls_alive : int array;
  kept_all : bool array;
  crashed : bool array;
  rejoined : bool array;
      (** crashed, restarted, and reintegrated by the repair pass —
          audited like any live vertex, and counted in the verdict *)
  max_abort_q : int;
}

type check = { name : string; ok : bool; detail : string }

type verdict = {
  checks : check list;
  live : int;
  pairs : int;
  max_stretch : float;
  stretch_bound : float;
  size_ratio : float;
  components : int;
  rejoined : int;
}

let ok v = List.for_all (fun c -> c.ok) v.checks

let stretch_bound plan =
  Bounds.skeleton_distortion ~n:plan.Plan.n ~d:plan.Plan.d ~eps:plan.Plan.eps

(* ------------------------------------------------------------------ *)
(* BFS over a vertex-filtered adjacency (crashed vertices removed). *)

type adj = { off : int array; dst : int array }

let build_adj ~n ~alive iter_pairs =
  let deg = Array.make n 0 in
  iter_pairs (fun u v ->
      if alive u && alive v then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end);
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  let dst = Array.make off.(n) 0 in
  let cursor = Array.copy off in
  iter_pairs (fun u v ->
      if alive u && alive v then begin
        dst.(cursor.(u)) <- v;
        cursor.(u) <- cursor.(u) + 1;
        dst.(cursor.(v)) <- u;
        cursor.(v) <- cursor.(v) + 1
      end);
  { off; dst }

let bfs adj ~n ~src dist queue =
  Array.fill dist 0 n (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = adj.off.(u) to adj.off.(u + 1) - 1 do
      let v = adj.dst.(i) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

(* ------------------------------------------------------------------ *)

let run ?(sources = 8) ?(seed = 1) ?(down_edge = fun _ -> false)
    ?(per_component = false) ?(metrics = Obs.Metrics.disabled)
    ~(plan : Plan.t) ~witness g spanner =
  let n = Graph.n g in
  let w = witness in
  let live v = not w.crashed.(v) in
  let live_count = ref 0 and rejoined_count = ref 0 in
  for v = 0 to n - 1 do
    if live v then begin
      incr live_count;
      if w.rejoined.(v) then incr rejoined_count
    end
  done;
  (* A check accumulates its first few violations into the detail. *)
  let violations = ref 0 and examples = ref [] in
  let fail detail =
    incr violations;
    if List.length !examples < 3 then examples := detail :: !examples
  in
  let close name ok_detail =
    let c =
      if !violations = 0 then { name; ok = true; detail = ok_detail }
      else
        {
          name;
          ok = false;
          detail =
            Printf.sprintf "%d violation(s): %s" !violations
              (String.concat "; " (List.rev !examples));
        }
    in
    violations := 0;
    examples := [];
    c
  in

  (* 1. subset: S is a set of real edges of G. *)
  Edge_set.iter spanner (fun e ->
      match Graph.edge_endpoints g e with
      | u, v ->
          if not (u >= 0 && v >= 0 && u < n && v < n && u <> v) then
            fail (Printf.sprintf "edge %d has endpoints (%d,%d)" e u v)
      | exception _ -> fail (Printf.sprintf "edge id %d outside the graph" e));
  let size = Edge_set.cardinal spanner in
  let subset = close "subset" (Printf.sprintf "%d edges, all in G" size) in

  (* 2. forest: hook edges present, incident, and acyclic. *)
  let uf = Util.Union_find.create n in
  let hooks = ref 0 in
  for v = 0 to n - 1 do
    if live v && w.parent.(v) >= 0 then begin
      let p = w.parent.(v) and e = w.parent_edge.(v) in
      incr hooks;
      if p >= n || e < 0 then
        fail (Printf.sprintf "vertex %d: malformed label (parent %d, edge %d)" v p e)
      else if not (Edge_set.mem spanner e) then
        fail (Printf.sprintf "vertex %d: hook edge %d missing from spanner" v e)
      else if down_edge e then
        fail (Printf.sprintf "vertex %d: hook edge %d is down" v e)
      else
        let a, b = Graph.edge_endpoints g e in
        if not ((a = v && b = p) || (a = p && b = v)) then
          fail
            (Printf.sprintf "vertex %d: hook edge %d joins (%d,%d), not parent %d"
               v e a b p)
        else if live p && not (Util.Union_find.union uf v p) then
          fail (Printf.sprintf "vertex %d: hook edge %d closes a cycle" v e)
    end
  done;
  let forest = close "forest" (Printf.sprintf "%d hook edges, acyclic" !hooks) in

  (* 3. contribution: the per-vertex accounting behind Lemma 6. *)
  let worst = ref 0. in
  for v = 0 to n - 1 do
    if live v then begin
      let deg = Graph.degree g v in
      let slack = if w.kept_all.(v) then deg else Stdlib.min deg w.max_abort_q in
      let cap = w.calls_alive.(v) + slack in
      if deg > 0 then
        worst := Stdlib.max !worst (float_of_int w.contributed.(v) /. float_of_int cap);
      if w.contributed.(v) > cap then
        fail
          (Printf.sprintf "vertex %d kept %d edges, cap %d (alive %d calls, deg %d%s)"
             v w.contributed.(v) cap w.calls_alive.(v) deg
             (if w.kept_all.(v) then ", kept-all" else ""))
    end
  done;
  let contribution =
    close "contribution" (Printf.sprintf "per-vertex cap respected (worst %.2f)" !worst)
  in

  (* 4. stretch: sampled audit of Theorem 2 on the surviving graph. *)
  let bound =
    Bounds.skeleton_distortion ~n:plan.Plan.n ~d:plan.Plan.d ~eps:plan.Plan.eps
  in
  (* Down edges belong to neither side of the comparison: the audit is
     of the spanner against the graph that actually survives. *)
  let adj_g =
    build_adj ~n ~alive:live (fun f ->
        Graph.iter_edges g (fun e u v -> if not (down_edge e) then f u v))
  in
  let adj_h =
    build_adj ~n ~alive:live (fun f ->
        Edge_set.iter spanner (fun e ->
            if not (down_edge e) then begin
              let u, v = Graph.edge_endpoints g e in
              f u v
            end))
  in
  let rng = Util.Prng.create ~seed in
  let live_vertices = Array.of_seq (Seq.filter live (Seq.init n Fun.id)) in
  Util.Prng.shuffle rng live_vertices;
  let dg = Array.make n (-1)
  and dh = Array.make n (-1)
  and queue = Array.make (Stdlib.max 1 n) 0 in
  (* Components of the surviving graph — BFS from shuffled vertices so
     per-component source picks stay seed-reproducible. *)
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  Array.iter
    (fun v ->
      if comp.(v) < 0 then begin
        bfs adj_g ~n ~src:v dg queue;
        for u = 0 to n - 1 do
          if dg.(u) >= 0 && comp.(u) < 0 then comp.(u) <- !ncomp
        done;
        incr ncomp
      end)
    live_vertices;
  (* Source sample: with [per_component], first one representative per
     live component (a source never audits across a cut — pairs
     unreachable in the surviving graph are skipped — so a component
     with no source would go entirely unchecked), then shuffled extras
     up to the budget. *)
  let srcs =
    if not per_component then
      Array.sub live_vertices 0 (Stdlib.min sources (Array.length live_vertices))
    else begin
      let budget =
        Stdlib.min
          (Stdlib.max sources !ncomp)
          (Array.length live_vertices)
      in
      let seen = Array.make (Stdlib.max 1 !ncomp) false in
      let reps = ref [] and extras = ref [] in
      Array.iter
        (fun v ->
          if not seen.(comp.(v)) then begin
            seen.(comp.(v)) <- true;
            reps := v :: !reps
          end
          else extras := v :: !extras)
        live_vertices;
      let buf = Array.make budget 0 in
      let i = ref 0 in
      List.iter
        (fun v ->
          if !i < budget then begin
            buf.(!i) <- v;
            incr i
          end)
        (List.rev !reps @ List.rev !extras);
      buf
    end
  in
  let pairs = ref 0 and max_stretch = ref 1. in
  for i = 0 to Array.length srcs - 1 do
    let s = srcs.(i) in
    bfs adj_g ~n ~src:s dg queue;
    bfs adj_h ~n ~src:s dh queue;
    for v = 0 to n - 1 do
      if v <> s && dg.(v) > 0 then begin
        incr pairs;
        if dh.(v) < 0 then
          fail (Printf.sprintf "pair (%d,%d) connected in G\\crashed, not in S" s v)
        else begin
          let st = float_of_int dh.(v) /. float_of_int dg.(v) in
          if st > !max_stretch then max_stretch := st;
          if st > bound then
            fail
              (Printf.sprintf "pair (%d,%d): stretch %.2f > bound %.2f" s v st bound)
        end
      end
    done
  done;
  let npairs = !pairs in
  let stretch =
    close "stretch"
      (Printf.sprintf "%d pairs, max stretch %.2f <= %.2f" npairs !max_stretch bound)
  in
  let verdict =
    {
      checks = [ subset; forest; contribution; stretch ];
      live = !live_count;
      pairs = npairs;
      max_stretch = !max_stretch;
      stretch_bound = bound;
      size_ratio =
        float_of_int size /. Bounds.skeleton_size ~n:plan.Plan.n ~d:plan.Plan.d;
      components = !ncomp;
      rejoined = !rejoined_count;
    }
  in
  if Obs.Metrics.enabled metrics then
    List.iter
      (fun c ->
        Obs.Metrics.incr
          (Obs.Metrics.counter metrics "certify_checks"
             ~labels:
               [
                 ("check", c.name);
                 ("outcome", (if c.ok then "pass" else "fail"));
               ]))
      verdict.checks;
  verdict

(* ------------------------------------------------------------------ *)

let pp fmt v =
  Format.fprintf fmt
    "certification: %s (%d live vertices, %d pairs, size ratio %.2f%s%s)"
    (if ok v then "PASS" else "FAIL")
    v.live v.pairs v.size_ratio
    (if v.components > 1 then Printf.sprintf ", %d components" v.components
     else "")
    (if v.rejoined > 0 then Printf.sprintf ", %d rejoined" v.rejoined else "");
  List.iter
    (fun c ->
      Format.fprintf fmt "@.  [%s] %s: %s" (if c.ok then "ok" else "FAIL") c.name
        c.detail)
    v.checks

