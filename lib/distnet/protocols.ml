module Graph = Graphlib.Graph

let check_root name g root =
  let n = Graph.n g in
  if root < 0 || root >= n then
    invalid_arg
      (Printf.sprintf "Protocols.%s: root %d is not a vertex (n = %d)" name
         root n)

let bfs ?faults ?tracer g ~root =
  check_root "bfs" g root;
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let t = Sim.create ?faults ?tracer g in
  let announce v d =
    dist.(v) <- d;
    Graph.iter_neighbors g v (fun w _ ->
        if dist.(w) < 0 then Sim.send t ~src:v ~dst:w ~words:1 (d + 1))
  in
  announce root 0;
  Sim.run_until_quiescent t (fun ~dst ~src:_ d ->
      if dist.(dst) < 0 then announce dst d);
  (Sim.stats t, dist)

let flood ?faults ?tracer g ~root ~payload_words =
  check_root "flood" g root;
  let n = Graph.n g in
  let reached = Array.make n false in
  let t = Sim.create ?faults ?tracer g in
  let forward v ~from =
    reached.(v) <- true;
    Graph.iter_neighbors g v (fun w _ ->
        (* [reached w] may flip between send and delivery; that
           duplicate traffic is the real cost of flooding and is
           counted faithfully. *)
        if w <> from && not reached.(w) then
          Sim.send t ~src:v ~dst:w ~words:payload_words ())
  in
  forward root ~from:(-1);
  Sim.run_until_quiescent t (fun ~dst ~src () ->
      if not reached.(dst) then forward dst ~from:src);
  (Sim.stats t, reached)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant variants: the same algorithms written as node
   programs and driven over the lossy network by the Reliable ARQ
   runtime.  BFS becomes unweighted Bellman-Ford — a node re-announces
   whenever its distance improves — because under delay and
   retransmission the neat layer-by-layer arrival order is gone. *)

(* A run still going after this many rounds is wedged. *)
let max_rounds = 1_000_000

(* Run a node program to completion: [root] starts by sending [first]
   to every neighbor, and [receive] handles a visit.  A node starts when
   it joins (at round 0 unless the plan schedules a late join); a
   crashed node is frozen and resumes with its state if the plan
   restarts it.  The run ends when nothing is in flight, no node up in
   the next round has work pending, no join is pending and the last
   restart has landed — a reborn node may have timers to fire. *)
let run name g rt faults ~root ~first ~receive =
  let hello acc w _ = (w, first) :: acc in
  let start v =
    Reliable.start rt v
      (if v = root then Graph.fold_neighbors g v ~init:[] ~f:hello else [])
  in
  for v = 0 to Graph.n g - 1 do
    if Fault.joined faults ~round:0 v then start v
  done;
  let net = Reliable.net rt in
  let joins = ref (Fault.join_schedule faults) in
  let rec landed round =
    match !joins with
    | (r, v) :: rest when r <= round ->
        joins := rest;
        start v;
        landed round
    | _ -> ()
  in
  let last_restart = Fault.last_restart_round faults in
  while
    (not (Reliable.idle rt ~round:(Sim.round net + 1)))
    || !joins <> []
    || Sim.round net < last_restart
  do
    if Sim.round net >= max_rounds then
      invalid_arg
        (Format.asprintf "Protocols.%s: round %d: budget exhausted (%a)" name
           (Sim.round net) Sim.pp_stats (Sim.stats net));
    Reliable.step rt ~receive ~landed ~suspect:(fun ~by:_ _ -> ())
  done;
  Sim.stats net

let reliable_bfs ?(faults = Fault.none) ?tracer ?metrics ?spans g ~root =
  check_root "reliable_bfs" g root;
  (* Distance from root; -1 = unknown.  A message says "your distance
     is at most this". *)
  let dist = Array.make (Graph.n g) (-1) in
  dist.(root) <- 0;
  let rt =
    Reliable.create ~faults ?tracer ?metrics ?spans ~words:(fun _ -> 1) g
  in
  let receive v ~senders:_ ~payloads k =
    let best = ref dist.(v) in
    for i = 0 to k - 1 do
      if !best < 0 || payloads.(i) < !best then best := payloads.(i)
    done;
    if !best >= 0 && (dist.(v) < 0 || !best < dist.(v)) then begin
      dist.(v) <- !best;
      Graph.iter_neighbors g v (fun w _ ->
          Reliable.send rt ~src:v ~dst:w (!best + 1))
    end
  in
  let stats = run "reliable_bfs" g rt faults ~root ~first:1 ~receive in
  (stats, dist)

let reliable_flood ?(faults = Fault.none) ?tracer ?metrics ?spans g ~root
    ~payload_words =
  check_root "reliable_flood" g root;
  let reached = Array.make (Graph.n g) false in
  reached.(root) <- true;
  let rt =
    Reliable.create ~faults ?tracer ?metrics ?spans
      ~words:(fun () -> payload_words)
      g
  in
  (* Forward to every neighbor but the first [k] [senders]. *)
  let receive v ~senders ~payloads:_ k =
    if (not reached.(v)) && k > 0 then begin
      reached.(v) <- true;
      let rec sent w i = i < k && (senders.(i) = w || sent w (i + 1)) in
      Graph.iter_neighbors g v (fun w _ ->
          if not (sent w 0) then Reliable.send rt ~src:v ~dst:w ())
    end
  in
  let stats = run "reliable_flood" g rt faults ~root ~first:() ~receive in
  (stats, reached)
