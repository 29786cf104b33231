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
   programs and lifted onto the lossy network by the Reliable ARQ
   runtime.  BFS becomes unweighted Bellman-Ford — a node re-announces
   whenever its distance improves — because under delay and
   retransmission the neat layer-by-layer arrival order is gone. *)

(* A run still going after this many rounds is wedged. *)
let max_rounds = 1_000_000

(* Run a node program to completion.  A node starts when it joins (at
   round 0 unless the plan schedules a late join); a crashed node is
   frozen and resumes with its state if the plan restarts it.  The run
   ends when nothing is in flight, no node up in the next round has
   work pending, no join is pending and the last restart has landed —
   a reborn node may have timers to fire. *)
module Run (N : Reliable.PROTOCOL) = struct
  module R = Reliable.Make (N)

  let run name ?(faults = Fault.none) ?tracer ?metrics ?spans g =
    let n = Graph.n g in
    let rt = R.create ~faults ?tracer ?metrics ?spans g in
    let net = R.net rt in
    for v = 0 to n - 1 do
      if Fault.joined faults ~round:0 v then R.start rt v
    done;
    let joins = ref (Fault.join_schedule faults) in
    let rec landed round =
      match !joins with
      | (r, v) :: rest when r <= round ->
          joins := rest;
          R.start rt v;
          landed round
      | _ -> ()
    in
    let last_restart = Fault.last_restart_round faults in
    while
      (not (R.idle rt ~round:(Sim.round net + 1)))
      || !joins <> []
      || Sim.round net < last_restart
    do
      if Sim.round net >= max_rounds then
        invalid_arg
          (Format.asprintf "Protocols.%s: round %d: budget exhausted (%a)" name
             (Sim.round net) Sim.pp_stats (Sim.stats net));
      R.step rt ~landed ~suspect:(fun ~by:_ _ -> ())
    done;
    (Sim.stats net, Array.init n (R.inner rt))
end

let reliable_bfs ?faults ?tracer ?metrics ?spans g ~root =
  check_root "reliable_bfs" g root;
  let module Bfs = Run (struct
    type state = int (* distance from root; -1 = unknown *)
    type message = int (* "your distance is at most this" *)

    let message_words _ = 1

    let announce g v d =
      Graph.fold_neighbors g v ~init:[] ~f:(fun acc w _ -> (w, d + 1) :: acc)

    let init g v = if v = root then (0, announce g v 0) else (-1, [])

    let receive g ~round:_ v st ~senders:_ ~payloads k =
      let best = ref st in
      for i = 0 to k - 1 do
        if !best < 0 || payloads.(i) < !best then best := payloads.(i)
      done;
      if !best >= 0 && (st < 0 || !best < st) then (!best, announce g v !best)
      else (st, [])
  end) in
  Bfs.run "reliable_bfs" ?faults ?tracer ?metrics ?spans g

let reliable_flood ?faults ?tracer ?metrics ?spans g ~root ~payload_words =
  check_root "reliable_flood" g root;
  let module Flood = Run (struct
    type state = bool
    type message = unit

    let message_words () = payload_words

    (* Every neighbor but the first [k] [senders]. *)
    let fanout g v ~senders k =
      let rec sent w i = i < k && (senders.(i) = w || sent w (i + 1)) in
      Graph.fold_neighbors g v ~init:[] ~f:(fun acc w _ ->
          if sent w 0 then acc else (w, ()) :: acc)

    let init g v =
      if v = root then (true, fanout g v ~senders:[||] 0) else (false, [])

    let receive g ~round:_ v st ~senders ~payloads:_ k =
      if (not st) && k > 0 then (true, fanout g v ~senders k) else (st, [])
  end) in
  Flood.run "reliable_flood" ?faults ?tracer ?metrics ?spans g
