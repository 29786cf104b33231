(* Probes of single layers, run by a traced run on the workload's own
   inputs.  Each probe drives one public entry point of the layer and
   divides its wall time and allocation by the work it did. *)

module Graph = Graphlib.Graph
module Sim = Distnet.Sim
module Fault = Distnet.Fault
module SD = Spanner.Skeleton_dist

let sum_costs = List.fold_left (fun (s, w) c -> (s +. c.Meter.wall_s, w +. c.Meter.words)) (0., 0.)

(* The engine alone: every node sends one word to every neighbour each
   round, with no protocol behind it.  Enough rounds to put about two
   million messages through.  Returns ns and words per message. *)
let sim sp graphs =
  let per_round = List.fold_left (fun acc g -> acc + (2 * Graph.m g)) 0 graphs in
  let rounds = max 1 (2_000_000 / max 1 per_round) in
  let costs =
    Meter.span sp "probe.sim" (fun () ->
        List.map
          (fun g ->
            let net : unit Sim.t = Sim.create g in
            snd
              (Meter.measure (fun () ->
                   for _ = 1 to rounds do
                     for u = 0 to Graph.n g - 1 do
                       Graph.iter_neighbors g u (fun v _ -> Sim.send net ~src:u ~dst:v ~words:1 ())
                     done;
                     ignore (Sim.step net (fun ~dst:_ ~src:_ () -> ()))
                   done)))
          graphs)
  in
  let wall, words = sum_costs costs in
  let msgs = float_of_int (rounds * per_round) in
  (wall *. 1e9 /. msgs, words /. msgs)

(* The ARQ under loss: [Protocols.reliable_bfs] at drop 0.2.  Returns
   ns and words per node-round. *)
let arq sp ~seed graphs =
  let node_rounds = ref 0 in
  let costs =
    Meter.span sp "probe.arq" (fun () ->
        List.map
          (fun g ->
            let faults = Fault.make ~seed ~graph:g { Fault.default_spec with Fault.drop = 0.2 } in
            let (stats, _), c =
              Meter.measure (fun () -> Distnet.Protocols.reliable_bfs ~faults g ~root:0)
            in
            node_rounds := !node_rounds + (Graph.n g * stats.Sim.rounds);
            c)
          graphs)
  in
  let wall, words = sum_costs costs in
  let nr = float_of_int (max 1 !node_rounds) in
  (wall *. 1e9 /. nr, words /. nr)

(* Runs every variant of [run] on each build in turn, so that a slow
   stretch of the machine falls on all variants alike, and returns each
   variant's summed cost. *)
let interleaved sp name builds variants =
  Meter.span sp name (fun () ->
      let sums = Array.make (List.length variants) (0., 0.) in
      List.iter
        (fun b ->
          List.iteri
            (fun i run ->
              let c = snd (Meter.measure (fun () -> run b)) in
              let s, w = sums.(i) in
              sums.(i) <- (s +. c.Meter.wall_s, w +. c.Meter.words))
            variants)
        builds;
      Array.to_list sums)

(* What the ARQ costs when nothing is lost: each of the workload's
   builds under a zero-loss plan (which routes every link through the
   ARQ) against the same build with no plan (the Direct engine).
   Returns the wall-time and word ratios. *)
let tax sp builds =
  match
    interleaved sp "probe.tax" builds
      [
        (fun (g, _, seed) -> ignore (SD.build ~seed g));
        (fun (g, _, seed) ->
          ignore (SD.build ~faults:(Fault.make ~seed ~graph:g Fault.default_spec) ~seed g));
      ]
  with
  | [ (direct_s, direct_w); (arq_s, arq_w) ] -> (arq_s /. direct_s, arq_w /. direct_w)
  | _ -> assert false

type sinks = {
  trace_x : float;
  metrics_x : float;
  spans_x : float;
  prof_x : float;
  timer_sweeps : int;  (** [arq_timer_sweep] region entries *)
}

(* Each of the workload's builds once per observability sink, the sink
   switched on only through its public argument (the ambient sink for
   [Prof]), against the build with every sink off.  A fresh sink per
   build, so no build carries another's records. *)
let sinks sp builds =
  let timer_sweeps = ref 0 in
  let prof (g, faults, seed) =
    let p = Obs.Prof.create () in
    Obs.Prof.set_current p;
    Fun.protect
      ~finally:(fun () -> Obs.Prof.set_current Obs.Prof.disabled)
      (fun () -> ignore (SD.build ?faults ~seed g));
    (* Entry counts only: the profiler's wall time and words include
       its own sampling. *)
    List.iter
      (fun r ->
        if r.Obs.Prof.name = "arq_timer_sweep" then
          timer_sweeps := !timer_sweeps + r.Obs.Prof.count)
      (Obs.Prof.rows p)
  in
  match
    interleaved sp "probe.sinks" builds
      [
        (fun (g, faults, seed) -> ignore (SD.build ?faults ~seed g));
        (fun (g, faults, seed) -> ignore (SD.build ?faults ~tracer:(Distnet.Trace.create ()) ~seed g));
        (fun (g, faults, seed) -> ignore (SD.build ?faults ~metrics:(Obs.Metrics.create ()) ~seed g));
        (fun (g, faults, seed) -> ignore (SD.build ?faults ~spans:(Obs.Span.create ()) ~seed g));
        prof;
      ]
  with
  | [ (off, _); (trace, _); (metrics, _); (spans, _); (prof, _) ] ->
      {
        trace_x = trace /. off;
        metrics_x = metrics /. off;
        spans_x = spans /. off;
        prof_x = prof /. off;
        timer_sweeps = !timer_sweeps;
      }
  | _ -> assert false
