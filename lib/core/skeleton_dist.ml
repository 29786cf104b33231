module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set
module Sim = Distnet.Sim
module Fault = Distnet.Fault
module Trace = Distnet.Trace
module Reliable = Distnet.Reliable
module Recovery = Distnet.Recovery

(* Int-keyed tables, without polymorphic compare on every probe. *)
module Itbl = Hashtbl.Make (Int)

type recovery_report = {
  crashed : int;
  orphaned : int;
  recovered_edges : int;
  checkpoints : int;
  retransmissions : int;
  dead_letters : int;
}

type repair_outcome = Intact | Patched | Degraded | Partitioned of int

type repair_report = {
  outcome : repair_outcome;
  dead_spanner_edges : int;
  rehooked : int;
  replaced_edges : int;
  keep_all_fallbacks : int;
  repair_rounds : int;
  components : int;
  rejoined : int;  (** restarted nodes reintegrated by this pass *)
}

let no_repair =
  {
    outcome = Intact;
    dead_spanner_edges = 0;
    rehooked = 0;
    replaced_edges = 0;
    keep_all_fallbacks = 0;
    repair_rounds = 0;
    components = 1;
    rejoined = 0;
  }

let pp_outcome ppf = function
  | Intact -> Format.pp_print_string ppf "intact"
  | Patched -> Format.pp_print_string ppf "patched"
  | Degraded -> Format.pp_print_string ppf "degraded"
  | Partitioned k -> Format.fprintf ppf "partitioned(%d)" k

exception
  Stuck of {
    phase : string;
    waiting_on : (int * int) list;
    stats : Sim.stats;
  }

let () =
  Printexc.register_printer (function
    | Stuck { phase; waiting_on; stats } ->
        Some
          (Format.asprintf "Skeleton_dist.Stuck(phase %s; waiting on %s; %a)"
             phase
             (String.concat ", "
                (List.map
                   (fun (v, w) -> Printf.sprintf "%d->%d" v w)
                   waiting_on))
             Sim.pp_stats stats)
    | _ -> None)

type result = {
  spanner : Edge_set.t;
  plan : Plan.t;
  aborts : int;
  stats : Sim.stats;
  witness : Certify.witness;
  recovery : recovery_report;
  repair : repair_report;
  dead_edges : int list;
}

type msg =
  | Exchange of { cl : int; fu : int }
  | Report_none
  | Report of { edge : int; target_cl : int; target_fu : int }
  | On_path of { edge : int; new_cl : int; new_fu : int }
  | Off_path of { new_cl : int; new_fu : int }
  | P2_register
  | P2_unregister
  | Die_start
  | Die_up of { entries : (int * int) list; finished : bool }
  | Final_down of { edges : int list; finished : bool }
  | Abort
  | Dead
  | Probe  (** recovery: "are you there?" — the transport ack is the answer *)
  | Orphan  (** recovery: "our subtree lost its root path; abort with me" *)
  (* incremental repair (topology churn): a detached fragment re-enters
     the Expand state machine on its bounded neighborhood *)
  | Repair_id of { root : int }  (** repair exchange: my fragment root (-1 = attached) *)
  | Repair_ack of { root : int }  (** answer to [Repair_id] *)
  | Repair_report of { edge : int }  (** repair convergecast candidate *)
  | Repair_none
  | Repair_on_path  (** repair wave: your merged best won, continue the flip *)
  | Repair_keep_all  (** repair fallback: fragment degrades to keep-all *)

let words = function
  | Exchange _ -> 2
  | Report_none -> 1
  | Report _ -> 3
  | On_path _ -> 3
  | Off_path _ -> 2
  | P2_register | P2_unregister -> 1
  | Die_start -> 1
  | Die_up { entries; _ } -> (2 * List.length entries) + 1
  | Final_down { edges; _ } -> List.length edges + 1
  | Abort -> 1
  | Dead -> 1
  | Probe -> 1
  | Orphan -> 1
  | Repair_id _ | Repair_ack _ -> 1
  | Repair_report _ -> 2
  | Repair_none -> 1
  | Repair_on_path -> 1
  | Repair_keep_all -> 1

(* The transport a build runs on, chosen once per build: protocol
   messages ride the engine bare on a loss-free network, as in the
   paper's model (no acks, no sequence numbers: word accounting and the
   produced spanner match the original driver), and the Reliable
   stop-and-wait ARQ on a faulty one, whose abandoned transmissions
   double as the failure detector.  Engine readings and sends are the
   same on either. *)
module Transport = struct
  type t = Bare of msg Sim.t | Arq of msg Reliable.t

  (* Every node is started at once: a node absent from the network is
     silenced by the engine, not by the transport. *)
  let create ?tracer ~metrics ~spans faults g =
    if Fault.is_none faults then
      Bare (Sim.create ~faults ?tracer ~metrics ~spans g)
    else begin
      let rt = Reliable.create ~faults ?tracer ~metrics ~spans ~words g in
      for v = 0 to Graph.n g - 1 do
        Reliable.start rt v []
      done;
      Arq rt
    end

  let round = function
    | Bare net -> Sim.round net
    | Arq rt -> Sim.round (Reliable.net rt)

  let stats = function
    | Bare net -> Sim.stats net
    | Arq rt -> Sim.stats (Reliable.net rt)

  let take_window_max = function
    | Bare net -> Sim.take_window_max net
    | Arq rt -> Sim.take_window_max (Reliable.net rt)

  let edge_up t e =
    match t with
    | Bare net -> Sim.edge_up net e
    | Arq rt -> Sim.edge_up (Reliable.net rt) e

  (* An ARQ send waits in the sender's outbox until its next visit. *)
  let send t ~src ~dst m =
    match t with
    | Bare net -> Sim.send net ~src ~dst ~words:(words m) m
    | Arq rt -> Reliable.send rt ~src ~dst m

  (* Nothing of [v]'s toward [w] is queued or unacknowledged: the
     streaming phases offer their next batch only on an idle link. *)
  let link_idle t v w =
    match t with
    | Bare _ -> true
    | Arq rt -> Reliable.link_idle (Reliable.endpoint rt v) w

  let idle = function
    | Bare net -> Sim.quiescent net
    | Arq rt -> Reliable.idle rt ~round:(Sim.round (Reliable.net rt))
end

(* A per-node waiting set: one flag byte per slot (the peers still
   awaited) and one count per node.  A phase ends when every live
   node's set for it has drained, which (unlike running the network to
   quiescence) still works when a message can be lost or its sender can
   crash mid-phase. *)
type waits = { on : Bytes.t; count : int array }

(* Per-slot flags are bytes: ['\001'] set, ['\000'] clear. *)
let flag b j = Bytes.get b j <> '\000'
let set_flag b j v = Bytes.set b j (if v then '\001' else '\000')

(* Per-slot state, one array per field, allocated once per build and
   shared by every node.  A node's slots are its neighbours: slot
   [nd.off + i] is the [i]-th entry of its CSR row. *)
type slots = {
  nb : int array;  (** neighbour, in CSR row order *)
  nb_e : int array;  (** the edge to [nb.(j)] *)
  nb_dead : Bytes.t;  (** [nb.(j)] written off: suspected or announced dead *)
  (* per-call scratch *)
  nb_heard : Bytes.t;  (** an [Exchange] from [nb.(j)] arrived this call *)
  nb_cl : int array;  (** [nb.(j)]'s last [Exchange] this call: its cl *)
  nb_fu : int array;  (** ... and its fu *)
  ex_waiting : waits;  (** exchange: neighbours awaited *)
  cv_waiting : waits;  (** convergecast: children awaited *)
  die_waiting : waits;  (** dying: children awaited *)
  (* incremental repair scratch (only touched by the repair pass) *)
  rp_nb : int array;  (** [nb.(j)]'s fragment root; [unheard] = none yet *)
  rp_waiting : waits;  (** repair exchange: acks awaited *)
  rp_cv_waiting : waits;  (** repair convergecast *)
}

let unheard = min_int

(* Mutable per-node state.  Everything a node reads during the protocol
   is either local, carried by a received message, or part of the
   globally-known schedule — the driver below only sequences phases.

   Whatever a node keeps per neighbour lives in the build's [slots]:
   plain ints and flag bytes, filled in place over the node's slots at
   each call, never hashed and never boxed.  The rest of the per-call
   scratch is reset in place too.  A node walks its slots in one order,
   its CSR row's: that order sequences the exchange, death-notice and
   keep-all sends, and the dying phase's walk over the heard
   [Exchange]s, which fills [die_offer]'s queue and the center's merge
   and with them the [Die_up]/[Final_down] batches. *)
type node = {
  id : int;
  sl : slots;
  off : int;  (** first slot *)
  deg : int;  (** number of slots *)
  mutable alive : bool;
  mutable cl_center : int;
  mutable cl_fu : int;
  mutable ck_cl : int;  (** checkpointed [cl_center]; -1 = none yet *)
  mutable ck_fu : int;  (** checkpointed [cl_fu] *)
  mutable p1 : int;  (** parent towards the contracted vertex's center *)
  mutable p1_children : int list;
  mutable p2 : int;  (** parent towards the cluster's center *)
  mutable p2_children : int list;
  (* per-call scratch *)
  mutable deciding : bool;
  mutable report_sent : bool;
  mutable best_e : int;  (** candidate edge; -1 = none *)
  mutable best_cl : int;  (** its target cluster *)
  mutable best_fu : int;  (** and that cluster's fu *)
  mutable best_peer : int;  (** crossing neighbor of my own candidate *)
  mutable best_from : int;  (** child that supplied [best_e]; -1 = self *)
  mutable wave_done : bool;
  mutable is_dying : bool;
  die_queue : (int * int) Queue.t;
  mutable die_sent : int Itbl.t;  (** cl -> best edge forwarded; [no_table] until used *)
  mutable die_done_sent : bool;
  fin_queue : int Queue.t;
  mutable fin_src_done : bool;
  mutable fin_done_sent : bool;
  mutable fin_aborting : bool;
  mutable orphaned : bool;  (** crash recovery fired: exiting this call *)
  (* incremental repair scratch (only touched by the repair pass) *)
  mutable rp_root : int;  (** my fragment's repair root; -1 = attached *)
  mutable rp_parent : int;  (** parent within the repair forest *)
  mutable rp_children : int list;
  mutable rp_report_sent : bool;
  mutable rp_best_e : int;  (** candidate edge; -1 = none *)
  mutable rp_best_peer : int;  (** its crossing peer; -1 = from a child *)
  mutable rp_best_from : int;  (** child that supplied [rp_best_e]; -1 = self *)
}

(* Shared by every node that has not needed a [die_sent] table yet;
   never written. *)
let no_table : int Itbl.t = Itbl.create 1

let waits ~slots ~n = { on = Bytes.make slots '\000'; count = Array.make n 0 }

(* [g]'s CSR rows end to end: vertex [v]'s starts at slot [start.(v)]
   and lists its neighbours in the order {!Graph.iter_neighbors} visits
   them. *)
let make_slots g =
  let n = Graph.n g in
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + Graph.degree g v
  done;
  let len = start.(n) in
  let nb = Array.make len 0 and nb_e = Array.make len 0 in
  let k = ref 0 in
  let fill w e =
    nb.(!k) <- w;
    nb_e.(!k) <- e;
    incr k
  in
  for v = 0 to n - 1 do
    Graph.iter_neighbors g v fill
  done;
  let slots =
    {
      nb;
      nb_e;
      nb_dead = Bytes.make len '\000';
      nb_heard = Bytes.make len '\000';
      nb_cl = Array.make len 0;
      nb_fu = Array.make len 0;
      ex_waiting = waits ~slots:len ~n;
      cv_waiting = waits ~slots:len ~n;
      die_waiting = waits ~slots:len ~n;
      rp_nb = Array.make len unheard;
      rp_waiting = waits ~slots:len ~n;
      rp_cv_waiting = waits ~slots:len ~n;
    }
  in
  (slots, start)

let fresh_node sl start id =
  {
    id;
    sl;
    off = start.(id);
    deg = start.(id + 1) - start.(id);
    alive = true;
    cl_center = id;
    cl_fu = 0;
    ck_cl = -1;
    ck_fu = -1;
    p1 = -1;
    p1_children = [];
    p2 = -1;
    p2_children = [];
    deciding = false;
    report_sent = false;
    best_e = -1;
    best_cl = -1;
    best_fu = -1;
    best_peer = -1;
    best_from = -1;
    wave_done = false;
    is_dying = false;
    die_queue = Queue.create ();
    die_sent = no_table;
    die_done_sent = false;
    fin_queue = Queue.create ();
    fin_src_done = false;
    fin_done_sent = false;
    fin_aborting = false;
    orphaned = false;
    rp_root = -1;
    rp_parent = -1;
    rp_children = [];
    rp_report_sent = false;
    rp_best_e = -1;
    rp_best_peer = -1;
    rp_best_from = -1;
  }

(* [f j w e] for every slot [j] of [nd]: neighbour [w], joined by edge [e]. *)
let iter_nb nd f =
  for j = nd.off to nd.off + nd.deg - 1 do
    f j nd.sl.nb.(j) nd.sl.nb_e.(j)
  done

(* [w]'s slot at [nd], or -1 when [w] is not a neighbour. *)
let slot_of nd w =
  let j = ref nd.off and stop = nd.off + nd.deg in
  while !j < stop && nd.sl.nb.(!j) <> w do
    incr j
  done;
  if !j < stop then !j else -1

let is_dead nd w =
  let j = slot_of nd w in
  j >= 0 && flag nd.sl.nb_dead j

(* Wait on slot [j] of [nd]. *)
let await ws nd j =
  if not (flag ws.on j) then begin
    set_flag ws.on j true;
    ws.count.(nd.id) <- ws.count.(nd.id) + 1
  end

(* Wait on every child in [children]. *)
let rec await_all ws nd = function
  | [] -> ()
  | c :: children ->
      await ws nd (slot_of nd c);
      await_all ws nd children

(* Stop waiting on slot [j] (-1: not a neighbour); true when [nd] was
   waiting on it. *)
let release ws nd j =
  j >= 0
  && flag ws.on j
  && begin
       set_flag ws.on j false;
       ws.count.(nd.id) <- ws.count.(nd.id) - 1;
       true
     end

let pending ws nd = ws.count.(nd.id)

(* [f w] for every peer [w] that [nd] still waits on. *)
let awaited ws nd f =
  for j = nd.off to nd.off + nd.deg - 1 do
    if flag ws.on j then f nd.sl.nb.(j)
  done

let clear_waits ws nd =
  Bytes.fill ws.on nd.off nd.deg '\000';
  ws.count.(nd.id) <- 0

(* Slot [j]'s [Exchange] carried [cl] and [fu]; a later one this call
   overwrites them. *)
let hear_exchange nd j ~cl ~fu =
  set_flag nd.sl.nb_heard j true;
  nd.sl.nb_cl.(j) <- cl;
  nd.sl.nb_fu.(j) <- fu

(* Up to [cap] entries popped off [q], the last popped first. *)
let rec take_batch q cap acc =
  if cap = 0 || Queue.is_empty q then acc
  else take_batch q (cap - 1) (Queue.pop q :: acc)

(* Back to the last exchange-boundary checkpoint, if there is one. *)
let restore nd =
  if nd.ck_cl >= 0 then begin
    nd.cl_center <- nd.ck_cl;
    nd.cl_fu <- nd.ck_fu
  end

(* [l] without [w].  A list without [w] comes back as is: most scrubs
   reach a node [w] is no child of, and then allocate nothing. *)
let forget (w : int) l = if List.mem w l then List.filter (fun c -> c <> w) l else l

(* Empty a node's per-call scratch in place for the next call. *)
let reset_call_scratch nd =
  let sl = nd.sl in
  Bytes.fill sl.nb_heard nd.off nd.deg '\000';
  clear_waits sl.ex_waiting nd;
  nd.deciding <- false;
  clear_waits sl.cv_waiting nd;
  nd.report_sent <- false;
  nd.best_e <- -1;
  nd.best_peer <- -1;
  nd.best_from <- -1;
  nd.wave_done <- false;
  nd.is_dying <- false;
  Queue.clear nd.die_queue;
  if nd.die_sent != no_table then Itbl.reset nd.die_sent;
  clear_waits sl.die_waiting nd;
  nd.die_done_sent <- false;
  Queue.clear nd.fin_queue;
  nd.fin_src_done <- false;
  nd.fin_done_sent <- false;
  nd.fin_aborting <- false

let repairs faults =
  Fault.crash_schedule faults <> []
  || Fault.has_churn faults || Fault.has_restarts faults

let build_with ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
    ?(spans = Obs.Span.disabled) ?phase_round_limit ~plan ~sampling g =
  let n = Graph.n g in
  (* First of all sink uses: the ARQ counters, then the engine's
     instruments and the round-0 churn events. *)
  let tr = Transport.create ?tracer ~metrics ~spans faults g in
  let round_now () = Transport.round tr in
  let emit ~src ~dst m = Transport.send tr ~src ~dst m in
  let rec links_idle v = function
    | [] -> true
    | w :: ws -> Transport.link_idle tr v w && links_idle v ws
  in
  let sl, start = make_slots g in
  let nodes = Array.init n (fresh_node sl start) in
  Array.iter
    (fun nd -> nd.cl_fu <- Sampling.first_unsampled sampling nd.id)
    nodes;
  let edge_to nd w = Graph.edge_id g nd.id w in
  let spanner = Edge_set.create g in
  let aborts = ref 0 in
  let budget = plan.Plan.word_budget in
  let die_cap = Stdlib.max 1 (budget / 2) in
  let fin_cap = Stdlib.max 1 budget in

  (* Witness labels (Certify) and recovery bookkeeping. *)
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let contributed = Array.make n 0 in
  let calls_alive = Array.make n 0 in
  let kept_all = Array.make n false in
  (* Orphans detach their hook label (see [do_orphan]); the repair
     pass uses this to root them so the wave can reattach the
     fragment instead of leaving it on the keep-all rung. *)
  let orphan_detached = Array.make n false in
  let det = Recovery.Detector.create ~n in
  let checkpoints = ref 0 in
  let orphans = ref 0 in
  let recovered_edges = ref 0 in
  let suspicion_events = ref 0 in

  (* [crashed_now v]: is the fault plan holding [v] down at the current
     round?  This is the ENGINE's view — false again once a scheduled
     restart lands, so a reborn node's transport pumps and its probes
     ack.  Used only to freeze a down node's execution (the engine
     already silences its wire) — never to inform a live node's
     decisions, which see crashes exclusively through the failure
     detector.  [proto_dead v] is the PROTOCOL's view: a node that ever
     crashed stays out of the call machinery forever (its in-call state
     died with it); its reborn incarnation re-enters through the repair
     pass only.  Without restarts the two coincide, so crash-stop runs
     are untouched. *)
  let crash_round = Array.make n max_int in
  List.iter
    (fun (r, v) -> if r < crash_round.(v) then crash_round.(v) <- r)
    (Fault.crash_schedule faults);
  let crashed_now v = Fault.crashed faults ~round:(round_now ()) v in
  let proto_dead v = round_now () >= crash_round.(v) in
  let is_live nd = nd.alive && (not nd.orphaned) && not (proto_dead nd.id) in
  let restarting = Fault.has_restarts faults in
  (* Churn-aware views of the topology (identity without churn): is an
     edge currently up, and is a vertex present — joined and not
     crash-stopped?  The repair pass decides exclusively through these,
     never through protocol liveness (which ends false for everyone
     once the last call's kill has run). *)
  let present_now v =
    (not (crashed_now v)) && Fault.joined faults ~round:(round_now ()) v
  in
  let repair_mode = ref false in
  let rp_keep_alls = ref 0 and rp_replaced = ref 0 in
  let repair_ref = ref no_repair in
  let dead_edges_ref = ref [] in

  (* Per-phase attribution: every phase's cost is the delta of the
     engine statistics since the previous mark, so the phase rows of a
     metrics snapshot sum exactly to the final [Sim.stats].  Peak
     message length is not delta-able, so it comes from the engine's
     reset-on-read window ({!Sim.take_window_max}). *)
  let last_stats =
    ref { Sim.rounds = 0; messages = 0; words = 0; max_message_words = 0 }
  in
  (* Phase spans are recorded at exactly the same boundaries as the
     stats deltas, covering (prev rounds, current rounds]; the call
     span currently open (if any) becomes their parent, so the span
     log nests call -> phase just like the paper's recursion. *)
  let current_call_span = ref (-1) in
  let record_phase name =
    (* The profiler marks the same boundary, so its phase rows join the
       metrics phase table by name — even when metrics are off. *)
    Obs.Prof.phase (Obs.Prof.current ()) name;
    let metrics_on = Obs.Metrics.enabled metrics in
    let spans_on = Obs.Span.enabled spans in
    if metrics_on || spans_on then begin
      let s = Transport.stats tr in
      let prev = !last_stats in
      last_stats := s;
      if spans_on then
        ignore
          (Obs.Span.span spans ~parent:!current_call_span Obs.Span.Phase ~name
             ~start_round:prev.Sim.rounds ~stop_round:s.Sim.rounds);
      if metrics_on then begin
        let labels = [ ("phase", name) ] in
        Obs.Metrics.add
          (Obs.Metrics.counter metrics ~labels "phase_rounds")
          (s.Sim.rounds - prev.Sim.rounds);
        Obs.Metrics.add
          (Obs.Metrics.counter metrics ~labels "phase_messages")
          (s.Sim.messages - prev.Sim.messages);
        Obs.Metrics.add
          (Obs.Metrics.counter metrics ~labels "phase_words")
          (s.Sim.words - prev.Sim.words);
        Obs.Metrics.set_max
          (Obs.Metrics.gauge metrics ~labels "phase_max_message_words")
          (Transport.take_window_max tr)
      end
    end
  in

  let keep ~who e =
    if not (Edge_set.mem spanner e) then begin
      Edge_set.add spanner e;
      contributed.(who) <- contributed.(who) + 1;
      if Obs.Metrics.enabled metrics then
        Obs.Metrics.incr
          (Obs.Metrics.counter metrics
             ~labels:[ ("cluster", string_of_int nodes.(who).cl_center) ]
             "cluster_edges_kept")
    end
  in

  (* Deferred p2 (un)registrations, flushed in their own phase to keep
     the one-message-per-link-per-round rule easy to respect. *)
  let notifications = ref [] in
  (* Point [nd]'s [p2] and witness labels at [target] (-1: none).  The
     repair pass calls it directly: by then the (un)registration
     traffic of [set_p2] has shut down. *)
  let hook nd target =
    nd.p2 <- target;
    parent.(nd.id) <- target;
    parent_edge.(nd.id) <- (if target >= 0 then edge_to nd target else -1)
  in
  let set_p2 nd target =
    if nd.p2 <> target then begin
      if nd.p2 >= 0 then
        notifications := (nd.id, nd.p2, P2_unregister) :: !notifications;
      if target >= 0 then
        notifications := (nd.id, target, P2_register) :: !notifications;
      hook nd target
    end
  in

  (* ---------------- incremental repair helpers ---------------- *)

  (* Forward the fragment-local minimum up the repair tree once every
     awaited child has reported (or been given up on). *)
  let rp_maybe_forward nd =
    if
      !repair_mode && nd.rp_root >= 0
      && (not nd.rp_report_sent)
      && pending sl.rp_cv_waiting nd = 0
      && nd.rp_parent >= 0
    then begin
      nd.rp_report_sent <- true;
      if nd.rp_best_e < 0 then emit ~src:nd.id ~dst:nd.rp_parent Repair_none
      else
        emit ~src:nd.id ~dst:nd.rp_parent (Repair_report { edge = nd.rp_best_e })
    end
  in

  (* The repair decision wave: as in [start_wave], an on-path node's own
     merged best IS the fragment winner (min edge id is a total order),
     so the message needs no payload.  The root-to-proposer path flips
     parent direction; the proposer keeps the crossing edge and hooks
     across it. *)
  let rp_start_wave nd =
    if nd.rp_best_e >= 0 then
      if nd.rp_best_from < 0 then begin
        keep ~who:nd.id nd.rp_best_e;
        hook nd nd.rp_best_peer
      end
      else begin
        hook nd nd.rp_best_from;
        emit ~src:nd.id ~dst:nd.rp_best_from Repair_on_path
      end
  in

  (* Fragment-wide fallback, the paper's abort rule transplanted: every
     member keeps all incident edges that are currently usable.  Size
     degrades; stretch does not. *)
  let rp_do_keep_all nd =
    kept_all.(nd.id) <- true;
    iter_nb nd (fun _ w e ->
        if present_now w && Transport.edge_up tr e then keep ~who:nd.id e);
    List.iter (fun c -> emit ~src:nd.id ~dst:c Repair_keep_all) nd.rp_children
  in

  (* ---------------- crash recovery ---------------- *)

  (* Orphan abort: this node's path to its cluster root is gone (its
     tree parent crash-stopped, or an ancestor's did and the Orphan
     cascade reached us).  Restore the exchange-boundary checkpoint,
     keep every incident live edge — the paper's abort rule widened to
     intra-cluster edges, because a crash can sever the cluster tree
     itself (DESIGN.md, recovery model) — and leave the algorithm at
     this call's death-notice phase.  Size degrades; stretch does not. *)
  let do_orphan nd =
    if nd.alive && not nd.orphaned then begin
      nd.orphaned <- true;
      incr orphans;
      restore nd;
      (* The hook label is stale the moment the path to the root is
         gone: a concurrent decision wave may already have flipped the
         parent on the far side to point at us, and keeping our old
         upward hook would close a cycle in the witness forest.  Detach
         — the keep-all below preserves connectivity and stretch, and
         the node re-enters as its own fragment root if repair runs. *)
      set_p2 nd (-1);
      orphan_detached.(nd.id) <- true;
      kept_all.(nd.id) <- true;
      iter_nb nd (fun j _ e ->
          if not (flag sl.nb_dead j) then
            if not (Edge_set.mem spanner e) then begin
              Edge_set.add spanner e;
              contributed.(nd.id) <- contributed.(nd.id) + 1;
              incr recovered_edges
            end);
      List.iter
        (fun c ->
          if not (is_dead nd c) then emit ~src:nd.id ~dst:c Orphan)
        (List.sort_uniq compare (nd.p1_children @ nd.p2_children))
    end
  in

  (* After [cv_waiting] drains (a report arrived, or an awaited child
     was given up on), forward the merged candidate up the tree. *)
  let cv_maybe_forward nd =
    if
      nd.deciding && (not nd.report_sent)
      && (not nd.orphaned)
      && pending sl.cv_waiting nd = 0
      && nd.p1 >= 0
      && not (is_dead nd nd.p1)
    then begin
      nd.report_sent <- true;
      if nd.best_e < 0 then emit ~src:nd.id ~dst:nd.p1 Report_none
      else
        emit ~src:nd.id ~dst:nd.p1
          (Report
             { edge = nd.best_e; target_cl = nd.best_cl; target_fu = nd.best_fu })
    end
  in

  (* [nd] has learned that its neighbour [w] is gone: an ARQ write-off,
     a death notice, or the write-off a revival forces.  Scrub [w] from
     [nd]'s view of its neighbours (a pre-crash [Exchange] must not
     leave a dead edge looking like a viable hook candidate) and from
     its tree children (a child that registered earlier this round and
     died later in it would leave [nd] waiting for its report forever).
     In a call [nd] also stops waiting on [w] and, if [w] was its
     parent, is an orphan; in the repair pass [w] leaves its repair
     waits.  Elsewhere those waits are empty or never read again, so
     the scrub skips them: most death notices reach nodes that died in
     the same call. *)
  let lose nd w =
    let j = slot_of nd w in
    if j >= 0 then begin
      set_flag sl.nb_dead j true;
      ignore (release sl.ex_waiting nd j);
      set_flag sl.nb_heard j false
    end;
    nd.p1_children <- forget w nd.p1_children;
    nd.p2_children <- forget w nd.p2_children;
    if nd.alive && not nd.orphaned then begin
      if release sl.cv_waiting nd j then cv_maybe_forward nd;
      ignore (release sl.die_waiting nd j);
      if nd.p1 = w || nd.p2 = w then do_orphan nd
    end;
    if !repair_mode then begin
      ignore (release sl.rp_waiting nd j);
      if release sl.rp_cv_waiting nd j then rp_maybe_forward nd;
      nd.rp_children <- forget w nd.rp_children
    end
  in
  (* [by] has given up on every retransmission to [w]: in the
     crash-stop model [w] is gone. *)
  let on_suspect ~by w =
    incr suspicion_events;
    Recovery.Detector.suspect det w;
    lose nodes.(by) w
  in

  (* ---------------- message handlers ---------------- *)
  (* A child's report: its subtree's candidate [e] (-1 = none), which
     [nd] adopts when it beats its own (min edge id). *)
  let merge_report nd ~from e ~cl ~fu =
    if e >= 0 && (nd.best_e < 0 || e < nd.best_e) then begin
      nd.best_e <- e;
      nd.best_cl <- cl;
      nd.best_fu <- fu;
      nd.best_from <- from
    end;
    ignore (release sl.cv_waiting nd (slot_of nd from));
    cv_maybe_forward nd
  in

  let adopt_cluster nd ~cl ~fu =
    nd.cl_center <- cl;
    nd.cl_fu <- fu
  in

  let start_wave nd =
    (* [nd]'s merged best is the contracted vertex's winning candidate;
       push the decision towards the proposer, everyone else off-path. *)
    nd.wave_done <- true;
    assert (nd.best_e >= 0);
    let edge = nd.best_e and new_cl = nd.best_cl and new_fu = nd.best_fu in
    (* The wave may arrive after the node it would adopt as parent
       (the hook peer, or the reporting child) has been found dead:
       hooking there would wedge the next call's wave behind a
       parent that can never answer.  Fall back to the orphan abort
       — the path to the new cluster root is gone. *)
    let adoptee = if nd.best_from < 0 then nd.best_peer else nd.best_from in
    if is_dead nd adoptee then do_orphan nd
    else begin
      adopt_cluster nd ~cl:new_cl ~fu:new_fu;
      let off = Off_path { new_cl; new_fu } in
      if nd.best_from < 0 then begin
        (* I proposed the winning edge: hook onto the sampled cluster. *)
        keep ~who:nd.id edge;
        set_p2 nd nd.best_peer;
        List.iter (fun c -> emit ~src:nd.id ~dst:c off) nd.p1_children
      end
      else begin
        set_p2 nd nd.best_from;
        List.iter
          (fun c ->
            if c = nd.best_from then
              emit ~src:nd.id ~dst:c (On_path { edge; new_cl; new_fu })
            else emit ~src:nd.id ~dst:c off)
          nd.p1_children
      end
    end
  in

  (* Enqueue a (cluster, edge) entry unless a no-worse one was already
     forwarded; intermediate dedup is best-effort, the center's merge is
     authoritative. *)
  let die_offer nd (cl, e) =
    if nd.die_sent == no_table then nd.die_sent <- Itbl.create 4;
    match Itbl.find_opt nd.die_sent cl with
    | Some e' when e' <= e -> ()
    | _ ->
        Itbl.replace nd.die_sent cl e;
        Queue.add (cl, e) nd.die_queue
  in

  (* The center's authoritative per-cluster minimum, rebuilt each call. *)
  let center_best = Array.make n (Itbl.create 0) in
  let center_offer nd cl e =
    let best = center_best.(nd.id) in
    match Itbl.find_opt best cl with
    | Some e' when e' <= e -> ()
    | _ -> Itbl.replace best cl e
  in

  (* A contracted vertex with no sampled neighbour dies this call: it
     and its subtree stream their crossing edges to the center. *)
  let start_dying nd =
    nd.is_dying <- true;
    nd.wave_done <- true;
    List.iter (fun c -> emit ~src:nd.id ~dst:c Die_start) nd.p1_children
  in

  (* The paper's abort rule, at the aborting center and at each member
     its final phase reaches: keep every incident crossing edge. *)
  let abort nd =
    nd.fin_aborting <- true;
    nd.fin_src_done <- true;
    kept_all.(nd.id) <- true;
    for j = nd.off to nd.off + nd.deg - 1 do
      if flag sl.nb_heard j && sl.nb_cl.(j) <> nd.cl_center then
        keep ~who:nd.id sl.nb_e.(j)
    done
  in

  (* Profiling category per message family: handler cost lands in one
     region per protocol mechanism (exchange / convergecast / wave /
     …), nested inside the engine's [sim_deliver] region. *)
  let prof_region_of = function
    | Exchange _ -> "skel_exchange"
    | Report_none | Report _ -> "skel_convergecast"
    | On_path _ | Off_path _ -> "skel_wave"
    | P2_register | P2_unregister -> "skel_notify"
    | Die_start | Die_up _ -> "skel_dying"
    | Final_down _ | Abort -> "skel_final"
    | Dead | Probe | Orphan -> "skel_death"
    | Repair_id _ | Repair_ack _ | Repair_report _ | Repair_none
    | Repair_on_path | Repair_keep_all ->
        "skel_repair"
  in

  let dispatch ~dst ~src m =
    (* Crash-recovery: the first protocol message delivered from a
       reborn incarnation (repair traffic, typically) retracts the
       transport suspicion its predecessor earned by dying — the
       detector learns to unsuspect.  An announced death stays
       announced; the reborn node re-enters through repair regardless. *)
    if
      restarting
      && Recovery.Detector.is_suspected det src
      && Fault.incarnation faults ~round:(round_now ()) src > 0
    then Recovery.Detector.unsuspect det src;
    let nd = nodes.(dst) in
    (* A call message acts only on a node still in the call: alive, and
       not leaving it through the orphan abort. *)
    let in_call = nd.alive && not nd.orphaned in
    let prof = Obs.Prof.current () in
    Obs.Prof.enter prof (prof_region_of m);
    (match m with
    | Exchange { cl; fu } when in_call ->
        let j = slot_of nd src in
        hear_exchange nd j ~cl ~fu;
        ignore (release sl.ex_waiting nd j)
    | Report_none when in_call -> merge_report nd ~from:src (-1) ~cl:0 ~fu:0
    | Report { edge; target_cl; target_fu } when in_call ->
        merge_report nd ~from:src edge ~cl:target_cl ~fu:target_fu
    | On_path _ when in_call ->
        (* My subtree supplied the winner, so my merged best is the
           edge named in the message; [start_wave] adopts it and pushes
           the decision further down. *)
        start_wave nd
    | Off_path { new_cl; new_fu } when in_call ->
        adopt_cluster nd ~cl:new_cl ~fu:new_fu;
        set_p2 nd nd.p1;
        nd.wave_done <- true;
        List.iter (fun c -> emit ~src:nd.id ~dst:c m) nd.p1_children
    | Die_start when in_call -> start_dying nd
    | Die_up { entries; finished } when in_call ->
        if nd.p1 < 0 then
          (* Center: authoritative merge. *)
          List.iter (fun (cl, e) -> center_offer nd cl e) entries
        else List.iter (die_offer nd) entries;
        if finished then ignore (release sl.die_waiting nd (slot_of nd src))
    | Final_down { edges; finished } when in_call ->
        List.iter
          (fun e ->
            let u, v = Graph.edge_endpoints g e in
            if u = nd.id || v = nd.id then keep ~who:nd.id e;
            Queue.add e nd.fin_queue)
          edges;
        if finished then nd.fin_src_done <- true
    | Abort when in_call -> abort nd
    | Orphan when in_call -> do_orphan nd
    | Exchange _ | Report_none | Report _ | On_path _ | Off_path _ | Die_start
    | Die_up _ | Final_down _ | Abort | Orphan -> ()
    | P2_register -> nd.p2_children <- src :: nd.p2_children
    | P2_unregister -> nd.p2_children <- forget src nd.p2_children
    | Dead ->
        (* A notice from our own tree parent means it exited while we
           still depend on it — the orphan-register race — so [lose]
           makes us an orphan. *)
        Recovery.Detector.note_death det src;
        lose nd src
    | Probe -> ()  (* the transport-level ack is the whole answer *)
    (* Repair messages ignore [alive]: by the time churn repair runs,
       every node has executed the final call's kill.  Presence is the
       engine's business — a message that arrives was deliverable. *)
    | Repair_id { root } ->
        if !repair_mode then begin
          sl.rp_nb.(slot_of nd src) <- root;
          emit ~src:nd.id ~dst:src (Repair_ack { root = nd.rp_root })
        end
    | Repair_ack { root } ->
        if !repair_mode then begin
          let j = slot_of nd src in
          sl.rp_nb.(j) <- root;
          ignore (release sl.rp_waiting nd j)
        end
    | Repair_report { edge } ->
        if !repair_mode then begin
          if nd.rp_best_e < 0 || edge < nd.rp_best_e then begin
            nd.rp_best_e <- edge;
            nd.rp_best_peer <- -1;
            nd.rp_best_from <- src
          end;
          ignore (release sl.rp_cv_waiting nd (slot_of nd src));
          rp_maybe_forward nd
        end
    | Repair_none ->
        if !repair_mode then begin
          ignore (release sl.rp_cv_waiting nd (slot_of nd src));
          rp_maybe_forward nd
        end
    | Repair_on_path -> if !repair_mode then rp_start_wave nd
    | Repair_keep_all -> if !repair_mode then rp_do_keep_all nd);
    Obs.Prof.leave prof
  in

  (* ---------------- the round pump ---------------- *)
  (* The node program behind the ARQ: a visit hands its deliveries to
     [dispatch], and what they trigger waits in the outbox that the
     same visit drains. *)
  let receive v ~senders ~payloads k =
    for i = 0 to k - 1 do
      dispatch ~dst:v ~src:senders.(i) payloads.(i)
    done
  in
  (* Crash-recovery: when a node's restart round arrives, revive it.
     The reborn node is engine-live but protocol-dead ([proto_dead]):
     its transport pumps and its probes ack, but it rejoins the output
     only through the repair pass.  Reviving means amnesia — fresh ARQ
     state on BOTH sides of every incident link (the reborn node must
     not consume its predecessor's acks, nor have its restarted
     sequence numbers swallowed as duplicates), the phase-boundary
     checkpoint restored, and every neighbor that had not yet written
     the node off forced to do so now: the crash severed their
     sessions, and the abandonment that would have ripened into a
     suspicion died with the reset. *)
  let revive rt ~round v =
    Reliable.start rt v [];
    let nd = nodes.(v) in
    restore nd;
    nd.alive <- false;
    nd.orphaned <- false;
    nd.p1_children <- [];
    nd.p2_children <- [];
    Bytes.fill sl.nb_dead nd.off nd.deg '\000';
    reset_call_scratch nd;
    Graph.iter_neighbors g v (fun w _ ->
        Reliable.reset_peer (Reliable.endpoint rt w) ~round v;
        if (not (proto_dead w)) && not (is_dead nodes.(w) v) then
          on_suspect ~by:w v)
  in
  let pending_revives = ref (Fault.restart_schedule faults) in
  let rec landed round =
    match (tr, !pending_revives) with
    | Transport.Arq rt, (r, v) :: rest when r <= round ->
        pending_revives := rest;
        revive rt ~round v;
        landed round
    | _ -> ()
  in
  let pump () =
    match tr with
    | Transport.Bare net -> ignore (Sim.step net dispatch)
    | Transport.Arq rt -> Reliable.step rt ~receive ~landed ~suspect:on_suspect
  in

  (* ---------------- phase driver ---------------- *)
  let phase_round_limit =
    match phase_round_limit with Some l -> l | None -> 10_000 + (500 * n)
  in
  (* The ARQ links that never fell idle — under a partition, exactly
     the links crossing the cut: what a wedged drain waits on. *)
  let busy_links () =
    let busy = ref [] in
    for v = n - 1 downto 0 do
      if present_now v then
        Graph.iter_neighbors g v (fun w _ ->
            if not (Transport.link_idle tr v w) then busy := (v, w) :: !busy)
    done;
    List.sort_uniq compare !busy
  in
  let probe (v, w) = emit ~src:v ~dst:w Probe in
  (* Run one phase to completion.  A phase states per-node facts over a
     population [pop] (default every node) and a liveness test [live]
     (default [is_live]); a node [live] rejects is out of the phase.  A
     live node is done once [finished nd] holds.  Until then [awaits nd
     f] calls [f] on every peer it still waits on, and [tick nd] runs
     once a round (the dying/final phases stream batches from it).  A
     phase without [finished] is a pure transport drain.  When the
     transport drains short of completion, the driver probes every
     awaited link not yet written off.  Probing either completes the
     phase (the peer was alive and its answer was already in flight),
     produces a suspicion (progress: waiting sets shrink), or changes
     nothing — which is a protocol bug and reported as such.  The
     driver's closures are built once per phase, never per round. *)
  let run_phase name ?(pop = nodes) ?(live = is_live) ?finished
      ?(awaits = fun _ _ -> ()) ?tick () =
    let drain = Option.is_none finished in
    let pending =
      match finished with
      | Some finished -> fun nd -> live nd && not (finished nd)
      | None -> fun _ -> false
    in
    let complete () =
      if drain then Transport.idle tr else not (Array.exists pending pop)
    in
    let waiter = ref (-1) and waits = ref [] in
    let note w =
      if w >= 0 && not (is_dead nodes.(!waiter) w) then
        waits := (!waiter, w) :: !waits
    in
    let visit nd =
      if pending nd then begin
        waiter := nd.id;
        awaits nd note
      end
    in
    let waiting_on () =
      waits := [];
      Array.iter visit pop;
      List.sort_uniq compare !waits
    in
    let step nd =
      match tick with Some tick when pending nd -> tick nd | _ -> ()
    in
    (* A phase that can make no further progress — round limit hit, or
       the transport drained with every probe already answered — is a
       structured failure: the caller learns which phase wedged and who
       was still being waited on (e.g. peers beyond a never-healing
       partition), instead of an opaque hang.  The partial phase still
       gets its row, so the phase table sums to the stats it carries. *)
    let stuck () =
      let waiting_on =
        match waiting_on () with [] -> busy_links () | links -> links
      in
      record_phase name;
      raise (Stuck { phase = name; waiting_on; stats = Transport.stats tr })
    in
    let rounds = ref 0 and last_probe_mark = ref (-1) in
    while not (complete ()) do
      incr rounds;
      if !rounds > phase_round_limit then stuck ();
      if Option.is_some tick then Array.iter step pop;
      if Transport.idle tr then begin
        if !last_probe_mark = !suspicion_events then stuck ();
        last_probe_mark := !suspicion_events;
        match waiting_on () with
        | [] -> stuck ()
        | targets -> List.iter probe targets
      end
      else pump ()
    done;
    record_phase name
  in
  let live_nodes f =
    for v = 0 to n - 1 do
      if is_live nodes.(v) then f nodes.(v)
    done
  in

  let run_call (call : Plan.call) =
    let k = call.Plan.index in
    let spans_on = Obs.Span.enabled spans in
    if spans_on then
      current_call_span :=
        Obs.Span.open_span spans Obs.Span.Call
          ~name:(Printf.sprintf "call-%d" k)
          ~round:(round_now ());
    live_nodes (fun nd -> calls_alive.(nd.id) <- calls_alive.(nd.id) + 1);
    (* Phase 1: exchange cluster identities over live links. *)
    Array.iter (fun nd -> if nd.alive then reset_call_scratch nd) nodes;
    live_nodes (fun nd ->
        let m = Exchange { cl = nd.cl_center; fu = nd.cl_fu } in
        for j = nd.off to nd.off + nd.deg - 1 do
          if not (flag sl.nb_dead j) then begin
            await sl.ex_waiting nd j;
            emit ~src:nd.id ~dst:sl.nb.(j) m
          end
        done);
    (* The exchange's waits resolve themselves (every awaited peer was
       also sent to), but a probe re-arms the abandonment clock after
       e.g. a replayed suspicion pattern diverges. *)
    run_phase "exchange"
      ~finished:(fun nd -> pending sl.ex_waiting nd = 0)
      ~awaits:(awaited sl.ex_waiting)
      ();
    (* The exchange boundary is the recovery point: what a node knows
       here (its cluster identity) is consistent cluster-wide, which is
       exactly what the orphan abort must fall back to. *)
    live_nodes (fun nd ->
        nd.ck_cl <- nd.cl_center;
        nd.ck_fu <- nd.cl_fu;
        incr checkpoints);
    (* Cluster spans share the stats-delta boundaries: they open at the
       exchange boundary just recorded and close at the wave boundary
       (or, for dying centers, at the final boundary). *)
    let cluster_start = round_now () in
    (* Phase 2: local candidates + convergecast inside unsampled
       contracted vertices. *)
    live_nodes (fun nd ->
        if nd.cl_fu <= k then begin
          nd.deciding <- true;
          for j = nd.off to nd.off + nd.deg - 1 do
            let cl = sl.nb_cl.(j) and fu = sl.nb_fu.(j) and e = sl.nb_e.(j) in
            if
              flag sl.nb_heard j && cl <> nd.cl_center && fu > k
              && (nd.best_e < 0 || e < nd.best_e)
            then begin
              nd.best_e <- e;
              nd.best_cl <- cl;
              nd.best_fu <- fu;
              nd.best_peer <- sl.nb.(j);
              nd.best_from <- -1
            end
          done;
          await_all sl.cv_waiting nd nd.p1_children
        end);
    live_nodes cv_maybe_forward;
    run_phase "convergecast"
      ~finished:(fun nd ->
        (not nd.deciding)
        || pending sl.cv_waiting nd = 0
           && (nd.p1 < 0 || nd.report_sent || is_dead nd nd.p1))
      ~awaits:(awaited sl.cv_waiting)
      ();
    (* The deciding centers, snapshotted before the wave can rewrite
       their cluster identity (a hooking center adopts the target
       cluster): each becomes one cluster-level span. *)
    let deciding_centers =
      if spans_on then
        Array.fold_left
          (fun acc nd ->
            if is_live nd && nd.deciding && nd.p1 < 0 then
              (nd.id, nd.cl_center) :: acc
            else acc)
          [] nodes
        |> List.rev
      else []
    in
    let cluster_span ~stop (v, cl) =
      ignore
        (Obs.Span.span spans ~parent:!current_call_span ~src:v
           Obs.Span.Cluster
           ~name:(Printf.sprintf "cluster-%d" cl)
           ~start_round:cluster_start ~stop_round:stop)
    in
    (* Phase 3: decision waves from every deciding center. *)
    live_nodes (fun nd ->
        if nd.deciding && nd.p1 < 0 then begin
          if pending sl.cv_waiting nd <> 0 then
            failwith "Skeleton_dist: convergecast incomplete at decision time";
          if nd.best_e >= 0 then start_wave nd else start_dying nd
        end);
    run_phase "wave"
      ~finished:(fun nd -> (not nd.deciding) || nd.wave_done)
      ~awaits:(fun nd f -> f nd.p1)
      ();
    if spans_on then begin
      let stop = round_now () in
      List.iter
        (fun (v, cl) ->
          if not nodes.(v).is_dying then cluster_span ~stop (v, cl))
        deciding_centers
    end;
    (* Phase 3b: deferred p2 (un)registrations. *)
    List.iter
      (fun (src, dst, m) ->
        let nd = nodes.(src) in
        if is_live nd && not (is_dead nd dst) then
          emit ~src ~dst m)
      (List.rev !notifications);
    notifications := [];
    run_phase "notify" ();
    (* Phase 4: dying contracted vertices stream their (cluster, edge)
       lists to the center, budget words per link per round; the
       center's own incidences go straight into its merge. *)
    live_nodes (fun nd ->
        if nd.is_dying then begin
          await_all sl.die_waiting nd nd.p1_children;
          if nd.p1 < 0 then center_best.(nd.id) <- Itbl.create 16;
          for j = nd.off to nd.off + nd.deg - 1 do
            let cl = sl.nb_cl.(j) in
            if flag sl.nb_heard j && cl <> nd.cl_center then
              if nd.p1 < 0 then center_offer nd cl sl.nb_e.(j)
              else die_offer nd (cl, sl.nb_e.(j))
          done
        end);
    run_phase "dying"
      ~finished:(fun nd ->
        (not nd.is_dying)
        || pending sl.die_waiting nd = 0
           && (nd.p1 < 0 || nd.die_done_sent))
      ~awaits:(awaited sl.die_waiting)
      ~tick:(fun nd ->
        if
          nd.p1 >= 0
          && (not nd.die_done_sent)
          && (not (is_dead nd nd.p1))
          && Transport.link_idle tr nd.id nd.p1
        then begin
          let entries = take_batch nd.die_queue die_cap [] in
          let finished =
            pending sl.die_waiting nd = 0 && Queue.is_empty nd.die_queue
          in
          if entries <> [] || finished then begin
            emit ~src:nd.id ~dst:nd.p1 (Die_up { entries; finished });
            if finished then nd.die_done_sent <- true
          end
        end)
      ();
    (* Phase 5: centers resolve — abort or broadcast the chosen edges. *)
    live_nodes (fun nd ->
        if nd.is_dying && nd.p1 < 0 then begin
          let best = center_best.(nd.id) in
          if Itbl.length best > call.Plan.abort_q then begin
            incr aborts;
            abort nd
          end
          else begin
            Itbl.iter
              (fun _ e ->
                let u, v = Graph.edge_endpoints g e in
                if u = nd.id || v = nd.id then keep ~who:nd.id e;
                Queue.add e nd.fin_queue)
              best;
            nd.fin_src_done <- true
          end
        end);
    run_phase "final"
      ~finished:(fun nd ->
        (not nd.is_dying)
        || (nd.fin_src_done && (nd.p1_children = [] || nd.fin_done_sent)))
      ~awaits:(fun nd f -> if not nd.fin_src_done then f nd.p1)
      ~tick:(fun nd ->
        if
          nd.p1_children <> []
          && (not nd.fin_done_sent)
          && links_idle nd.id nd.p1_children
        then
          if nd.fin_aborting then begin
            List.iter (fun c -> emit ~src:nd.id ~dst:c Abort) nd.p1_children;
            nd.fin_done_sent <- true
          end
          else begin
            let edges = take_batch nd.fin_queue fin_cap [] in
            let finished = nd.fin_src_done && Queue.is_empty nd.fin_queue in
            if edges <> [] || finished then begin
              List.iter
                (fun c -> emit ~src:nd.id ~dst:c (Final_down { edges; finished }))
                nd.p1_children;
              if finished then nd.fin_done_sent <- true
            end
          end)
      ();
    if spans_on then begin
      let stop = round_now () in
      List.iter
        (fun (v, cl) -> if nodes.(v).is_dying then cluster_span ~stop (v, cl))
        deciding_centers
    end;
    (* Phase 6: deaths take effect; one notice per boundary link.
       Orphans exit here too — their recovery is complete, and the
       notice is what tells still-live neighbors to stop counting on
       them.  Delivering the notices can itself orphan more nodes (the
       Dead-from-parent race, or a suspicion ripening mid-phase), and
       an orphan that misses its death notice would stay engine-live
       but silent — acking probes while never speaking again, a
       livelock for next call's exchange.  So collect-announce-drain
       repeats until no exiting node remains. *)
    let exiting nd =
      nd.alive && (nd.is_dying || nd.orphaned) && not (crashed_now nd.id)
    in
    while Array.exists exiting nodes do
      let newly_dead = ref [] in
      Array.iter
        (fun nd ->
          if exiting nd then begin
            nd.alive <- false;
            newly_dead := nd :: !newly_dead
          end)
        nodes;
      List.iter
        (fun nd ->
          (* A node cannot know a neighbor died in this very call, so
             simultaneous deaths cost one wasted notice per link — the
             real protocol pays the same. *)
          iter_nb nd (fun j w _ ->
              if not (flag sl.nb_dead j) then emit ~src:nd.id ~dst:w Dead))
        !newly_dead;
      run_phase "death-notices" ()
    done;
    if spans_on then begin
      Obs.Span.close spans ~round:(round_now ()) !current_call_span;
      current_call_span := -1
    end
  in

  let contract () =
    Array.iter
      (fun nd ->
        if nd.alive then begin
          nd.p1 <- nd.p2;
          nd.p1_children <- nd.p2_children
        end)
      nodes
  in

  let run_plan () =
    let current_round = ref 0 in
    Array.iter
      (fun (call : Plan.call) ->
        if call.Plan.round > !current_round then begin
          contract ();
          current_round := call.Plan.round
        end;
        run_call call)
      plan.Plan.calls
  in

  (* ---------------- incremental repair (churn) ---------------- *)

  (* After the plan's calls finish under topology churn, the spanner
     may have lost edges: hooks severed, kept crossing edges down,
     late joiners never integrated.  Instead of rebuilding from
     scratch, detached fragments re-enter the Expand state machine on
     their bounded neighborhood — the same exchange / convergecast /
     decision-wave shape as a call, restricted to fragment members —
     and hook across their minimum-id live crossing edge.  Fragments
     that stay detached after the iteration bound degrade to the
     paper's keep-all abort; a live graph that is itself disconnected
     is reported as partitioned, never as a failure. *)
  let run_repair () =
    (* Let every scheduled churn event and restart land before
       assessing damage. *)
    let target =
      Stdlib.max
        (Fault.last_churn_round faults)
        (Fault.last_restart_round faults)
    in
    while round_now () < target do
      pump ()
    done;
    record_phase "churn-forward";
    let live v = present_now v in
    let edge_up = Transport.edge_up tr in
    let start_round = round_now () in
    (* 1. Sweep spanner edges the churn left down. *)
    let dead = ref [] in
    Edge_set.iter spanner (fun e -> if not (edge_up e) then dead := e :: !dead);
    List.iter (Edge_set.remove spanner) !dead;
    let dead_spanner_edges = List.length !dead in
    (* 2. Roots: live nodes whose hook to their parent is unusable,
       and orphans the protocol never re-hooked (an orphan detached its
       hook when it aborted; rooting it lets the wave reattach the
       fragment rather than leave it on the keep-all rung).  Each
       hook-edge id is snapshotted before re-rooting rewrites
       [parent_edge]. *)
    let hook_edges = Itbl.create 16 and roots = ref [] in
    for v = 0 to n - 1 do
      if live v && parent.(v) >= 0 then begin
        Itbl.replace hook_edges parent_edge.(v) ();
        if (not (live parent.(v))) || not (edge_up parent_edge.(v)) then begin
          hook nodes.(v) (-1);
          roots := v :: !roots
        end
      end
      else if live v && orphan_detached.(v) then roots := v :: !roots
    done;
    (* A joiner nobody ever heard from is a singleton fragment. *)
    List.iter
      (fun (_, v) ->
        if live v && parent.(v) < 0 && Recovery.Detector.is_suspected det v
        then roots := v :: !roots)
      (Fault.join_schedule faults);
    (* A reborn node re-enters through this pass.  If its pre-crash
       hook survives (parent live, edge up, edge still in the spanner)
       its subtree is still attached and nothing moves; a dead parent
       or down hook edge was already rooted by the sweep above.  What
       remains is the node that crashed before ever hooking, or whose
       hook edge fell out of the spanner while it was down: it roots
       its own fragment, like a never-integrated joiner. *)
    let rejoined = ref 0 in
    List.iter
      (fun (r, v) ->
        if r <= round_now () && live v then begin
          incr rejoined;
          if parent.(v) >= 0 && not (Edge_set.mem spanner parent_edge.(v))
          then hook nodes.(v) (-1);
          if parent.(v) < 0 then roots := v :: !roots
        end)
      (Fault.restart_schedule faults);
    let rejoined = !rejoined in
    let roots = ref (List.sort_uniq compare !roots) in
    (* 3. Dead non-hook edges were kept for stretch across clusters;
       each live endpoint substitutes its cheapest usable non-spanner
       edge.  The extra keep is accounted as one more call alive. *)
    let substitute v =
      let nd = nodes.(v) in
      let best = ref (-1) in
      iter_nb nd (fun _ w e ->
          if
            live w && edge_up e
            && (not (Edge_set.mem spanner e))
            && (!best < 0 || e < !best)
          then best := e);
      if !best >= 0 then begin
        calls_alive.(v) <- calls_alive.(v) + 1;
        keep ~who:v !best;
        incr rp_replaced
      end
    in
    List.iter
      (fun e ->
        if not (Itbl.mem hook_edges e) then begin
          let u, v = Graph.edge_endpoints g e in
          if live u && live v then begin
            substitute u;
            substitute v
          end
        end)
      !dead;
    (* 4. Fresh epoch for the failure detector: a link that is up
       between two present nodes is usable again, whatever the ARQ
       concluded while it was down or its peer un-joined. *)
    Array.iter
      (fun nd ->
        if live nd.id then
          iter_nb nd (fun j w e ->
              if live w && edge_up e then set_flag sl.nb_dead j false))
      nodes;
    repair_mode := true;
    (* Rebuild the repair forest from the witness labels (protocol
       liveness is gone by now) and mark fragment membership; each
       member's re-entry counts as one more call alive. *)
    let rebuild_forest () =
      Array.fill sl.rp_nb 0 (Array.length sl.rp_nb) unheard;
      Array.iter
        (fun nd ->
          nd.rp_root <- -1;
          nd.rp_parent <- -1;
          nd.rp_children <- [];
          clear_waits sl.rp_waiting nd;
          clear_waits sl.rp_cv_waiting nd;
          nd.rp_report_sent <- false;
          nd.rp_best_e <- -1;
          nd.rp_best_peer <- -1;
          nd.rp_best_from <- -1)
        nodes;
      for v = 0 to n - 1 do
        if
          live v && parent.(v) >= 0 && live parent.(v)
          && edge_up parent_edge.(v)
        then begin
          nodes.(v).rp_parent <- parent.(v);
          nodes.(parent.(v)).rp_children <- v :: nodes.(parent.(v)).rp_children
        end
      done;
      let members = ref [] in
      List.iter
        (fun r ->
          let q = Queue.create () in
          Queue.add r q;
          while not (Queue.is_empty q) do
            let v = Queue.pop q in
            if nodes.(v).rp_root < 0 then begin
              nodes.(v).rp_root <- r;
              members := nodes.(v) :: !members;
              calls_alive.(v) <- calls_alive.(v) + 1;
              List.iter (fun c -> Queue.add c q) nodes.(v).rp_children
            end
          done)
        !roots;
      Array.of_list !members
    in
    let present nd = live nd.id in
    let rehooked = ref 0 in
    let progress = ref true in
    let iter_n = ref 0 in
    while !roots <> [] && !progress && !iter_n < 3 do
      incr iter_n;
      let members = rebuild_forest () in
      (* Repair exchange: members learn each usable neighbor's
         fragment root (-1 = attached). *)
      Array.iter
        (fun nd ->
          iter_nb nd (fun j w e ->
              if live w && edge_up e then begin
                await sl.rp_waiting nd j;
                emit ~src:nd.id ~dst:w (Repair_id { root = nd.rp_root })
              end))
        members;
      run_phase "repair-exchange" ~pop:members ~live:present
        ~finished:(fun nd -> pending sl.rp_waiting nd = 0)
        ~awaits:(awaited sl.rp_waiting)
        ();
      (* Local candidates — an edge crossing to the attached part or to
         a strictly smaller-rooted fragment (the order keeps the hook
         relation acyclic) — then convergecast the fragment minimum. *)
      Array.iter
        (fun nd ->
          iter_nb nd (fun j w e ->
              let root_w = sl.rp_nb.(j) in
              if
                root_w <> unheard && root_w <> nd.rp_root
                && (root_w < 0 || root_w < nd.rp_root)
                && (nd.rp_best_e < 0 || e < nd.rp_best_e)
              then begin
                nd.rp_best_e <- e;
                nd.rp_best_peer <- w;
                nd.rp_best_from <- -1
              end);
          await_all sl.rp_cv_waiting nd nd.rp_children)
        members;
      Array.iter rp_maybe_forward members;
      run_phase "repair-convergecast" ~pop:members ~live:present
        ~finished:(fun nd ->
          pending sl.rp_cv_waiting nd = 0
          && (nd.rp_parent < 0 || nd.rp_report_sent))
        ~awaits:(awaited sl.rp_cv_waiting)
        ();
      (* Roots with a candidate launch the parent-flip wave. *)
      let resolved, unresolved =
        List.partition (fun r -> nodes.(r).rp_best_e >= 0) !roots
      in
      List.iter (fun r -> rp_start_wave nodes.(r)) resolved;
      run_phase "repair-wave" ();
      rehooked := !rehooked + List.length resolved;
      progress := resolved <> [];
      roots := unresolved
    done;
    (* Fragments still detached found no usable crossing edge (or the
       iteration bound ran out): degrade to keep-all. *)
    if !roots <> [] then begin
      ignore (rebuild_forest ());
      rp_keep_alls := List.length !roots;
      List.iter (fun r -> rp_do_keep_all nodes.(r)) !roots;
      run_phase "repair-keep-all" ()
    end;
    repair_mode := false;
    (* 5. Seam bridging.  A partition that healed only after both sides
       had written each other off leaves every hook intact yet no
       crossing edge in the spanner: during the cut, cross-cut keeps
       never happened.  Sweep live up edges in id order and keep any
       edge joining two spanner components — the re-advertised link's
       endpoints adopt it as a substitute crossing edge (accounted like
       a substitute: one more call alive for the keeper). *)
    let suf = Util.Union_find.create n in
    Edge_set.iter spanner (fun e ->
        if edge_up e then begin
          let u, v = Graph.edge_endpoints g e in
          if live u && live v then ignore (Util.Union_find.union suf u v)
        end);
    for e = 0 to Graph.m g - 1 do
      if edge_up e && not (Edge_set.mem spanner e) then begin
        let u, v = Graph.edge_endpoints g e in
        if live u && live v && Util.Union_find.union suf u v then begin
          let who = Stdlib.min u v in
          calls_alive.(who) <- calls_alive.(who) + 1;
          keep ~who e;
          incr rp_replaced
        end
      end
    done;
    (* Ladder verdict: components of the live graph decide partitioned;
       otherwise any keep-all fallback means degraded.  The seam pass
       has joined every up edge between live nodes, so the components
       are the union-find classes of the live nodes. *)
    let ncomp = ref 0 in
    for v = 0 to n - 1 do
      if live v && Util.Union_find.find suf v = v then incr ncomp
    done;
    let ncomp = Stdlib.max 1 !ncomp in
    let outcome =
      if ncomp > 1 then Partitioned ncomp
      else if !rp_keep_alls > 0 then Degraded
      else if
        dead_spanner_edges = 0 && !rehooked = 0 && !rp_replaced = 0
        && rejoined = 0
      then Intact
      else Patched
    in
    repair_ref :=
      {
        outcome;
        dead_spanner_edges;
        rehooked = !rehooked;
        replaced_edges = !rp_replaced;
        keep_all_fallbacks = !rp_keep_alls;
        repair_rounds = round_now () - start_round;
        components = ncomp;
        rejoined;
      };
    let down = ref [] in
    for e = Graph.m g - 1 downto 0 do
      if not (edge_up e) then down := e :: !down
    done;
    dead_edges_ref := !down
  in

  run_plan ();
  if repairs faults then
    Obs.Prof.region (Obs.Prof.current ()) "skel_repair_drive" run_repair;
  let retransmissions = ref 0 and dead_letters = ref 0 in
  (match tr with
  | Transport.Bare _ -> ()
  | Transport.Arq rt ->
      for v = 0 to n - 1 do
        if not (crashed_now v) then begin
          let ep = Reliable.endpoint rt v in
          retransmissions := !retransmissions + Reliable.retransmissions ep;
          dead_letters := !dead_letters + Reliable.dead_letters ep
        end
      done);

  (* ---------------- result ---------------- *)
  (* Whatever ran outside a named phase (initial flushes, kill
     messages, repair bookkeeping) lands in a catch-all row, keeping
     the phase table's totals equal to the engine statistics. *)
  record_phase "post";
  if Obs.Metrics.enabled metrics then begin
    Obs.Metrics.add
      (Obs.Metrics.counter metrics "skeleton_checkpoint_commits")
      !checkpoints;
    Obs.Metrics.add (Obs.Metrics.counter metrics "skeleton_orphan_aborts")
      !orphans;
    Obs.Metrics.add (Obs.Metrics.counter metrics "skeleton_recovered_edges")
      !recovered_edges;
    Obs.Metrics.add (Obs.Metrics.counter metrics "skeleton_suspicion_events")
      !suspicion_events;
    Obs.Metrics.add (Obs.Metrics.counter metrics "skeleton_aborts") !aborts
  end;
  let stats = Transport.stats tr in
  let crashed = Array.make n false in
  List.iter
    (fun (round, v) -> if round <= stats.Sim.rounds then crashed.(v) <- true)
    (Fault.crash_schedule faults);
  (* A late joiner that never integrated — suspected by its neighbors
     and neither rehooked nor degraded by the repair pass — is absent
     from the spanner through no protocol fault; audit it like a
     crashed node rather than failing the stretch check on it. *)
  List.iter
    (fun (round, v) ->
      if
        round > stats.Sim.rounds
        || (Recovery.Detector.is_suspected det v
           && parent.(v) < 0 && not kept_all.(v))
      then crashed.(v) <- true)
    (Fault.join_schedule faults);
  (* A restart that landed puts the node back among the audited: the
     repair pass reintegrated it (rehooked, attached, or keep-all), so
     Certify holds it to the same subset/forest/contribution/stretch
     obligations as any live vertex — and counts it as rejoined. *)
  let rejoined = Array.make n false in
  List.iter
    (fun (round, v) ->
      if round <= stats.Sim.rounds then begin
        crashed.(v) <- false;
        rejoined.(v) <- true
      end)
    (Fault.restart_schedule faults);
  let witness =
    {
      Certify.parent;
      parent_edge;
      contributed;
      calls_alive;
      kept_all;
      crashed;
      rejoined;
      max_abort_q =
        Array.fold_left
          (fun acc (c : Plan.call) -> Stdlib.max acc c.Plan.abort_q)
          0 plan.Plan.calls;
    }
  in
  {
    spanner;
    plan;
    aborts = !aborts;
    stats;
    witness;
    recovery =
      {
        crashed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 crashed;
        orphaned = !orphans;
        recovered_edges = !recovered_edges;
        checkpoints = !checkpoints;
        retransmissions = !retransmissions;
        dead_letters = !dead_letters;
      };
    repair = !repair_ref;
    dead_edges = !dead_edges_ref;
  }

let build ?(d = 4) ?(eps = 0.5) ?faults ?tracer ?metrics ?spans
    ?phase_round_limit ~seed g =
  let plan = Plan.make ~n:(Graph.n g) ~d ~eps () in
  let rng = Util.Prng.create ~seed in
  let sampling = Sampling.draw rng ~n:(Graph.n g) plan in
  build_with ?faults ?tracer ?metrics ?spans ?phase_round_limit ~plan ~sampling
    g

let certify ?metrics ~faults g r =
  (* After a repair pass the audit is of the surviving topology, which
     may be partitioned. *)
  let repaired = repairs faults in
  let down_edge =
    if not repaired then None
    else begin
      let down = Array.make (Stdlib.max 1 (Graph.m g)) false in
      List.iter (fun e -> down.(e) <- true) r.dead_edges;
      Some (Array.get down)
    end
  in
  Certify.run ?down_edge ~per_component:repaired ?metrics ~plan:r.plan
    ~witness:r.witness g r.spanner
