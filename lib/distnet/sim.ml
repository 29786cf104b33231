module Graph = Graphlib.Graph

type stats = Trace.stats = {
  rounds : int;
  messages : int;
  words : int;
  max_message_words : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "rounds=%d messages=%d words=%d max_msg=%d words" s.rounds
    s.messages s.words s.max_message_words

(* A message a [Delay] fate holds back: the one case that builds a
   record per transmission.  [span] is the causal span opened at send
   time (-1 when span recording is off); a delayed or duplicated copy
   keeps the id of the original transmission.  [inc_src]/[inc_dst]
   stamp the incarnations of both endpoints as of the send round:
   delivery discards the message if either endpoint has since moved to
   a new incarnation (both are 0 under restart-free plans). *)
type 'msg envelope = {
  src : int;
  dst : int;
  slot : int;
  words : int;
  span : int;
  inc_src : int;
  inc_dst : int;
  payload : 'msg;
}

(* One round's sends, struct-of-arrays: entry [i] of every array is
   the [i]-th send, in send order, with the fields of an envelope.
   The engine keeps two and swaps them at each [step], so a batch
   being delivered and the sends its callbacks make never share a
   buffer.  A batch holds at most one send per directed link, so both
   are allocated once, with room for all 2m links.  [spans] and the
   incarnation stamps are empty unless the engine records them. *)
type 'msg batch = {
  mutable len : int;
  srcs : int array;
  dsts : int array;
  slots : int array;
  lens : int array;  (** words *)
  spans : int array;
  incs_src : int array;
  incs_dst : int array;
  payloads : 'msg array;
}

(* Unused and delivered payload slots hold this immediate, so a batch
   keeps no message alive.  It is never read back as a ['msg]: reads
   stop at [len], and a slot is cleared only after its entry was read.
   Being an immediate, it makes [Array.make] build an ordinary block
   even when ['msg] is [float], and every access here is at the
   abstract ['msg], i.e. through the generic array primitives. *)
let vacant () : 'msg = Obj.magic 0

let batch ~links ~spans ~incarnations =
  let ints n = Array.make n 0 in
  let opt on = ints (if on then links else 0) in
  {
    len = 0;
    srcs = ints links;
    dsts = ints links;
    slots = ints links;
    lens = ints links;
    spans = opt spans;
    incs_src = opt incarnations;
    incs_dst = opt incarnations;
    payloads = Array.make links (vacant ());
  }

let push b ~src ~dst ~slot ~words ~span ~inc_src ~inc_dst payload =
  let i = b.len in
  b.srcs.(i) <- src;
  b.dsts.(i) <- dst;
  b.slots.(i) <- slot;
  b.lens.(i) <- words;
  if Array.length b.spans > 0 then b.spans.(i) <- span;
  if Array.length b.incs_src > 0 then begin
    b.incs_src.(i) <- inc_src;
    b.incs_dst.(i) <- inc_dst
  end;
  b.payloads.(i) <- payload;
  b.len <- i + 1

(* An optional field of entry [i], or its value when not recorded: -1
   for a span id, 0 for an incarnation. *)
let opt_at a i ~absent = if Array.length a > 0 then a.(i) else absent

exception Link_down of { round : int; src : int; dst : int }

let () =
  Printexc.register_printer (function
    | Link_down { round; src; dst } ->
        Some
          (Printf.sprintf "Sim.Link_down(round %d: link %d-%d is down)" round
             src dst)
    | _ -> None)

type 'msg t = {
  g : Graph.t;
  last_sent : int array;  (** per slot: round counter of the last send *)
  faults : Fault.t;
  tracer : Trace.t option;
  (* Dynamic topology.  [dynamic] is false for churn-free plans, in
     which case no per-message liveness check runs — the static paths
     stay byte-identical to the seed engine. *)
  dynamic : bool;
  (* [restarting] is false for restart-free plans, in which case no
     incarnation is ever consulted and the stale-delivery check never
     runs — crash-stop runs stay byte-identical to before. *)
  restarting : bool;
  edge_alive : bool array;  (** per undirected edge *)
  mutable pending_churn : (int * Fault.action) list;
  (* Messages held back by a Delay fate, keyed by delivery round. *)
  delayed : (int, 'msg envelope list) Hashtbl.t;
  mutable delayed_count : int;
  (* Crash/restart events not yet emitted to the tracer, by round. *)
  mutable pending_crashes : (int * int) list;
  mutable pending_restarts : (int * int) list;
  mutable epoch : int;
  (* [outbox] takes this round's sends; [spare] is the other buffer,
     empty between steps. *)
  mutable outbox : 'msg batch;
  mutable spare : 'msg batch;
  mutable rounds : int;
  mutable messages : int;
  mutable words : int;
  mutable max_message_words : int;
  (* The current step's tallies: messages delivered, and words
     delivered, dropped and held back. *)
  mutable step_delivered : int;
  mutable step_delivered_w : int;
  mutable step_dropped_w : int;
  mutable step_held_w : int;
  (* Observability.  [metrics] defaults to the no-op sink; the
     per-round histograms and per-link counters below are no-op
     instruments in that case, so the disabled path costs one tag
     check.  [window_max] tracks the longest message charged since the
     last {!take_window_max} — it is what lets a caller attribute peak
     message length to a phase, since a maximum (unlike the other
     stats fields) cannot be recovered from before/after deltas. *)
  metrics : Obs.Metrics.t;
  h_delivered : Obs.Metrics.histogram;
  h_dropped : Obs.Metrics.histogram;
  h_held : Obs.Metrics.histogram;
  link_load : Obs.Metrics.counter option array;
  mutable window_max : int;
  (* Causal spans: one per transmission, opened at send and closed at
     delivery (or drop).  Defaults to the no-op sink. *)
  spans : Obs.Span.t;
  (* Machine-cost profiling.  Captured from the ambient sink at
     creation; the default is the no-op sink, so unprofiled runs pay
     one tag check per region. *)
  prof : Obs.Prof.t;
}

let trace t ~round kind ~src ~dst ~words =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.round; kind; src; dst; words }

(* Directed-link slots: edge e gives slot 2e for (u -> v) and 2e+1 for
   (v -> u), with u < v; -1 when [src]-[dst] is not a link (either end
   out of range included).  Resolved on the graph's CSR rows. *)
let slot_of t ~src ~dst =
  let e = Graph.edge_id t.g src dst in
  if e < 0 then -1 else if src < dst then 2 * e else (2 * e) + 1

let flip_link t ~round ~up (u, v) =
  let e = Graph.edge_id t.g u v in
  if e < 0 then
    invalid_arg
      (Printf.sprintf "Sim: churn references edge %d-%d not in the graph" u v);
  t.edge_alive.(e) <- up;
  trace t ~round
    (if up then Trace.Edge_up else Trace.Edge_down)
    ~src:u ~dst:v ~words:0

let apply_action t ~round = function
  | Fault.Act_edge_down { u; v } -> flip_link t ~round ~up:false (u, v)
  | Fault.Act_edge_up { u; v } -> flip_link t ~round ~up:true (u, v)
  | Fault.Act_partition { links; _ } ->
      trace t ~round Trace.Partition ~src:(-1) ~dst:(-1)
        ~words:(List.length links);
      List.iter (flip_link t ~round ~up:false) links
  | Fault.Act_heal { links } ->
      trace t ~round Trace.Heal ~src:(-1) ~dst:(-1) ~words:(List.length links);
      List.iter (flip_link t ~round ~up:true) links
  | Fault.Act_join v -> trace t ~round Trace.Join ~src:v ~dst:(-1) ~words:0

(* Apply every scheduled churn action whose round has arrived.  Actions
   land at the {e start} of their round, before that round's
   deliveries: a message in flight over a link downed this round is
   dropped at delivery time. *)
let apply_churn t ~round =
  Obs.Prof.enter t.prof "sim_churn";
  let rec go = function
    | (r, act) :: rest when r <= round ->
        apply_action t ~round:r act;
        go rest
    | rest -> t.pending_churn <- rest
  in
  go t.pending_churn;
  Obs.Prof.leave t.prof

let create ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
    ?(spans = Obs.Span.disabled) g =
  let buffer () =
    batch ~links:(2 * Graph.m g) ~spans:(Obs.Span.enabled spans)
      ~incarnations:(Fault.has_restarts faults)
  in
  let t =
    {
      g;
      last_sent = Array.make (Stdlib.max 1 (2 * Graph.m g)) (-1);
      faults;
      tracer;
      dynamic = Fault.has_churn faults;
      restarting = Fault.has_restarts faults;
      edge_alive = Array.make (Stdlib.max 1 (Graph.m g)) true;
      pending_churn = Fault.churn_schedule faults;
      delayed = Hashtbl.create 16;
      delayed_count = 0;
      pending_crashes = Fault.crash_schedule faults;
      pending_restarts = Fault.restart_schedule faults;
      epoch = 0;
      outbox = buffer ();
      spare = buffer ();
      rounds = 0;
      messages = 0;
      words = 0;
      max_message_words = 0;
      step_delivered = 0;
      step_delivered_w = 0;
      step_dropped_w = 0;
      step_held_w = 0;
      metrics;
      h_delivered = Obs.Metrics.histogram metrics "sim_round_delivered_words";
      h_dropped = Obs.Metrics.histogram metrics "sim_round_dropped_words";
      h_held = Obs.Metrics.histogram metrics "sim_round_held_words";
      link_load = Array.make (Stdlib.max 1 (2 * Graph.m g)) None;
      window_max = 0;
      spans;
      prof = Obs.Prof.current ();
    }
  in
  (* Round-0 churn (e.g. an edge down from the start) must constrain
     the init sends, which happen before the first step. *)
  if t.dynamic then apply_churn t ~round:0;
  t

let round t = t.rounds

let edge_up t e =
  if e < 0 || e >= Graph.m t.g then invalid_arg "Sim.edge_up: no such edge";
  t.edge_alive.(e)

let link_up t ~src ~dst =
  let slot = slot_of t ~src ~dst in
  if slot < 0 then
    invalid_arg
      (Printf.sprintf "Sim.link_up: %d -> %d is not a network link" src dst);
  t.edge_alive.(slot / 2)

let send t ~src ~dst ~words payload =
  if words < 1 then invalid_arg "Sim.send: words must be >= 1";
  let slot = slot_of t ~src ~dst in
  if slot < 0 then
    invalid_arg
      (Printf.sprintf "Sim.send: round %d: %d -> %d is not a network link"
         t.rounds src dst);
  if Fault.crashed t.faults ~round:t.rounds src then
    (* A crashed node cannot put anything on the wire; the refusal is
       silent so fault-oblivious drivers need no special case. *)
    trace t ~round:t.rounds (Trace.Drop Trace.Src_crashed) ~src ~dst ~words
  else if t.dynamic && not (Fault.joined t.faults ~round:t.rounds src) then
    (* Likewise a node that has not joined yet. *)
    trace t ~round:t.rounds (Trace.Drop Trace.Not_joined) ~src ~dst ~words
  else if t.dynamic && not t.edge_alive.(slot / 2) then
    (* Unlike a crash, a down link is visible to the sender (its NIC
       reports no carrier), so the refusal is loud: churn-aware callers
       check {!link_up} first and treat down as loss. *)
    raise (Link_down { round = t.rounds; src; dst })
  else begin
    if t.last_sent.(slot) = t.epoch then
      invalid_arg
        (Printf.sprintf "Sim.send: round %d: %d already sent to %d this round"
           t.rounds src dst);
    t.last_sent.(slot) <- t.epoch;
    Obs.Prof.enter t.prof "sim_send";
    trace t ~round:t.rounds Trace.Send ~src ~dst ~words;
    if Obs.Metrics.enabled t.metrics then begin
      let c =
        match t.link_load.(slot) with
        | Some c -> c
        | None ->
            let c =
              Obs.Metrics.counter t.metrics "link_words"
                ~labels:[ ("src", string_of_int src); ("dst", string_of_int dst) ]
            in
            t.link_load.(slot) <- Some c;
            c
      in
      Obs.Metrics.add c words
    end;
    let span = Obs.Span.message t.spans ~round:t.rounds ~src ~dst ~words in
    let inc_src, inc_dst =
      if t.restarting then
        ( Fault.incarnation t.faults ~round:t.rounds src,
          Fault.incarnation t.faults ~round:t.rounds dst )
      else (0, 0)
    in
    push t.outbox ~src ~dst ~slot ~words ~span ~inc_src ~inc_dst payload;
    Obs.Prof.leave t.prof
  end

let quiescent t = t.outbox.len = 0 && t.delayed_count = 0

(* Every message (or duplicate copy) put on the wire is charged to the
   statistics at the step that processes it — delivered, lost, or held
   back alike: transmission is the cost the network pays.  With the
   loss-free plan this is exactly the seed engine's delivery-time
   accounting. *)
let charge t words =
  t.messages <- t.messages + 1;
  t.words <- t.words + words;
  if words > t.max_message_words then t.max_message_words <- words;
  if words > t.window_max then t.window_max <- words

let take_window_max t =
  let m = t.window_max in
  t.window_max <- 0;
  m

(* Emit the crash and restart events whose round has arrived. *)
let rec emit_crashes t ~round = function
  | (r, v) :: rest when r <= round ->
      trace t ~round:r Trace.Crash ~src:v ~dst:(-1) ~words:0;
      emit_crashes t ~round rest
  | rest -> t.pending_crashes <- rest

let rec emit_restarts t ~round = function
  | (r, v) :: rest when r <= round ->
      trace t ~round:r Trace.Restart ~src:v ~dst:(-1)
        ~words:(Fault.incarnation t.faults ~round:r v);
      emit_restarts t ~round rest
  | rest -> t.pending_restarts <- rest

let drop t ~round ~src ~dst ~words ~span kind reason =
  t.step_dropped_w <- t.step_dropped_w + words;
  trace t ~round kind ~src ~dst ~words;
  Obs.Span.drop t.spans ~round ~reason span

let deliver_now t deliver ~round ~src ~dst ~slot ~words ~span ~inc_src
    ~inc_dst payload =
  if Fault.crashed t.faults ~round dst then
    drop t ~round ~src ~dst ~words ~span (Trace.Drop Trace.Dst_crashed)
      "dst-crashed"
  else if t.dynamic && not t.edge_alive.(slot / 2) then
    drop t ~round ~src ~dst ~words ~span (Trace.Drop Trace.Link_down)
      "link-down"
  else if t.dynamic && not (Fault.joined t.faults ~round dst) then
    drop t ~round ~src ~dst ~words ~span (Trace.Drop Trace.Not_joined)
      "not-joined"
  else if
    t.restarting
    && (Fault.incarnation t.faults ~round src <> inc_src
       || Fault.incarnation t.faults ~round dst <> inc_dst)
  then
    (* The message crossed a crash/restart boundary in flight: it was
       sent by, or addressed to, an incarnation that is no longer
       current.  A reborn node must never consume its predecessor's
       traffic (and nobody should hear a ghost), so the engine
       discards it like a loss — but with its own reason, so replay
       and audit can tell them apart. *)
    drop t ~round ~src ~dst ~words ~span (Trace.Drop Trace.Stale)
      "stale-incarnation"
  else begin
    t.step_delivered <- t.step_delivered + 1;
    t.step_delivered_w <- t.step_delivered_w + words;
    trace t ~round Trace.Deliver ~src ~dst ~words;
    (* First delivery wins: a duplicate copy of an already delivered
       span leaves the span untouched. *)
    Obs.Span.deliver t.spans ~round span;
    deliver ~dst ~src payload
  end

let hold t (e : 'msg envelope) ~until =
  t.step_held_w <- t.step_held_w + e.words;
  Hashtbl.replace t.delayed until
    (e :: Option.value ~default:[] (Hashtbl.find_opt t.delayed until));
  t.delayed_count <- t.delayed_count + 1

let rec deliver_held t deliver ~round = function
  | [] -> ()
  | (e : 'msg envelope) :: rest ->
      deliver_now t deliver ~round ~src:e.src ~dst:e.dst ~slot:e.slot
        ~words:e.words ~span:e.span ~inc_src:e.inc_src ~inc_dst:e.inc_dst
        e.payload;
      deliver_held t deliver ~round rest

(* Delivery order within a round: the held messages due now, in the
   order they were held; then the batch in send order, a duplicate
   right after its original.  [Fault.fate] is drawn once per batch
   entry, in that order.  Beyond what [Fault.fate] builds, only held
   messages allocate: an envelope and a table cell when held, the
   round's list reversed when they come due. *)
let step t deliver =
  (* Close this round's batch before anything can raise: an aborted
     step loses its batch rather than replaying it later. *)
  let b = t.outbox in
  let len = b.len in
  b.len <- 0;
  t.outbox <- t.spare;
  t.spare <- b;
  t.epoch <- t.epoch + 1;
  t.rounds <- t.rounds + 1;
  let round = t.rounds in
  emit_crashes t ~round t.pending_crashes;
  if t.restarting then emit_restarts t ~round t.pending_restarts;
  if t.dynamic then apply_churn t ~round;
  t.step_delivered <- 0;
  t.step_delivered_w <- 0;
  t.step_dropped_w <- 0;
  t.step_held_w <- 0;
  Obs.Prof.enter t.prof "sim_deliver";
  (match Hashtbl.find_opt t.delayed round with
  | None -> ()
  | Some held ->
      Hashtbl.remove t.delayed round;
      t.delayed_count <- t.delayed_count - List.length held;
      deliver_held t deliver ~round (List.rev held));
  for i = 0 to len - 1 do
    let src = b.srcs.(i) and dst = b.dsts.(i) and words = b.lens.(i) in
    let payload = b.payloads.(i) in
    b.payloads.(i) <- vacant ();
    match Fault.fate t.faults ~round ~src ~dst with
    | Fault.Lost ->
        charge t words;
        drop t ~round ~src ~dst ~words
          ~span:(opt_at b.spans i ~absent:(-1))
          (Trace.Drop Trace.Loss) "loss"
    | Fault.Pass { dup; delay } ->
        let slot = b.slots.(i) and span = opt_at b.spans i ~absent:(-1) in
        let inc_src = opt_at b.incs_src i ~absent:0
        and inc_dst = opt_at b.incs_dst i ~absent:0 in
        charge t words;
        if dup then begin
          charge t words;
          trace t ~round Trace.Dup ~src ~dst ~words
        end;
        if delay > 0 then begin
          trace t ~round (Trace.Delay delay) ~src ~dst ~words;
          let e = { src; dst; slot; words; span; inc_src; inc_dst; payload } in
          hold t e ~until:(round + delay);
          if dup then hold t e ~until:(round + delay)
        end
        else begin
          deliver_now t deliver ~round ~src ~dst ~slot ~words ~span ~inc_src
            ~inc_dst payload;
          if dup then
            deliver_now t deliver ~round ~src ~dst ~slot ~words ~span ~inc_src
              ~inc_dst payload
        end
  done;
  Obs.Prof.leave t.prof;
  if Obs.Metrics.enabled t.metrics then begin
    Obs.Metrics.observe t.h_delivered t.step_delivered_w;
    Obs.Metrics.observe t.h_dropped t.step_dropped_w;
    Obs.Metrics.observe t.h_held t.step_held_w
  end;
  Obs.Prof.round_mark t.prof ~round;
  t.step_delivered

let stats t =
  {
    rounds = t.rounds;
    messages = t.messages;
    words = t.words;
    max_message_words = t.max_message_words;
  }

let budget_exhausted t where =
  (* Like the send errors, the exception names the round and — when a
     message is still queued — the endpoints it was travelling between,
     so a stuck protocol is diagnosable from the message alone. *)
  let b = t.outbox in
  let in_flight =
    if b.len > 0 then
      (* The head is the latest send. *)
      Printf.sprintf ", %d in flight (head %d -> %d)"
        (b.len + t.delayed_count)
        b.srcs.(b.len - 1)
        b.dsts.(b.len - 1)
    else if t.delayed_count > 0 then
      Printf.sprintf ", %d held back" t.delayed_count
    else ""
  in
  invalid_arg
    (Format.asprintf "%s: round %d: budget exhausted (%a)%s" where t.rounds
       pp_stats (stats t) in_flight)

let run_until_quiescent ?(max_rounds = 10_000_000) t deliver =
  let budget = ref max_rounds in
  while not (quiescent t) do
    if !budget <= 0 then budget_exhausted t "Sim.run_until_quiescent";
    decr budget;
    ignore (step t deliver)
  done
