module Graph = Graphlib.Graph

type config = {
  initial_rto : int;
  max_rto : int;
  max_retries : int;
  backoff : float;
}

let default_config =
  { initial_rto = 3; max_rto = 32; max_retries = 12; backoff = 2. }

(* One policy for every instantiation: the ARQ is a transport knob of
   the whole network, not of one protocol functor.  The default IS the
   historical constants, so runs that never touch the config stay
   byte-identical to every pinned trace. *)
let current_config = ref default_config

let config () = !current_config

let set_config c =
  if c.initial_rto < 1 then
    invalid_arg
      (Printf.sprintf "Reliable.set_config: initial_rto %d < 1" c.initial_rto);
  if c.max_rto < c.initial_rto then
    invalid_arg
      (Printf.sprintf "Reliable.set_config: max_rto %d < initial_rto %d"
         c.max_rto c.initial_rto);
  if c.max_retries < 1 then
    invalid_arg
      (Printf.sprintf "Reliable.set_config: max_retries %d < 1" c.max_retries);
  if not (c.backoff >= 1.) then
    invalid_arg
      (Printf.sprintf
         "Reliable.set_config: backoff %g < 1 (1 = fixed retransmit interval)"
         c.backoff);
  current_config := c

module type PROTOCOL = sig
  type state
  type message

  val message_words : message -> int
  val init : Graph.t -> int -> state * (int * message) list

  val receive :
    Graph.t ->
    round:int ->
    int ->
    state ->
    (int * message) list ->
    state * (int * message) list
end

module Make (P : PROTOCOL) = struct
  type message = { acks : int list; data : (int * P.message) option }

  let message_words { acks; data } =
    let d = match data with Some (_, m) -> 1 + P.message_words m | None -> 0 in
    Stdlib.max 1 (List.length acks + d)

  (* The sinks of one run, shared by all its endpoints (the counts are
     network-wide aggregates).  Causal spans: one [Arq] span per
     stop-and-wait exchange (first transmission → acknowledgement),
     with each retransmission a point-event linked to it, so the
     critical path can tell a slow hop from a lossy one. *)
  type sinks = {
    spans : Obs.Span.t;
    m_retrans : Obs.Metrics.counter;
    m_dead : Obs.Metrics.counter;
    m_timer : Obs.Metrics.counter;
    m_ack_latency : Obs.Metrics.histogram;
    m_backoff : Obs.Metrics.counter;
  }

  type peer = {
    nbr : int;
    mutable next_seq : int;
    queue : P.message Queue.t;  (** inner messages awaiting transmission *)
    mutable inflight : (int * P.message) option;  (** stop-and-wait window *)
    mutable rto : int;
    mutable deadline : int;  (** round the inflight seq times out *)
    mutable retries : int;
    mutable sent_round : int;  (** first transmission of the inflight seq *)
    mutable pending_acks : int list;  (** to piggyback on the next send *)
    received : (int, unit) Hashtbl.t;  (** seqs already delivered inward *)
    mutable span : int;  (** open [Arq] span of the inflight seq, or -1 *)
  }

  type endpoint = {
    v : int;
    mutable inner : P.state;
    peers : peer array;
    index : (int, int) Hashtbl.t;  (** neighbor id -> peers slot *)
    mutable retrans : int;
    mutable dead : int;
    mutable abandoned : int list;  (** peers with >= 1 dead letter *)
    mutable wake : int;  (** earliest in-flight [deadline], [max_int] if none *)
    mutable started : bool;  (** [receive] has run: deadlines are anchored *)
    mutable outbox : (int * P.message) list;  (** {!send}s, newest first *)
    sinks : sinks;
  }

  let retransmissions ep = ep.retrans
  let dead_letters ep = ep.dead
  let suspected ep = ep.abandoned

  let rec queued_to w = function
    | [] -> false
    | (d, _) :: rest -> d = w || queued_to w rest

  let link_idle ep w =
    (match Hashtbl.find_opt ep.index w with
    | None -> true
    | Some i ->
        let p = ep.peers.(i) in
        p.inflight = None && Queue.is_empty p.queue)
    && not (queued_to w ep.outbox)

  (* Between calls a non-empty queue implies a seq in flight (every
     flush starts the next one), so in-flight timers and the outbox are
     all the work a node can have pending. *)
  let active ep = ep.wake <> max_int || ep.outbox <> []

  (* Must [receive] run at [round] even with no mail?  Before the first
     [receive] any pending work is due: [init] has no round, and that
     call anchors its timers. *)
  let due ep ~round =
    ep.outbox <> [] || ep.wake <= round
    || ((not ep.started) && ep.wake <> max_int)

  let recompute_wake ep =
    ep.wake <-
      Array.fold_left
        (fun w p ->
          match p.inflight with
          | Some _ when p.deadline < w -> p.deadline
          | _ -> w)
        max_int ep.peers

  let peer_of ep w =
    match Hashtbl.find_opt ep.index w with
    | Some i -> ep.peers.(i)
    | None ->
        invalid_arg
          (Printf.sprintf "Reliable: node %d has no neighbor %d" ep.v w)

  let enqueue ep msgs =
    List.iter (fun (dst, m) -> Queue.add m (peer_of ep dst).queue) msgs

  (* Begin transmitting the next queued message, if any. *)
  let start_next ep ~round p =
    match Queue.take_opt p.queue with
    | None -> None
    | Some m ->
        let seq = p.next_seq in
        let rto0 = !current_config.initial_rto in
        p.next_seq <- seq + 1;
        p.inflight <- Some (seq, m);
        p.rto <- rto0;
        p.deadline <- round + rto0;
        p.retries <- 0;
        p.sent_round <- round;
        p.span <-
          (if Obs.Span.enabled ep.sinks.spans then
             Obs.Span.open_span ep.sinks.spans ~src:ep.v ~dst:p.nbr
               Obs.Span.Arq
               ~name:(Printf.sprintf "seq-%d" seq)
               ~round
           else -1);
        Some (seq, m)

  (* One round of the sender side for [p]: fire the timer if its
     deadline has come, decide what data (if any) goes on the wire this
     round. *)
  let outgoing ep ~round p =
    let s = ep.sinks in
    let data =
      match p.inflight with
      | None -> start_next ep ~round p
      | Some (seq, m) ->
          if round < p.deadline then None
          else if p.retries >= !current_config.max_retries then begin
            (* The peer is not answering (crashed, or the link is
               hopeless): abandon, move on. *)
            Obs.Metrics.incr s.m_timer;
            p.inflight <- None;
            ep.dead <- ep.dead + 1;
            Obs.Metrics.incr s.m_dead;
            if not (List.mem p.nbr ep.abandoned) then
              ep.abandoned <- p.nbr :: ep.abandoned;
            Obs.Span.drop s.spans ~round ~reason:"dead-letter" p.span;
            p.span <- -1;
            start_next ep ~round p
          end
          else begin
            Obs.Prof.enter (Obs.Prof.current ()) "arq_retransmit";
            Obs.Metrics.incr s.m_timer;
            p.retries <- p.retries + 1;
            let c = !current_config in
            (* Truncated multiplicative backoff; [backoff = 1] is a
               fixed retransmit interval, the default [2] the classic
               doubling.  An escalation is a timeout that actually grew
               the window. *)
            let next =
              Stdlib.min c.max_rto
                (Stdlib.max p.rto
                   (int_of_float (float_of_int p.rto *. c.backoff)))
            in
            if next > p.rto then Obs.Metrics.incr s.m_backoff;
            p.rto <- next;
            p.deadline <- round + next;
            ep.retrans <- ep.retrans + 1;
            Obs.Metrics.incr s.m_retrans;
            if Obs.Span.enabled s.spans then
              ignore
                (Obs.Span.span s.spans ~parent:p.span ~src:ep.v ~dst:p.nbr
                   Obs.Span.Retransmit
                   ~name:(Printf.sprintf "seq-%d" seq)
                   ~start_round:round ~stop_round:round);
            Obs.Prof.leave (Obs.Prof.current ());
            Some (seq, m)
          end
    in
    let acks = p.pending_acks in
    p.pending_acks <- [];
    if data = None && acks = [] then None
    else Some (p.nbr, { acks; data })

  (* The timer sweep over one node's peers: starts queued sends, fires
     the timers whose deadline has come, piggybacks pending acks.  It
     runs once per [receive], so it is paid only at the nodes a step
     visits; it gets its own region (with retransmissions attributed
     separately inside it). *)
  let flush ep ~round =
    let prof = Obs.Prof.current () in
    Obs.Prof.enter prof "arq_timer_sweep";
    let out = ref [] in
    for i = 0 to Array.length ep.peers - 1 do
      match outgoing ep ~round ep.peers.(i) with
      | Some m -> out := m :: !out
      | None -> ()
    done;
    recompute_wake ep;
    Obs.Prof.leave prof;
    !out

  let init sinks g v =
    let nbrs = Array.of_list (Graph.neighbors g v) in
    let peers =
      Array.map
        (fun nbr ->
          {
            nbr;
            next_seq = 0;
            queue = Queue.create ();
            inflight = None;
            rto = !current_config.initial_rto;
            deadline = 0;
            retries = 0;
            sent_round = 0;
            pending_acks = [];
            received = Hashtbl.create 8;
            span = -1;
          })
        nbrs
    in
    let index = Hashtbl.create (Array.length nbrs) in
    Array.iteri (fun i p -> Hashtbl.replace index p.nbr i) peers;
    let inner, msgs = P.init g v in
    let ep =
      {
        v;
        inner;
        peers;
        index;
        retrans = 0;
        dead = 0;
        abandoned = [];
        wake = max_int;
        started = false;
        outbox = [];
        sinks;
      }
    in
    enqueue ep msgs;
    (ep, flush ep ~round:0)

  (* Forget everything about one peer's sessions — both directions.
     Called when the peer restarts with a fresh incarnation: its ARQ
     state is gone, so our sequence numbers mean nothing to it (and its
     pre-crash acks must never complete our new transmissions), and the
     dedup table must not swallow the reborn peer's restarted sequence
     numbers.  Also clears the peer from [abandoned]: the suspicion it
     earned by dying belongs to the old incarnation.  Callers tracking
     [suspected] deltas positionally must re-baseline after this.  The
     outbox is not a session: what the caller sent the peer still goes
     out. *)
  let reset_peer ep ~round w =
    match Hashtbl.find_opt ep.index w with
    | None -> ()
    | Some i ->
        let p = ep.peers.(i) in
        (match p.inflight with
        | Some _ ->
            Obs.Span.drop ep.sinks.spans ~round ~reason:"session-reset" p.span
        | None -> ());
        p.span <- -1;
        p.inflight <- None;
        p.next_seq <- 0;
        Queue.clear p.queue;
        p.rto <- !current_config.initial_rto;
        p.retries <- 0;
        p.sent_round <- round;
        p.pending_acks <- [];
        Hashtbl.reset p.received;
        ep.abandoned <- List.filter (fun x -> x <> w) ep.abandoned;
        recompute_wake ep

  let receive g ~round ep inbox =
    if not ep.started then begin
      (* [init] has no round, so it armed its exchanges as of round 0.
         A node's first [receive] comes the round after it started —
         round 1 from the start, or for a late joiner the join round
         its [init] ran in — so its timers count from the round
         before. *)
      ep.started <- true;
      Array.iter
        (fun p -> if p.inflight <> None then p.deadline <- p.deadline + round - 1)
        ep.peers
    end;
    let s = ep.sinks in
    let deliveries = ref [] in
    List.iter
      (fun (w, { acks; data }) ->
        let p = peer_of ep w in
        List.iter
          (fun a ->
            match p.inflight with
            | Some (seq, _) when seq = a ->
                Obs.Metrics.observe s.m_ack_latency (round - p.sent_round);
                Obs.Span.close s.spans ~round p.span;
                p.span <- -1;
                p.inflight <- None;
                p.rto <- !current_config.initial_rto;
                p.retries <- 0
            | _ -> () (* stale ack from an earlier retransmission *))
          acks;
        match data with
        | None -> ()
        | Some (seq, payload) ->
            (* Ack every receipt — a duplicate means our previous ack
               was lost (or the network duplicated the data). *)
            if not (List.mem seq p.pending_acks) then
              p.pending_acks <- seq :: p.pending_acks;
            if not (Hashtbl.mem p.received seq) then begin
              Hashtbl.replace p.received seq ();
              deliveries := (w, payload) :: !deliveries
            end)
      inbox;
    let inner, outs = P.receive g ~round ep.v ep.inner (List.rev !deliveries) in
    ep.inner <- inner;
    (* The outbox goes first: it holds what was sent before this round
       and, for a program that sends through {!send}, what the
       deliveries just triggered. *)
    enqueue ep (List.rev ep.outbox);
    ep.outbox <- [];
    enqueue ep outs;
    flush ep ~round

  (* ---------------- the runtime ---------------- *)

  type t = {
    g : Graph.t;
    net : message Sim.t;
    faults : Fault.t;
    dynamic : bool;
    sinks : sinks;
    endpoints : endpoint option array;
    inboxes : (int * message) list array;
    deliver : dst:int -> src:int -> message -> unit;
    visited : int array;  (** the last step's visits, ascending *)
    mutable visits : int;
  }

  let create ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
      ?(spans = Obs.Span.disabled) g =
    (* The ARQ instruments come before the engine's, in this order: a
       metrics snapshot lists instruments in creation order (and a
       record's fields are not evaluated in the order written). *)
    let m_retrans = Obs.Metrics.counter metrics "arq_retransmissions" in
    let m_dead = Obs.Metrics.counter metrics "arq_dead_letters" in
    let m_timer = Obs.Metrics.counter metrics "arq_timer_fires" in
    let m_ack_latency = Obs.Metrics.histogram metrics "arq_ack_latency" in
    let m_backoff = Obs.Metrics.counter metrics "arq_backoff_escalations" in
    let sinks =
      { spans; m_retrans; m_dead; m_timer; m_ack_latency; m_backoff }
    in
    let net = Sim.create ~faults ?tracer ~metrics ~spans g in
    let n = Graph.n g in
    let inboxes = Array.make n [] in
    {
      g;
      net;
      faults;
      dynamic = Fault.has_churn faults;
      sinks;
      endpoints = Array.make n None;
      inboxes;
      deliver = (fun ~dst ~src m -> inboxes.(dst) <- (src, m) :: inboxes.(dst));
      visited = Array.make n 0;
      visits = 0;
    }

  let net rt = rt.net

  let endpoint rt v =
    match rt.endpoints.(v) with
    | Some ep -> ep
    | None -> invalid_arg (Printf.sprintf "Reliable: node %d not started" v)

  let inner rt v =
    match rt.endpoints.(v) with
    | Some ep -> ep.inner
    | None -> (fst (init rt.sinks rt.g v)).inner

  let send rt ~src ~dst m =
    let ep = endpoint rt src in
    ep.outbox <- (dst, m) :: ep.outbox

  (* Node programs are churn-oblivious: a frame over a down link never
     makes it onto the wire — loss, as far as the ARQ can tell, and
     persistent downtime ripens into a suspicion like a crashed peer. *)
  let rec post rt v = function
    | [] -> ()
    | (dst, m) :: rest ->
        if (not rt.dynamic) || Sim.link_up rt.net ~src:v ~dst then
          Sim.send rt.net ~src:v ~dst ~words:(message_words m) m;
        post rt v rest

  let start rt v =
    let ep, frames = init rt.sinks rt.g v in
    rt.endpoints.(v) <- Some ep;
    if not (Fault.crashed rt.faults ~round:(Sim.round rt.net) v) then
      post rt v frames

  (* Visit only the up nodes with mail or due work: any other [receive]
     is a no-op, since the program sends nothing without deliveries
     and the flush neither sends nor arms a timer.  Ascending order
     keeps every [Sim.send], and so every fault draw, where a sweep
     over all nodes would put it. *)
  let step rt ~landed =
    ignore (Sim.step rt.net rt.deliver);
    let round = Sim.round rt.net in
    landed round;
    rt.visits <- 0;
    for v = 0 to Array.length rt.endpoints - 1 do
      let inbox = rt.inboxes.(v) in
      rt.inboxes.(v) <- [];
      match rt.endpoints.(v) with
      | Some ep
        when (inbox <> [] || due ep ~round)
             && not (Fault.crashed rt.faults ~round v) ->
          rt.visited.(rt.visits) <- v;
          rt.visits <- rt.visits + 1;
          post rt v (receive rt.g ~round ep (List.rev inbox))
      | _ -> ()
    done

  let iter_visited rt f =
    for i = 0 to rt.visits - 1 do
      f rt.visited.(i)
    done

  (* Does [v] keep the run going at [round]: started, up, and with
     work pending? *)
  let busy rt ~round v =
    match rt.endpoints.(v) with
    | Some ep -> active ep && not (Fault.crashed rt.faults ~round v)
    | None -> false

  (* A loop, not an [Array.for_all] closure: it runs every round and
     must not allocate. *)
  let idle rt ~round =
    Sim.quiescent rt.net
    &&
    let n = Array.length rt.endpoints in
    let v = ref 0 in
    while !v < n && not (busy rt ~round !v) do
      incr v
    done;
    !v = n
end
