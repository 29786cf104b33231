module Graph = Graphlib.Graph

type config = {
  initial_rto : int;
  max_rto : int;
  max_retries : int;
  backoff : float;
}

let default_config =
  { initial_rto = 3; max_rto = 32; max_retries = 12; backoff = 2. }

let initial_rto = default_config.initial_rto
let max_rto = default_config.max_rto
let max_retries = default_config.max_retries

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

module Make (P : Sim.PROTOCOL) = struct
  (* Instruments, shared by every node of this instantiation (the
     counts are network-wide aggregates).  They default to no-ops;
     [use_metrics] swaps in live ones before a run. *)
  let m_retrans =
    ref (Obs.Metrics.counter Obs.Metrics.disabled "arq_retransmissions")

  let m_dead = ref (Obs.Metrics.counter Obs.Metrics.disabled "arq_dead_letters")
  let m_timer = ref (Obs.Metrics.counter Obs.Metrics.disabled "arq_timer_fires")

  let m_ack_latency =
    ref (Obs.Metrics.histogram Obs.Metrics.disabled "arq_ack_latency")

  let m_backoff =
    ref (Obs.Metrics.counter Obs.Metrics.disabled "arq_backoff_escalations")

  let use_metrics m =
    m_retrans := Obs.Metrics.counter m "arq_retransmissions";
    m_dead := Obs.Metrics.counter m "arq_dead_letters";
    m_timer := Obs.Metrics.counter m "arq_timer_fires";
    m_ack_latency := Obs.Metrics.histogram m "arq_ack_latency";
    m_backoff := Obs.Metrics.counter m "arq_backoff_escalations"

  (* Causal spans, same sharing discipline as the instruments: one
     [Arq] span per stop-and-wait exchange (first transmission →
     acknowledgement), with each retransmission a point-event linked
     to it, so the critical path can tell a slow hop from a lossy one. *)
  let s_spans = ref Obs.Span.disabled
  let use_spans s = s_spans := s

  type message = { acks : int list; data : (int * P.message) option }

  let message_words { acks; data } =
    let d = match data with Some (_, m) -> 1 + P.message_words m | None -> 0 in
    Stdlib.max 1 (List.length acks + d)

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

  type state = {
    v : int;
    mutable inner : P.state;
    peers : peer array;
    index : (int, int) Hashtbl.t;  (** neighbor id -> peers slot *)
    mutable retrans : int;
    mutable dead : int;
    mutable abandoned : int list;  (** peers with >= 1 dead letter *)
    mutable wake : int;  (** earliest in-flight [deadline], [max_int] if none *)
    mutable started : bool;  (** [receive] has run: deadlines are anchored *)
  }

  let inner st = st.inner
  let retransmissions st = st.retrans
  let dead_letters st = st.dead
  let suspected st = st.abandoned

  let link_idle st w =
    match Hashtbl.find_opt st.index w with
    | None -> true
    | Some i ->
        let p = st.peers.(i) in
        p.inflight = None && Queue.is_empty p.queue

  (* Between calls a non-empty queue implies a seq in flight (every
     flush starts the next one), so in-flight timers are all the work
     a node can have pending. *)
  let active st = st.wake <> max_int
  let due st ~round = st.wake <= round || ((not st.started) && active st)

  let recompute_wake st =
    st.wake <-
      Array.fold_left
        (fun w p ->
          match p.inflight with
          | Some _ when p.deadline < w -> p.deadline
          | _ -> w)
        max_int st.peers

  let peer_of st w =
    match Hashtbl.find_opt st.index w with
    | Some i -> st.peers.(i)
    | None ->
        invalid_arg
          (Printf.sprintf "Reliable: node %d has no neighbor %d" st.v w)

  let enqueue st msgs =
    List.iter (fun (dst, m) -> Queue.add m (peer_of st dst).queue) msgs

  (* Begin transmitting the next queued message, if any. *)
  let start_next ~owner ~round p =
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
          (if Obs.Span.enabled !s_spans then
             Obs.Span.open_span !s_spans ~src:owner ~dst:p.nbr Obs.Span.Arq
               ~name:(Printf.sprintf "seq-%d" seq)
               ~round
           else -1);
        Some (seq, m)

  (* One round of the sender side for [p]: fire the timer if its
     deadline has come, decide what data (if any) goes on the wire this
     round. *)
  let outgoing st ~round p =
    let data =
      match p.inflight with
      | None -> start_next ~owner:st.v ~round p
      | Some (seq, m) ->
          if round < p.deadline then None
          else if p.retries >= !current_config.max_retries then begin
            (* The peer is not answering (crashed, or the link is
               hopeless): abandon, move on. *)
            Obs.Metrics.incr !m_timer;
            p.inflight <- None;
            st.dead <- st.dead + 1;
            Obs.Metrics.incr !m_dead;
            if not (List.mem p.nbr st.abandoned) then
              st.abandoned <- p.nbr :: st.abandoned;
            Obs.Span.drop !s_spans ~round ~reason:"dead-letter" p.span;
            p.span <- -1;
            start_next ~owner:st.v ~round p
          end
          else begin
            Obs.Prof.enter (Obs.Prof.current ()) "arq_retransmit";
            Obs.Metrics.incr !m_timer;
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
            if next > p.rto then Obs.Metrics.incr !m_backoff;
            p.rto <- next;
            p.deadline <- round + next;
            st.retrans <- st.retrans + 1;
            Obs.Metrics.incr !m_retrans;
            if Obs.Span.enabled !s_spans then
              ignore
                (Obs.Span.span !s_spans ~parent:p.span ~src:st.v ~dst:p.nbr
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
     runs once per [receive], so a driver that visits only the nodes
     with mail, an outbox or a {!due} timer pays it only there; it gets
     its own region (with retransmissions attributed separately inside
     it). *)
  let flush st ~round =
    let prof = Obs.Prof.current () in
    Obs.Prof.enter prof "arq_timer_sweep";
    let out = ref [] in
    for i = 0 to Array.length st.peers - 1 do
      match outgoing st ~round st.peers.(i) with
      | Some m -> out := m :: !out
      | None -> ()
    done;
    recompute_wake st;
    Obs.Prof.leave prof;
    !out

  let init g v =
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
    let st =
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
      }
    in
    enqueue st msgs;
    (st, flush st ~round:0)

  (* Forget everything about one peer's sessions — both directions.
     Called when the peer restarts with a fresh incarnation: its ARQ
     state is gone, so our sequence numbers mean nothing to it (and its
     pre-crash acks must never complete our new transmissions), and the
     dedup table must not swallow the reborn peer's restarted sequence
     numbers.  Also clears the peer from [abandoned]: the suspicion it
     earned by dying belongs to the old incarnation.  Callers tracking
     [suspected] deltas positionally must re-baseline after this. *)
  let reset_peer st ~round w =
    match Hashtbl.find_opt st.index w with
    | None -> ()
    | Some i ->
        let p = st.peers.(i) in
        (match p.inflight with
        | Some _ ->
            Obs.Span.drop !s_spans ~round ~reason:"session-reset" p.span
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
        st.abandoned <- List.filter (fun x -> x <> w) st.abandoned;
        recompute_wake st

  let receive g ~round v st inbox =
    if not st.started then begin
      (* [init] has no round, so it armed its exchanges as of round 0.
         A node's first [receive] comes the round after it started —
         round 1 from the start, or for a late joiner the join round
         its [init] ran in — so its timers count from the round
         before. *)
      st.started <- true;
      Array.iter
        (fun p -> if p.inflight <> None then p.deadline <- p.deadline + round - 1)
        st.peers
    end;
    let deliveries = ref [] in
    List.iter
      (fun (w, { acks; data }) ->
        let p = peer_of st w in
        List.iter
          (fun a ->
            match p.inflight with
            | Some (seq, _) when seq = a ->
                Obs.Metrics.observe !m_ack_latency (round - p.sent_round);
                Obs.Span.close !s_spans ~round p.span;
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
    let inner, outs = P.receive g ~round v st.inner (List.rev !deliveries) in
    st.inner <- inner;
    enqueue st outs;
    (st, flush st ~round)
end
