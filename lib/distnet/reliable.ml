module Graph = Graphlib.Graph

(* The retransmit timer: a first timeout one round past the loss-free
   ack round trip, doubled on each timeout up to [max_rto], and
   [max_retries] retransmissions before a transmission is abandoned. *)
let initial_rto = 3
let max_rto = 32
let max_retries = 12

(* Double a full buffer; the new room holds [fill]. *)
let grow a fill =
  let b = Array.make (Stdlib.max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Unused payload slots hold this immediate, as in [Sim]'s batches:
   no buffer keeps a message alive, and a slot is never read back as a
   message past its buffer's length. *)
let vacant () : 'm = Obj.magic 0

(* One frame per transmission: [nacks] distinct seqs acknowledged, of
   which [ack] is the largest, and the data seq [seq] (-1 for none) with
   its payload. *)
type 'm frame = { ack : int; nacks : int; seq : int; data : 'm }

let frame_words words f =
  let d = if f.seq >= 0 then 1 + words f.data else 0 in
  Stdlib.max 1 (f.nacks + d)

(* A peer slot's [out] when no frame is staged: one block for every
   message type ([frame] is covariant), told apart by address. *)
let no_frame = { ack = -1; nacks = 0; seq = -1; data = vacant () }

(* The sinks of one run and its write-off log, shared by all its
   endpoints (the counts are network-wide aggregates).  Causal spans:
   one [Arq] span per stop-and-wait exchange (first transmission →
   acknowledgement), with each retransmission a point-event linked to
   it, so the critical path can tell a slow hop from a lossy one. *)
type sinks = {
  spans : Obs.Span.t;
  m_retrans : Obs.Metrics.counter;
  m_dead : Obs.Metrics.counter;
  m_timer : Obs.Metrics.counter;
  m_ack_latency : Obs.Metrics.histogram;
  m_backoff : Obs.Metrics.counter;
  writeoffs : (int * int) Queue.t;
      (** [(by, w)] per peer newly abandoned this step, in order *)
}

type 'm peer = {
  nbr : int;
  mutable next_seq : int;
  (* The send queue, a ring of [qlen] messages from [qhead];
     its capacity is 0 or a power of two. *)
  mutable ring : 'm array;
  mutable qhead : int;
  mutable qlen : int;
  mutable inflight : int;  (** the stop-and-wait window's seq, or -1 *)
  mutable payload : 'm;  (** [inflight]'s payload *)
  mutable rto : int;
  mutable deadline : int;  (** round the inflight seq times out *)
  mutable retries : int;
  mutable sent_round : int;  (** first transmission of the inflight seq *)
  (* Acks owed, piggybacked on the next frame: how many distinct seqs
     and the largest.  A round's frames from one peer arrive in send
     order, so their seqs never decrease and a seq equal to [ack] is
     the only repeat there can be. *)
  mutable nacks : int;
  mutable ack : int;
  (* Seqs delivered inward: every seq below [expect] except the
     [skipped] ones, seqs the peer abandoned before they got here. *)
  mutable expect : int;
  mutable skipped : int list;
  mutable span : int;  (** open [Arq] span of the inflight seq, or -1 *)
  mutable out : 'm frame;  (** staged by [flush], posted by [post] *)
}

type 'm endpoint = {
  v : int;
  peers : 'm peer array;  (** in CSR neighbour order *)
  mutable retrans : int;
  mutable dead : int;
  mutable abandoned : int list;  (** peers with >= 1 dead letter *)
  mutable wake : int;  (** earliest in-flight [deadline], [max_int] if none *)
  mutable started : bool;  (** visited once: deadlines are anchored *)
  (* The outbox: {!send}s in send order. *)
  mutable out_dst : int array;
  mutable out_msg : 'm array;
  mutable out_len : int;
  sinks : sinks;
}

let retransmissions ep = ep.retrans
let dead_letters ep = ep.dead

(* [w]'s slot in [ep.peers], or -1. *)
let slot ep w =
  let peers = ep.peers in
  let i = ref 0 in
  while !i < Array.length peers && peers.(!i).nbr <> w do
    incr i
  done;
  if !i < Array.length peers then !i else -1

let peer_of ep w =
  let i = slot ep w in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Reliable: node %d has no neighbor %d" ep.v w);
  ep.peers.(i)

let queued_to ep w =
  let i = ref 0 in
  while !i < ep.out_len && ep.out_dst.(!i) <> w do
    incr i
  done;
  !i < ep.out_len

let link_idle ep w =
  (let i = slot ep w in
   i < 0 || (ep.peers.(i).inflight < 0 && ep.peers.(i).qlen = 0))
  && not (queued_to ep w)

(* Between calls a non-empty queue implies a seq in flight (every
   flush starts the next one), so in-flight timers and the outbox are
   all the work a node can have pending. *)
let active ep = ep.wake <> max_int || ep.out_len > 0

(* Must the node be visited at [round] even with no mail?  Before the
   first visit any pending work is due: [start] has no round, and that
   visit anchors its timers. *)
let due ep ~round =
  ep.out_len > 0 || ep.wake <= round
  || ((not ep.started) && ep.wake <> max_int)

let recompute_wake ep =
  let w = ref max_int in
  for i = 0 to Array.length ep.peers - 1 do
    let p = ep.peers.(i) in
    if p.inflight >= 0 && p.deadline < !w then w := p.deadline
  done;
  ep.wake <- !w

let push p m =
  let cap = Array.length p.ring in
  if p.qlen = cap then begin
    let ring = Array.make (Stdlib.max 4 (2 * cap)) (vacant ()) in
    for i = 0 to p.qlen - 1 do
      ring.(i) <- p.ring.((p.qhead + i) land (cap - 1))
    done;
    p.ring <- ring;
    p.qhead <- 0
  end;
  p.ring.((p.qhead + p.qlen) land (Array.length p.ring - 1)) <- m;
  p.qlen <- p.qlen + 1

let pop p =
  let m = p.ring.(p.qhead) in
  p.ring.(p.qhead) <- vacant ();
  p.qhead <- (p.qhead + 1) land (Array.length p.ring - 1);
  p.qlen <- p.qlen - 1;
  m

let rec enqueue ep = function
  | [] -> ()
  | (dst, m) :: rest ->
      push (peer_of ep dst) m;
      enqueue ep rest

(* Begin transmitting the next queued message, if any. *)
let start_next ep ~round p =
  p.qlen > 0
  &&
  let seq = p.next_seq in
  p.next_seq <- seq + 1;
  p.payload <- pop p;
  p.inflight <- seq;
  p.rto <- initial_rto;
  p.deadline <- round + initial_rto;
  p.retries <- 0;
  p.sent_round <- round;
  p.span <-
    (if Obs.Span.enabled ep.sinks.spans then
       Obs.Span.open_span ep.sinks.spans ~src:ep.v ~dst:p.nbr Obs.Span.Arq
         ~name:(Printf.sprintf "seq-%d" seq)
         ~round
     else -1);
  true

(* Close the stop-and-wait window: acked, abandoned or reset. *)
let settle p =
  p.span <- -1;
  p.inflight <- -1;
  p.payload <- vacant ()

(* One round of the sender side for [p]: fire the timer if its
   deadline has come; is the in-flight seq on the wire this round? *)
let outgoing ep ~round p =
  let s = ep.sinks in
  if p.inflight < 0 then start_next ep ~round p
  else if round < p.deadline then false
  else if p.retries >= max_retries then begin
    (* The peer is not answering (crashed, or the link is hopeless):
       abandon, move on. *)
    Obs.Metrics.incr s.m_timer;
    ep.dead <- ep.dead + 1;
    Obs.Metrics.incr s.m_dead;
    if not (List.mem p.nbr ep.abandoned) then begin
      ep.abandoned <- p.nbr :: ep.abandoned;
      Queue.add (ep.v, p.nbr) s.writeoffs
    end;
    Obs.Span.drop s.spans ~round ~reason:"dead-letter" p.span;
    settle p;
    start_next ep ~round p
  end
  else begin
    Obs.Prof.enter (Obs.Prof.current ()) "arq_retransmit";
    Obs.Metrics.incr s.m_timer;
    p.retries <- p.retries + 1;
    (* An escalation is a timeout that actually grew the window. *)
    let next = Stdlib.min max_rto (2 * p.rto) in
    if next > p.rto then Obs.Metrics.incr s.m_backoff;
    p.rto <- next;
    p.deadline <- round + next;
    ep.retrans <- ep.retrans + 1;
    Obs.Metrics.incr s.m_retrans;
    if Obs.Span.enabled s.spans then
      ignore
        (Obs.Span.span s.spans ~parent:p.span ~src:ep.v ~dst:p.nbr
           Obs.Span.Retransmit
           ~name:(Printf.sprintf "seq-%d" p.inflight)
           ~start_round:round ~stop_round:round);
    Obs.Prof.leave (Obs.Prof.current ());
    true
  end

(* The timer sweep over one node's peers: starts queued sends, fires
   the timers whose deadline has come, and stages each peer's frame —
   the data on the wire this round and the acks owed — in its slot.
   Ascending peer order fixes span ids and the order of write-offs.
   It runs once per [receive], so it is paid only at the nodes a step
   visits; it gets its own region (with retransmissions attributed
   separately inside it). *)
let flush ep ~round =
  let prof = Obs.Prof.current () in
  Obs.Prof.enter prof "arq_timer_sweep";
  for i = 0 to Array.length ep.peers - 1 do
    let p = ep.peers.(i) in
    if outgoing ep ~round p then
      p.out <-
        { ack = p.ack; nacks = p.nacks; seq = p.inflight; data = p.payload }
    else if p.nacks > 0 then
      p.out <- { ack = p.ack; nacks = p.nacks; seq = -1; data = vacant () };
    p.nacks <- 0
  done;
  recompute_wake ep;
  Obs.Prof.leave prof

let endpoint_of sinks g v =
  let fresh nbr =
    {
      nbr;
      next_seq = 0;
      ring = [||];
      qhead = 0;
      qlen = 0;
      inflight = -1;
      payload = vacant ();
      rto = initial_rto;
      deadline = 0;
      retries = 0;
      sent_round = 0;
      nacks = 0;
      ack = -1;
      expect = 0;
      skipped = [];
      span = -1;
      out = no_frame;
    }
  in
  let peers = Array.make (Graph.degree g v) (fresh (-1)) in
  let k = ref 0 in
  Graph.iter_neighbors g v (fun w _ ->
      peers.(!k) <- fresh w;
      incr k);
  {
    v;
    peers;
    retrans = 0;
    dead = 0;
    abandoned = [];
    wake = max_int;
    started = false;
    out_dst = [||];
    out_msg = [||];
    out_len = 0;
    sinks;
  }

(* Forget everything about one peer's sessions — both directions.
   Called when the peer restarts with a fresh incarnation: its ARQ
   state is gone, so our sequence numbers mean nothing to it (and its
   pre-crash acks must never complete our new transmissions), and the
   delivered seqs must not swallow the reborn peer's restarted
   sequence numbers.  Also clears the peer from [abandoned]: the
   suspicion it earned by dying belongs to the old incarnation.  The
   outbox is not a session: what the caller sent the peer still goes
   out. *)
let reset_peer ep ~round w =
  let i = slot ep w in
  if i >= 0 then begin
    let p = ep.peers.(i) in
    if p.inflight >= 0 then
      Obs.Span.drop ep.sinks.spans ~round ~reason:"session-reset" p.span;
    settle p;
    p.next_seq <- 0;
    while p.qlen > 0 do
      ignore (pop p)
    done;
    p.rto <- initial_rto;
    p.retries <- 0;
    p.sent_round <- round;
    p.nacks <- 0;
    p.expect <- 0;
    p.skipped <- [];
    ep.abandoned <- List.filter (fun x -> x <> w) ep.abandoned;
    recompute_wake ep
  end

(* Is this the first receipt of [seq] from [p]?  Marks it delivered.
   A seq beyond [expect] skips the seqs in between, which the peer
   abandoned; a late copy of one of those is still a first receipt. *)
let first_receipt p seq =
  if seq >= p.expect then begin
    for s = p.expect to seq - 1 do
      p.skipped <- s :: p.skipped
    done;
    p.expect <- seq + 1;
    true
  end
  else if List.mem seq p.skipped then begin
    p.skipped <- List.filter (fun s -> s <> seq) p.skipped;
    true
  end
  else false

(* ---------------- the runtime ---------------- *)

(* One round's arrivals: per node an array-linked chain, in arrival
   order, through entries [0 .. len - 1] of the pool arrays. *)
type 'm inbox = {
  head : int array;  (** per node: first entry, or -1 *)
  tail : int array;  (** per node: last entry *)
  mutable src : int array;
  mutable frame : 'm frame array;
  mutable next : int array;  (** next entry of the same node, or -1 *)
  mutable len : int;
}

let arrive ib ~dst ~src f =
  let i = ib.len in
  if i = Array.length ib.src then begin
    ib.src <- grow ib.src 0;
    ib.frame <- grow ib.frame no_frame;
    ib.next <- grow ib.next 0
  end;
  ib.src.(i) <- src;
  ib.frame.(i) <- f;
  ib.next.(i) <- -1;
  if ib.head.(dst) < 0 then ib.head.(dst) <- i
  else ib.next.(ib.tail.(dst)) <- i;
  ib.tail.(dst) <- i;
  ib.len <- i + 1

type 'm t = {
  g : Graph.t;
  words : 'm -> int;
  net : 'm frame Sim.t;
  faults : Fault.t;
  dynamic : bool;
  sinks : sinks;
  endpoints : 'm endpoint option array;
  inbox : 'm inbox;
  deliver : dst:int -> src:int -> 'm frame -> unit;
  (* A visit's deliveries, handed to the caller's [receive]. *)
  mutable senders : int array;
  mutable payloads : 'm array;
}

let create ?(faults = Fault.none) ?tracer ?(metrics = Obs.Metrics.disabled)
    ?(spans = Obs.Span.disabled) ~words g =
  (* The ARQ instruments come before the engine's, in this order: a
     metrics snapshot lists instruments in creation order (and a
     record's fields are not evaluated in the order written). *)
  let m_retrans = Obs.Metrics.counter metrics "arq_retransmissions" in
  let m_dead = Obs.Metrics.counter metrics "arq_dead_letters" in
  let m_timer = Obs.Metrics.counter metrics "arq_timer_fires" in
  let m_ack_latency = Obs.Metrics.histogram metrics "arq_ack_latency" in
  let m_backoff = Obs.Metrics.counter metrics "arq_backoff_escalations" in
  let sinks =
    {
      spans;
      m_retrans;
      m_dead;
      m_timer;
      m_ack_latency;
      m_backoff;
      writeoffs = Queue.create ();
    }
  in
  let net = Sim.create ~faults ?tracer ~metrics ~spans g in
  let n = Graph.n g in
  let inbox =
    {
      head = Array.make n (-1);
      tail = Array.make n 0;
      src = [||];
      frame = [||];
      next = [||];
      len = 0;
    }
  in
  {
    g;
    words;
    net;
    faults;
    dynamic = Fault.has_churn faults;
    sinks;
    endpoints = Array.make n None;
    inbox;
    deliver = arrive inbox;
    senders = [||];
    payloads = [||];
  }

(* Node [ep]'s round: take the acks and data of its arrivals from
   entry [first] on, hand the new deliveries to [receive], queue the
   outbox — with what [receive] sent — and flush. *)
let visit rt ~receive ~round ep first =
  if not ep.started then begin
    (* [start] has no round, so it armed its exchanges as of round 0.
       A node's first visit comes the round after it started — round 1
       from the start, or for a late joiner the join round it started
       in — so its timers count from the round before. *)
    ep.started <- true;
    Array.iter
      (fun p -> if p.inflight >= 0 then p.deadline <- p.deadline + round - 1)
      ep.peers
  end;
  let s = ep.sinks and ib = rt.inbox in
  let k = ref 0 and i = ref first in
  while !i >= 0 do
    let w = ib.src.(!i) and f = ib.frame.(!i) in
    i := ib.next.(!i);
    let p = peer_of ep w in
    (* Only the largest ack can match: the in-flight seq is the
       newest the sender has started. *)
    if f.nacks > 0 && f.ack = p.inflight then begin
      Obs.Metrics.observe s.m_ack_latency (round - p.sent_round);
      Obs.Span.close s.spans ~round p.span;
      settle p;
      p.rto <- initial_rto;
      p.retries <- 0
    end;
    if f.seq >= 0 then begin
      (* Ack every receipt — a duplicate means our previous ack was
         lost (or the network duplicated the data). *)
      if p.nacks = 0 || f.seq <> p.ack then begin
        p.nacks <- p.nacks + 1;
        p.ack <- f.seq
      end;
      if first_receipt p f.seq then begin
        if !k = Array.length rt.senders then begin
          rt.senders <- grow rt.senders 0;
          rt.payloads <- grow rt.payloads (vacant ())
        end;
        rt.senders.(!k) <- w;
        rt.payloads.(!k) <- f.data;
        incr k
      end
    end
  done;
  receive ep.v ~senders:rt.senders ~payloads:rt.payloads !k;
  Array.fill rt.payloads 0 !k (vacant ());
  (* The outbox holds what was sent since the last visit and, last,
     what the deliveries just triggered. *)
  for j = 0 to ep.out_len - 1 do
    push (peer_of ep ep.out_dst.(j)) ep.out_msg.(j)
  done;
  Array.fill ep.out_msg 0 ep.out_len (vacant ());
  ep.out_len <- 0;
  flush ep ~round

let net rt = rt.net

let endpoint rt v =
  match rt.endpoints.(v) with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Reliable: node %d not started" v)

let send rt ~src ~dst m =
  let ep = endpoint rt src in
  let i = ep.out_len in
  if i = Array.length ep.out_dst then begin
    ep.out_dst <- grow ep.out_dst 0;
    ep.out_msg <- grow ep.out_msg (vacant ())
  end;
  ep.out_dst.(i) <- dst;
  ep.out_msg.(i) <- m;
  ep.out_len <- i + 1

(* Put the staged frames on the wire, last peer first: the order the
   frames have always gone out in, which fixes every fault draw.
   Node programs are churn-oblivious: a frame over a down link never
   makes it onto the wire — loss, as far as the ARQ can tell, and
   persistent downtime ripens into a suspicion like a crashed peer.
   [~wire:false] drops them all, as for a node started while down. *)
let post rt ep ~wire =
  for i = Array.length ep.peers - 1 downto 0 do
    let p = ep.peers.(i) in
    let f = p.out in
    if f != no_frame then begin
      p.out <- no_frame;
      if wire && ((not rt.dynamic) || Sim.link_up rt.net ~src:ep.v ~dst:p.nbr)
      then
        Sim.send rt.net ~src:ep.v ~dst:p.nbr ~words:(frame_words rt.words f) f
    end
  done

let start rt v msgs =
  let ep = endpoint_of rt.sinks rt.g v in
  enqueue ep msgs;
  flush ep ~round:0;
  rt.endpoints.(v) <- Some ep;
  post rt ep
    ~wire:(not (Fault.crashed rt.faults ~round:(Sim.round rt.net) v))

(* Visit only the up nodes with mail or due work: any other visit is a
   no-op, since [receive] sends nothing without deliveries and the
   flush neither sends nor arms a timer.  Ascending order
   keeps every [Sim.send], and so every fault draw, where a sweep
   over all nodes would put it.  The write-offs go to [suspect] only
   after the last visit, so that no visit of this step sees the
   caller react to an earlier one. *)
let step rt ~receive ~landed ~suspect =
  ignore (Sim.step rt.net rt.deliver);
  let round = Sim.round rt.net in
  landed round;
  let ib = rt.inbox in
  for v = 0 to Array.length rt.endpoints - 1 do
    let first = ib.head.(v) in
    ib.head.(v) <- -1;
    match rt.endpoints.(v) with
    | Some ep
      when (first >= 0 || due ep ~round)
           && not (Fault.crashed rt.faults ~round v) ->
        visit rt ~receive ~round ep first;
        post rt ep ~wire:true
    | _ -> ()
  done;
  Array.fill ib.frame 0 ib.len no_frame;
  ib.len <- 0;
  let log = rt.sinks.writeoffs in
  while not (Queue.is_empty log) do
    let by, w = Queue.take log in
    suspect ~by w
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
