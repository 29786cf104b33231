type churn_event =
  | Edge_down of { round : int; u : int; v : int }
  | Edge_up of { round : int; u : int; v : int }
  | Partition of { round : int; edges : (int * int) list; heal : int option }
  | Join of { round : int; node : int }

type spec = {
  drop : float;
  dup : float;
  delay : float;
  max_delay : int;
  crashes : (int * int) list;
  restarts : (int * int) list;
  churn : churn_event list;
  drop_profile : (int * float) list;
}

let default_spec =
  {
    drop = 0.;
    dup = 0.;
    delay = 0.;
    max_delay = 1;
    crashes = [];
    restarts = [];
    churn = [];
    drop_profile = [];
  }

type fate = Lost | Pass of { dup : bool; delay : int }

let pass = Pass { dup = false; delay = 0 }

type action =
  | Act_edge_down of { u : int; v : int }
  | Act_edge_up of { u : int; v : int }
  | Act_partition of { links : (int * int) list; heal : int option }
  | Act_heal of { links : (int * int) list }
  | Act_join of int

(* Normalized per-round churn schedule: every churn event contributes
   one action at its round; a partition with a heal round contributes a
   second action at the heal round.  Stable sort keeps the listed order
   within a round. *)
type dynamics = {
  schedule : (int * action) list;
  last_round : int;  (* latest scheduled round, 0 when static *)
}

let no_dynamics = { schedule = []; last_round = 0 }

let dynamics_of_churn churn =
  if churn = [] then no_dynamics
  else begin
    let acts =
      List.concat_map
        (function
          | Edge_down { round; u; v } -> [ (round, Act_edge_down { u; v }) ]
          | Edge_up { round; u; v } -> [ (round, Act_edge_up { u; v }) ]
          | Partition { round; edges; heal } -> (
              let cut = (round, Act_partition { links = edges; heal }) in
              match heal with
              | None -> [ cut ]
              | Some h -> [ cut; (h, Act_heal { links = edges }) ])
          | Join { round; node } -> [ (round, Act_join node) ])
        churn
    in
    let schedule = List.stable_sort (fun (r, _) (r', _) -> compare r r') acts in
    let last_round = List.fold_left (fun acc (r, _) -> max acc r) 0 schedule in
    { schedule; last_round }
  end

let joins_of_churn churn =
  List.filter_map
    (function Join { round; node } -> Some (node, round) | _ -> None)
    churn

(* Per-node event rounds, dense by node id.  [crashed], [incarnation]
   and [joined] run per message in the engine and per node per round
   in the skeleton's ARQ pump, so they are two bounds checks and one
   array read.  An id with no entry — beyond the array, negative, or
   holding the sentinel — has no event: [never] for a crash or restart
   (a round that never comes), [always] for a join (present from the
   start).  The sorted schedules are derived from these arrays. *)
let never = max_int
let always = min_int

type node_rounds = {
  crash_at : int array;  (* earliest listed crash round *)
  restart_at : int array;
  join_at : int array;  (* first round the node is present *)
}

let no_node_rounds = { crash_at = [||]; restart_at = [||]; join_at = [||] }

let round_at a ~absent v =
  if v >= 0 && v < Array.length a then Array.unsafe_get a v else absent

(* [(node, round)] entries into a dense array; [keep old r] decides
   whether a repeated entry overrides the earlier one.  Negative ids
   are dropped: they read as "no event" anyway. *)
let dense ~absent ?(keep = fun _ _ -> true) entries =
  let size = List.fold_left (fun acc (v, _) -> max acc (v + 1)) 0 entries in
  let a = Array.make size absent in
  List.iter
    (fun (v, r) -> if v >= 0 && (a.(v) = absent || keep a.(v) r) then a.(v) <- r)
    entries;
  a

let node_rounds ~crashes ~restarts ~joins =
  {
    crash_at = dense ~absent:never ~keep:(fun old r -> r < old) crashes;
    restart_at = dense ~absent:never restarts;
    join_at = dense ~absent:always joins;
  }

let schedule_of a ~absent =
  let acc = ref [] in
  for v = Array.length a - 1 downto 0 do
    if a.(v) <> absent then acc := (a.(v), v) :: !acc
  done;
  List.stable_sort (fun (r, _) (r', _) -> compare r r') !acc

type fates =
  | No_faults
  | Random of {
      rng : Util.Prng.t;
      spec : spec;
      profile : (int * float) array;  (* sorted drop_profile, for search *)
    }
  | Scripted of (int * int * int, fate) Hashtbl.t
      (* keyed by (round, src, dst): the engine processes at most one
         fresh message per directed edge per round, so the key is
         unique *)

type t = { fates : fates; nodes : node_rounds; dyn : dynamics }

let none = { fates = No_faults; nodes = no_node_rounds; dyn = no_dynamics }
let is_none t = match t.fates with No_faults -> true | _ -> false

(* Restart rejections follow the churn discipline: every error names
   the offending event's index in the listed plan and the field at
   fault.  A restart is only meaningful for a node that crashed, and
   only strictly after its crash round — the node must have been down
   for at least one round for the incarnation to change. *)
let validate_restarts ?graph ~crash_at restarts =
  let seen = Hashtbl.create 8 in
  List.iteri
    (fun i (v, r) ->
      let reject fmt =
        Printf.ksprintf
          (fun detail ->
            invalid_arg
              (Printf.sprintf "Fault.make: restart event #%d: %s" i detail))
          fmt
      in
      (match graph with
      | Some g when v < 0 || v >= Graphlib.Graph.n g ->
          reject "node references vertex %d outside this %d-vertex graph" v
            (Graphlib.Graph.n g)
      | _ -> if v < 0 then reject "node references vertex %d" v);
      (match round_at crash_at ~absent:never v with
      | rc when rc = never ->
          reject "node %d has no crash entry (only crashed nodes can restart)"
            v
      | rc ->
          if r <= rc then
            reject "restart round %d not after node %d's crash round %d" r v
              rc);
      if Hashtbl.mem seen v then reject "duplicate restart entry for node %d" v;
      Hashtbl.replace seen v ())
    restarts

(* Every churn rejection names the offending event — its index in the
   listed plan, its constructor, and the field at fault — so a plan
   sampled from a hundred-event scenario spec points straight at the
   bad entry instead of making the user bisect the list. *)
let validate_churn ?graph churn =
  let kind_name = function
    | Edge_down _ -> "edge_down"
    | Edge_up _ -> "edge_up"
    | Partition _ -> "partition"
    | Join _ -> "join"
  in
  let seen_join = Hashtbl.create 8 in
  List.iteri
    (fun i ev ->
      let reject fmt =
        Printf.ksprintf
          (fun detail ->
            invalid_arg
              (Printf.sprintf "Fault.make: churn event #%d (%s): %s" i
                 (kind_name ev) detail))
          fmt
      in
      let check_vertex field v =
        match graph with
        | Some g when v < 0 || v >= Graphlib.Graph.n g ->
            reject "%s references vertex %d outside this %d-vertex graph"
              field v (Graphlib.Graph.n g)
        | _ -> if v < 0 then reject "%s references vertex %d" field v
      in
      let check_edge field (u, v) =
        check_vertex field u;
        check_vertex field v;
        match graph with
        | Some g when Graphlib.Graph.find_edge g u v = None ->
            reject "%s references edge %d-%d not in the graph" field u v
        | _ -> ()
      in
      let check_round field r =
        if r < 0 then reject "%s %d < 0" field r
      in
      match ev with
      | Edge_down { round; u; v } | Edge_up { round; u; v } ->
          check_round "round" round;
          check_edge "edge" (u, v)
      | Partition { round; edges; heal } -> (
          check_round "round" round;
          if edges = [] then reject "edges list is empty";
          List.iter (check_edge "edges") edges;
          match heal with
          | Some h when h <= round ->
              reject "heal round %d <= partition round %d" h round
          | _ -> ())
      | Join { round; node } ->
          check_vertex "node" node;
          if round < 1 then
            reject
              "round %d < 1 (nodes present from the start need no join event)"
              round;
          if Hashtbl.mem seen_join node then
            reject "duplicate join entry for node %d" node;
          Hashtbl.replace seen_join node ())
    churn

(* The profile is a piecewise-constant override of [spec.drop]: entry
   [(r, p)] sets the per-message loss rate to [p] from round [r] until
   the next entry.  Rejections name the offending segment index and
   field, same discipline as churn. *)
let validate_drop_profile profile =
  List.iteri
    (fun i (r, p) ->
      let reject fmt =
        Printf.ksprintf
          (fun detail ->
            invalid_arg
              (Printf.sprintf "Fault.make: drop_profile segment #%d: %s" i
                 detail))
          fmt
      in
      if r < 0 then reject "round %d < 0" r;
      if not (p >= 0. && p <= 1.) then reject "rate %g not in [0,1]" p)
    profile;
  let rec sorted = function
    | (r1, _) :: ((r2, _) :: _ as tl) ->
        if r2 <= r1 then
          invalid_arg
            (Printf.sprintf
               "Fault.make: drop_profile segment rounds must be strictly \
                increasing (round %d after round %d)"
               r2 r1);
        sorted tl
    | _ -> ()
  in
  sorted profile

let make ~seed ?graph spec =
  let check_rate name p =
    if not (p >= 0. && p <= 1.) then
      invalid_arg (Printf.sprintf "Fault.make: %s rate %g not in [0,1]" name p)
  in
  check_rate "drop" spec.drop;
  check_rate "dup" spec.dup;
  check_rate "delay" spec.delay;
  if spec.delay > 0. && spec.max_delay < 1 then
    invalid_arg "Fault.make: max_delay must be >= 1 when delay > 0";
  let seen_crash = Hashtbl.create 8 in
  List.iter
    (fun (v, r) ->
      if r < 0 then
        invalid_arg (Printf.sprintf "Fault.make: node %d crash round %d < 0" v r);
      (match graph with
      | Some g when v < 0 || v >= Graphlib.Graph.n g ->
          invalid_arg
            (Printf.sprintf
               "Fault.make: crash references vertex %d outside this %d-vertex \
                graph"
               v (Graphlib.Graph.n g))
      | _ ->
          if v < 0 then
            invalid_arg
              (Printf.sprintf "Fault.make: crash references vertex %d" v));
      if Hashtbl.mem seen_crash v then
        invalid_arg
          (Printf.sprintf "Fault.make: duplicate crash entry for node %d" v);
      Hashtbl.replace seen_crash v ())
    spec.crashes;
  validate_churn ?graph spec.churn;
  validate_drop_profile spec.drop_profile;
  let nodes =
    node_rounds ~crashes:spec.crashes ~restarts:spec.restarts
      ~joins:(joins_of_churn spec.churn)
  in
  validate_restarts ?graph ~crash_at:nodes.crash_at spec.restarts;
  {
    fates =
      Random
        {
          rng = Util.Prng.create ~seed;
          spec;
          profile = Array.of_list spec.drop_profile;
        };
    nodes;
    dyn = dynamics_of_churn spec.churn;
  }

let scripted events =
  let fates = Hashtbl.create 256 in
  let crashes = ref [] in
  let restarts = ref [] in
  let rev_churn = ref [] in
  let merge key f =
    let dup, delay =
      match Hashtbl.find_opt fates key with
      | Some (Pass { dup; delay }) -> (dup, delay)
      | Some Lost | None -> (false, 0)
    in
    Hashtbl.replace fates key
      (match f with
      | `Drop -> Lost
      | `Dup -> Pass { dup = true; delay }
      | `Delay k -> Pass { dup; delay = k })
  in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.round, e.Trace.src, e.Trace.dst) in
      match e.Trace.kind with
      | Trace.Drop Trace.Loss -> merge key `Drop
      | Trace.Dup -> merge key `Dup
      | Trace.Delay k -> merge key (`Delay k)
      | Trace.Crash -> crashes := (e.Trace.src, e.Trace.round) :: !crashes
      | Trace.Restart -> restarts := (e.Trace.src, e.Trace.round) :: !restarts
      | Trace.Edge_down ->
          rev_churn :=
            Edge_down { round = e.Trace.round; u = e.Trace.src; v = e.Trace.dst }
            :: !rev_churn
      | Trace.Edge_up ->
          rev_churn :=
            Edge_up { round = e.Trace.round; u = e.Trace.src; v = e.Trace.dst }
            :: !rev_churn
      | Trace.Join ->
          rev_churn :=
            Join { round = e.Trace.round; node = e.Trace.src } :: !rev_churn
      (* Send/Deliver lines, schedule-induced drops, and partition/heal
         markers are informational: the replay engine re-derives them
         (each partitioned link is also traced as its own edge event). *)
      | Trace.Send | Trace.Deliver | Trace.Drop _ | Trace.Partition
      | Trace.Heal ->
          ())
    events;
  let churn = List.rev !rev_churn in
  {
    fates = Scripted fates;
    nodes =
      (* [restarts] is in reverse trace order and the last entry wins:
         a node's first recorded restart is the one replayed. *)
      node_rounds ~crashes:!crashes ~restarts:!restarts
        ~joins:(joins_of_churn churn);
    dyn = dynamics_of_churn churn;
  }

let random_crashes ~seed ~n ~frac ~max_round =
  if not (frac >= 0. && frac <= 1.) then
    invalid_arg
      (Printf.sprintf "Fault.random_crashes: frac %g not in [0,1]" frac);
  if max_round < 1 then
    invalid_arg
      (Printf.sprintf "Fault.random_crashes: max_round %d < 1" max_round);
  let rng = Util.Prng.create ~seed in
  let rec pick v acc =
    if v >= n then List.rev acc
    else if Util.Prng.bernoulli rng frac then
      let round = 1 + Util.Prng.int rng max_round in
      pick (v + 1) ((v, round) :: acc)
    else pick (v + 1) acc
  in
  pick 0 []

let churn_of_trace events =
  List.filter_map
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Edge_down ->
          Some (Edge_down { round = e.Trace.round; u = e.Trace.src; v = e.Trace.dst })
      | Trace.Edge_up ->
          Some (Edge_up { round = e.Trace.round; u = e.Trace.src; v = e.Trace.dst })
      | Trace.Join -> Some (Join { round = e.Trace.round; node = e.Trace.src })
      | _ -> None)
    events

let fate t ~round ~src ~dst =
  match t.fates with
  | No_faults -> pass
  | Scripted fates -> (
      match Hashtbl.find_opt fates (round, src, dst) with
      | Some f -> f
      | None -> pass)
  | Random { rng; spec; profile } ->
      (* Fixed draw order, one decision chain per message: the engine
         calls this exactly once per processed message in deterministic
         order, which keeps randomized runs reproducible from the seed. *)
      let drop_rate =
        (* Last profile segment starting at or before [round]; the base
           rate before the first segment (and with no profile at all). *)
        if Array.length profile = 0 || fst profile.(0) > round then spec.drop
        else begin
          let lo = ref 0 and hi = ref (Array.length profile - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi + 1) / 2 in
            if fst profile.(mid) <= round then lo := mid else hi := mid - 1
          done;
          snd profile.(!lo)
        end
      in
      if drop_rate > 0. && Util.Prng.bernoulli rng drop_rate then Lost
      else
        let dup = spec.dup > 0. && Util.Prng.bernoulli rng spec.dup in
        let delay =
          if spec.delay > 0. && Util.Prng.bernoulli rng spec.delay then
            1 + Util.Prng.int rng spec.max_delay
          else 0
        in
        if dup || delay > 0 then Pass { dup; delay } else pass

(* Crash-recovery: a node is down on the half-open interval
   [crash_round, restart_round); without a restart entry the crash is
   permanent (crash-stop, the pre-existing semantics). *)
let crashed t ~round v =
  round >= round_at t.nodes.crash_at ~absent:never v
  && round < round_at t.nodes.restart_at ~absent:never v

let incarnation t ~round v =
  if round >= round_at t.nodes.restart_at ~absent:never v then 1 else 0

let joined t ~round v = round >= round_at t.nodes.join_at ~absent:always v
let crash_schedule t = schedule_of t.nodes.crash_at ~absent:never
let restart_schedule t = schedule_of t.nodes.restart_at ~absent:never
let join_schedule t = schedule_of t.nodes.join_at ~absent:always
let has_restarts t = Array.exists (fun r -> r <> never) t.nodes.restart_at

let last_restart_round t =
  Array.fold_left
    (fun acc r -> if r <> never then max acc r else acc)
    0 t.nodes.restart_at

let churn_schedule t = t.dyn.schedule
let has_churn t = t.dyn.schedule <> []
let last_churn_round t = t.dyn.last_round
