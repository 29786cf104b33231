module Graph = Graphlib.Graph
module Gen = Graphlib.Gen
module Lines = Util.Lines

type plan = {
  scenario : string;
  sample : int;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;
  fault_seed : int;
  fspec : Distnet.Fault.spec;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
  workload_seed : int;
}

let graph_of plan =
  Gen.generate ~kind:plan.kind ~n:plan.n ~p:plan.p ~seed:plan.graph_seed

let faults ~graph plan =
  Distnet.Fault.make ~seed:plan.fault_seed ~graph plan.fspec

(* ------------------------------------------------------------------ *)
(* Sampling *)

let storm_crashes rng g (st : Spec.storm) =
  let n = Graph.n g in
  let crash_round = Array.make n (-1) in
  let crashed = ref 0 in
  (* Never let the contagion eat the whole network: a resilience
     scenario is about surviving a storm, not about an empty graph. *)
  let cap = Stdlib.max 1 (n / 2) in
  let q = Queue.create () in
  let mark v r =
    if crash_round.(v) < 0 && !crashed < cap then begin
      crash_round.(v) <- r;
      incr crashed;
      Queue.add v q
    end
  in
  for v = 0 to n - 1 do
    if Util.Prng.bernoulli rng st.Spec.frac then
      mark v
        (st.Spec.round_lo
        + Util.Prng.int rng (st.Spec.round_hi - st.Spec.round_lo + 1))
  done;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter
      (fun w ->
        if crash_round.(w) < 0 && Util.Prng.bernoulli rng st.Spec.spread then
          mark w
            (Stdlib.min st.Spec.round_hi (crash_round.(v) + 1 + Util.Prng.int rng 3)))
      (Graph.neighbors g v)
  done;
  let out = ref [] in
  for v = n - 1 downto 0 do
    if crash_round.(v) >= 0 then out := (v, crash_round.(v)) :: !out
  done;
  !out

let churn_events rng g (c : Spec.churn) =
  let m = Graph.m g in
  if m = 0 then []
  else begin
    (* Rank links by endpoint-degree sum, heaviest first (stable by
       id): the Zipf skew then aims flaps at the busiest links. *)
    let ranked = Array.init m (fun e -> e) in
    let weight e =
      let u, v = Graph.edge_endpoints g e in
      Graph.degree g u + Graph.degree g v
    in
    Array.sort
      (fun a b ->
        match compare (weight b) (weight a) with 0 -> compare a b | c -> c)
      ranked;
    let sampler = Util.Dist.zipf ~n:m ~s:c.Spec.skew in
    let busy_until = Array.make m (-1) in
    let count = Dsl.draw_int rng c.Spec.events in
    let t = ref 0 in
    let events = ref [] in
    for _ = 1 to count do
      t := !t + Stdlib.max 1 (Dsl.draw_int rng c.Spec.gap);
      (* A link already down at [t] would double-fault; re-draw a few
         times, then let this flap fizzle. *)
      let rec pick tries =
        if tries = 0 then None
        else
          let e = ranked.(Util.Dist.sample sampler rng) in
          if busy_until.(e) >= !t then pick (tries - 1) else Some e
      in
      match pick 8 with
      | None -> ()
      | Some e ->
          let dur = Stdlib.max 1 (Dsl.draw_int rng c.Spec.down_for) in
          busy_until.(e) <- !t + dur;
          let u, v = Graph.edge_endpoints g e in
          events :=
            Distnet.Fault.Edge_up { round = !t + dur; u; v }
            :: Distnet.Fault.Edge_down { round = !t; u; v }
            :: !events
    done;
    List.rev !events
  end

let compile (spec : Spec.t) ~sample =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.Compile: " ^ msg));
  if sample < 0 then
    invalid_arg (Printf.sprintf "Scenario.Compile: sample %d negative" sample);
  let graph_seed = spec.Spec.graph_seed + sample in
  let g = Gen.generate ~kind:spec.Spec.kind ~n:spec.Spec.n ~p:spec.Spec.p ~seed:graph_seed in
  let rng = Util.Prng.create ~seed:((graph_seed * 1_000_003) + (7919 * sample) + 5) in
  let fault_seed = Util.Prng.int rng 1_000_000_000 in
  let drop, drop_profile =
    match spec.Spec.loss with
    | Spec.No_loss -> (0., [])
    | Spec.Iid r -> (r, [])
    | Spec.Bursty { ge; horizon } -> (0., Dsl.ge_profile rng ge ~horizon)
  in
  let crashes, restarts =
    match spec.Spec.storm with
    | None -> ([], [])
    | Some st ->
        let crashes = storm_crashes rng g st in
        (* Crash-recovery: each crashed node draws its downtime right
           after the crash draw, keeping the stream layout of
           crash-stop specs untouched (no [down] = no extra draws). *)
        let restarts =
          match st.Spec.down with
          | None -> []
          | Some dist ->
              List.map
                (fun (v, r) -> (v, r + Stdlib.max 1 (Dsl.draw_int rng dist)))
                crashes
        in
        (crashes, restarts)
  in
  let churn =
    match spec.Spec.churn with
    | None -> []
    | Some c -> churn_events rng g c
  in
  let workload_seed =
    match spec.Spec.workload with
    | None -> 0
    | Some _ -> Util.Prng.int rng 1_000_000_000
  in
  {
    scenario = spec.Spec.name;
    sample;
    kind = spec.Spec.kind;
    n = spec.Spec.n;
    p = spec.Spec.p;
    graph_seed;
    fault_seed;
    fspec =
      {
        Distnet.Fault.drop;
        dup = spec.Spec.dup;
        delay = spec.Spec.delay;
        max_delay = spec.Spec.max_delay;
        crashes;
        restarts;
        churn;
        drop_profile;
      };
    budget_rounds = spec.Spec.budget_rounds;
    workload = spec.Spec.workload;
    workload_seed;
  }

(* ------------------------------------------------------------------ *)
(* Plan files *)

let fstr = Dsl.fstr

let to_string plan =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "#plan v1";
  line "scenario %s" plan.scenario;
  line "sample %d" plan.sample;
  line "graph kind=%s n=%d p=%s seed=%d" plan.kind plan.n (fstr plan.p)
    plan.graph_seed;
  line "fault_seed %d" plan.fault_seed;
  let f = plan.fspec in
  if f.Distnet.Fault.drop > 0. then line "drop %s" (fstr f.Distnet.Fault.drop);
  if f.Distnet.Fault.dup > 0. then line "dup %s" (fstr f.Distnet.Fault.dup);
  if f.Distnet.Fault.delay > 0. then
    line "delay p=%s max=%d" (fstr f.Distnet.Fault.delay)
      f.Distnet.Fault.max_delay;
  (match f.Distnet.Fault.drop_profile with
  | [] -> ()
  | segments ->
      line "profile %s"
        (String.concat " "
           (List.map
              (fun (r, rate) -> Printf.sprintf "%d:%s" r (fstr rate))
              segments)));
  List.iter
    (fun (v, r) -> line "crash %d@%d" v r)
    f.Distnet.Fault.crashes;
  List.iter
    (fun (v, r) -> line "restart %d@%d" v r)
    f.Distnet.Fault.restarts;
  List.iter
    (fun ev ->
      match ev with
      | Distnet.Fault.Edge_down { round; u; v } -> line "down %d-%d@%d" u v round
      | Distnet.Fault.Edge_up { round; u; v } -> line "up %d-%d@%d" u v round
      | Distnet.Fault.Partition _ | Distnet.Fault.Join _ ->
          invalid_arg
            "Scenario.Compile.to_string: plan files carry only edge churn")
    f.Distnet.Fault.churn;
  (match plan.budget_rounds with
  | None -> ()
  | Some r -> line "budget rounds=%d" r);
  (match plan.workload with
  | None -> ()
  | Some w ->
      let zipf =
        match w.Serve.Workload.zipf with
        | None -> ""
        | Some z -> Printf.sprintf " zipf=%s" (fstr z)
      in
      line "workload queries=%d%s route=%s seed=%d" w.Serve.Workload.queries
        zipf
        (fstr w.Serve.Workload.route_frac)
        plan.workload_seed);
  Buffer.contents b

let of_lines ~file lines =
  let plan =
    ref
      {
        scenario = "?";
        sample = 0;
        kind = "gnp";
        n = 0;
        p = 0.;
        graph_seed = 0;
        fault_seed = 0;
        fspec = { Distnet.Fault.default_spec with max_delay = 3 };
        budget_rounds = None;
        workload = None;
        workload_seed = 0;
      }
  in
  let crashes = ref [] and restarts = ref [] and churn = ref [] in
  let seen_graph = ref false in
  let directive (l : Lines.line) =
    let int k = Lines.field l k int_of_string_opt in
    let flt k = Lines.field l k float_of_string_opt in
    let opt k parse = Lines.field_opt l k parse in
    let tok what read s = Lines.token l what read s in
    let p = !plan in
    let set_fspec fspec = plan := { p with fspec } in
    match l.words with
    | [ "scenario"; scenario ] -> plan := { p with scenario }
    | [ "sample"; k ] ->
        plan := { p with sample = tok "sample" int_of_string_opt k }
    | "graph" :: _ ->
        let kind =
          Lines.field l "kind" (fun k -> List.find_opt (String.equal k) Gen.kinds)
        in
        let n = int "n" in
        let p' = Option.value ~default:0. (opt "p" float_of_string_opt) in
        let graph_seed = int "seed" in
        seen_graph := true;
        plan := { p with kind; n; p = p'; graph_seed }
    | [ "fault_seed"; s ] ->
        plan := { p with fault_seed = tok "fault_seed" int_of_string_opt s }
    | [ "drop"; v ] ->
        set_fspec { p.fspec with drop = tok "drop" float_of_string_opt v }
    | [ "dup"; v ] ->
        set_fspec { p.fspec with dup = tok "dup" float_of_string_opt v }
    | "delay" :: _ ->
        let delay = flt "p" in
        let max_delay = Option.value ~default:3 (opt "max" int_of_string_opt) in
        set_fspec { p.fspec with delay; max_delay }
    | "profile" :: segs ->
        let segment seg =
          match String.split_on_char ':' seg with
          | [ r; rate ] -> (
              match (int_of_string_opt r, float_of_string_opt rate) with
              | Some r, Some rate -> Some (r, rate)
              | _ -> None)
          | _ -> None
        in
        let drop_profile = List.map (tok "profile segment" segment) segs in
        set_fspec { p.fspec with drop_profile }
    | [ "crash"; s ] -> crashes := tok "crash" Lines.node_at s :: !crashes
    | [ "restart"; s ] -> restarts := tok "restart" Lines.node_at s :: !restarts
    | [ "down"; s ] ->
        let u, v, round = tok "down" Lines.edge_at s in
        churn := Distnet.Fault.Edge_down { round; u; v } :: !churn
    | [ "up"; s ] ->
        let u, v, round = tok "up" Lines.edge_at s in
        churn := Distnet.Fault.Edge_up { round; u; v } :: !churn
    | "budget" :: _ -> plan := { p with budget_rounds = Some (int "rounds") }
    | "workload" :: _ ->
        let queries = int "queries" in
        let route_frac = flt "route" in
        let workload_seed = int "seed" in
        let zipf = opt "zipf" float_of_string_opt in
        let w = { Serve.Workload.queries; zipf; route_frac } in
        plan := { p with workload = Some w; workload_seed }
    | _ ->
        Lines.error l (Printf.sprintf "unknown directive %S" (List.hd l.words))
  in
  let last = lines directive in
  if not !seen_graph then Lines.fail ~file ~line:last "missing 'graph' line";
  let p = !plan in
  {
    p with
    fspec =
      {
        p.fspec with
        crashes = List.rev !crashes;
        restarts = List.rev !restarts;
        churn = List.rev !churn;
      };
  }

let parse ~file text = of_lines ~file (Lines.words_of_string ~file text)
let load path = of_lines ~file:path (Lines.words path)

let save plan path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string plan))
