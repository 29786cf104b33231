module Lines = Util.Lines

type loss =
  | No_loss
  | Iid of float
  | Bursty of { ge : Dsl.ge; horizon : int }

type storm = {
  frac : float;
  spread : float;
  round_lo : int;
  round_hi : int;
  down : Dsl.t option;
}

type churn = {
  events : Dsl.t;
  gap : Dsl.t;
  skew : float;
  down_for : Dsl.t;
}

type t = {
  name : string;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;
  loss : loss;
  dup : float;
  delay : float;
  max_delay : int;
  storm : storm option;
  churn : churn option;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
}

let default =
  {
    name = "default";
    kind = "gnp";
    n = 64;
    p = 0.12;
    graph_seed = 11;
    loss = No_loss;
    dup = 0.;
    delay = 0.;
    max_delay = 3;
    storm = None;
    churn = None;
    budget_rounds = None;
    workload = None;
  }

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let rate field v =
  if v >= 0. && v <= 1. then Ok ()
  else Error (Printf.sprintf "%s %g not in [0,1]" field v)

let dist field d =
  match Dsl.validate d with
  | Ok () -> Ok ()
  | Error msg -> Error (Printf.sprintf "%s: %s" field msg)

let validate s =
  let* () =
    if s.name = "" || String.contains s.name ' ' then
      Error (Printf.sprintf "name %S empty or contains spaces" s.name)
    else Ok ()
  in
  let* () =
    if s.n < 2 then Error (Printf.sprintf "graph n %d < 2" s.n) else Ok ()
  in
  let* () = rate "graph p" s.p in
  let* () =
    match s.loss with
    | No_loss -> Ok ()
    | Iid r -> rate "loss rate" r
    | Bursty { ge; horizon } ->
        let* () =
          if horizon < 1 then
            Error (Printf.sprintf "loss horizon %d < 1" horizon)
          else Ok ()
        in
        Dsl.ge_validate ge
  in
  let* () = rate "dup" s.dup in
  let* () = rate "delay" s.delay in
  let* () =
    if s.max_delay < 1 then
      Error (Printf.sprintf "max_delay %d < 1" s.max_delay)
    else Ok ()
  in
  let* () =
    match s.storm with
    | None -> Ok ()
    | Some st ->
        let* () = rate "storm frac" st.frac in
        let* () = rate "storm spread" st.spread in
        let* () =
          if st.round_lo < 1 || st.round_hi < st.round_lo then
            Error
              (Printf.sprintf "storm rounds %d..%d not a window within 1.."
                 st.round_lo st.round_hi)
          else Ok ()
        in
        (match st.down with None -> Ok () | Some d -> dist "storm down" d)
  in
  let* () =
    match s.churn with
    | None -> Ok ()
    | Some c ->
        let* () = dist "churn events" c.events in
        let* () = dist "churn gap" c.gap in
        let* () = dist "churn down" c.down_for in
        let* () =
          if c.skew >= 0. then Ok ()
          else Error (Printf.sprintf "churn skew %g negative" c.skew)
        in
        if Dsl.mean c.events > 10_000. then
          Error
            (Printf.sprintf "churn events mean %g unreasonably large"
               (Dsl.mean c.events))
        else Ok ()
  in
  let* () =
    match s.budget_rounds with
    | Some b when b < 1 -> Error (Printf.sprintf "budget rounds %d < 1" b)
    | _ -> Ok ()
  in
  match s.workload with
  | None -> Ok ()
  | Some w ->
      let* () =
        if w.Serve.Workload.queries < 1 then
          Error
            (Printf.sprintf "workload queries %d < 1" w.Serve.Workload.queries)
        else Ok ()
      in
      let* () = rate "workload route" w.Serve.Workload.route_frac in
      (match w.Serve.Workload.zipf with
      | Some z when z < 0. ->
          Error (Printf.sprintf "workload zipf %g negative" z)
      | _ -> Ok ())

(* ------------------------------------------------------------------ *)
(* Text form *)

let fstr = Dsl.fstr

let to_string s =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "#scenario v1";
  line "name %s" s.name;
  line "graph kind=%s n=%d p=%s seed=%d" s.kind s.n (fstr s.p) s.graph_seed;
  (match s.loss with
  | No_loss -> ()
  | Iid r -> line "loss iid rate=%s" (fstr r)
  | Bursty { ge; horizon } ->
      line "loss ge pgb=%s pbg=%s good=%s bad=%s horizon=%d" (fstr ge.Dsl.p_gb)
        (fstr ge.Dsl.p_bg) (fstr ge.Dsl.loss_good) (fstr ge.Dsl.loss_bad)
        horizon);
  if s.dup > 0. then line "dup %s" (fstr s.dup);
  if s.delay > 0. then line "delay p=%s max=%d" (fstr s.delay) s.max_delay;
  (match s.storm with
  | None -> ()
  | Some st ->
      line "storm frac=%s spread=%s rounds=%d..%d%s" (fstr st.frac)
        (fstr st.spread) st.round_lo st.round_hi
        (match st.down with
        | None -> ""
        | Some d -> " down=" ^ Dsl.to_string d));
  (match s.churn with
  | None -> ()
  | Some c ->
      line "churn events=%s gap=%s skew=%s down=%s" (Dsl.to_string c.events)
        (Dsl.to_string c.gap) (fstr c.skew)
        (Dsl.to_string c.down_for));
  (match s.budget_rounds with
  | None -> ()
  | Some r -> line "budget rounds=%d" r);
  (match s.workload with
  | None -> ()
  | Some w ->
      let zipf =
        match w.Serve.Workload.zipf with
        | None -> ""
        | Some z -> Printf.sprintf " zipf=%s" (fstr z)
      in
      line "workload queries=%d%s route=%s" w.Serve.Workload.queries zipf
        (fstr w.Serve.Workload.route_frac));
  Buffer.contents b

(* One directive per line, each checked with {!validate} as it lands,
   so a bad value is reported at the line that set it. *)
let of_lines ~file lines =
  let spec = ref default and named = ref false in
  let directive (l : Lines.line) =
    let flt k = Lines.field l k float_of_string_opt in
    let int k = Lines.field l k int_of_string_opt in
    let opt k parse = Lines.field_opt l k parse in
    let dist v =
      match Dsl.parse v with Ok d -> d | Error msg -> Lines.error l msg
    in
    let dst k = dist (Lines.field l k Option.some) in
    let s = !spec in
    let s =
      match l.words with
      | [ "name"; name ] ->
          named := true;
          { s with name }
      | "name" :: _ -> Lines.error l "name takes exactly one token"
      | "graph" :: _ ->
          let kind =
            Lines.field l "kind" (fun k ->
                List.find_opt (String.equal k) Graphlib.Gen.kinds)
          in
          let n = int "n" in
          let p = Option.value ~default:s.p (opt "p" float_of_string_opt) in
          let graph_seed = int "seed" in
          { s with kind; n; p; graph_seed }
      | "loss" :: "iid" :: _ -> { s with loss = Iid (flt "rate") }
      | "loss" :: "ge" :: _ ->
          let p_gb = flt "pgb" in
          let p_bg = flt "pbg" in
          let loss_good = flt "good" in
          let loss_bad = flt "bad" in
          let horizon = int "horizon" in
          let ge = { Dsl.p_gb; p_bg; loss_good; loss_bad } in
          { s with loss = Bursty { ge; horizon } }
      | "loss" :: _ -> Lines.error l "loss wants 'iid rate=R' or 'ge ...'"
      | [ "dup"; v ] ->
          { s with dup = Lines.token l "dup" float_of_string_opt v }
      | "dup" :: _ -> Lines.error l "dup takes one rate"
      | "delay" :: _ ->
          let delay = flt "p" in
          let max = opt "max" int_of_string_opt in
          { s with delay; max_delay = Option.value ~default:s.max_delay max }
      | "storm" :: _ ->
          let frac = flt "frac" in
          let spread = flt "spread" in
          let round_lo, round_hi =
            Lines.field l "rounds" (fun v ->
                match String.split_on_char '.' v with
                | [ lo; ""; hi ] -> (
                    match (int_of_string_opt lo, int_of_string_opt hi) with
                    | Some lo, Some hi -> Some (lo, hi)
                    | _ -> None)
                | _ -> None)
          in
          let down = Option.map dist (opt "down" Option.some) in
          { s with storm = Some { frac; spread; round_lo; round_hi; down } }
      | "churn" :: _ ->
          let events = dst "events" in
          let gap = dst "gap" in
          let skew = flt "skew" in
          let down_for = dst "down" in
          { s with churn = Some { events; gap; skew; down_for } }
      | "budget" :: _ -> { s with budget_rounds = Some (int "rounds") }
      | "workload" :: _ ->
          let queries = int "queries" in
          let route_frac = flt "route" in
          let zipf = opt "zipf" float_of_string_opt in
          let w = { Serve.Workload.queries; zipf; route_frac } in
          { s with workload = Some w }
      | _ ->
          Lines.error l
            (Printf.sprintf "unknown directive %S" (List.hd l.words))
    in
    match validate s with Ok () -> spec := s | Error msg -> Lines.error l msg
  in
  let last = lines directive in
  if not !named then Lines.fail ~file ~line:last "missing 'name' line";
  !spec

let parse ~file text = of_lines ~file (Lines.words_of_string ~file text)
let load path = of_lines ~file:path (Lines.words path)

let save s path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string s))

(* ------------------------------------------------------------------ *)
(* Built-in families *)

let crash_storm =
  {
    default with
    name = "crash-storm";
    loss = Iid 0.02;
    storm =
      Some
        { frac = 0.06; spread = 0.35; round_lo = 1; round_hi = 30; down = None };
  }

let bursty_loss =
  {
    default with
    name = "bursty-loss";
    loss =
      Bursty
        {
          ge = { Dsl.p_gb = 0.05; p_bg = 0.25; loss_good = 0.01; loss_bad = 0.6 };
          horizon = 400;
        };
    dup = 0.01;
    delay = 0.03;
  }

let churn_heavy =
  {
    default with
    name = "churn-heavy";
    loss = Iid 0.02;
    churn =
      Some
        {
          events = Dsl.Geometric 0.12;
          gap = Dsl.Pareto { alpha = 1.5; xm = 4. };
          skew = 1.2;
          down_for = Dsl.Uniform { lo = 10.; hi = 40. };
        };
  }

let mixed =
  {
    default with
    name = "mixed";
    loss =
      Bursty
        {
          ge = { Dsl.p_gb = 0.04; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.5 };
          horizon = 400;
        };
    dup = 0.01;
    delay = 0.03;
    storm =
      Some
        { frac = 0.04; spread = 0.3; round_lo = 5; round_hi = 35; down = None };
    churn =
      Some
        {
          events = Dsl.Geometric 0.25;
          gap = Dsl.Pareto { alpha = 1.6; xm = 5. };
          skew = 1.0;
          down_for = Dsl.Uniform { lo = 10.; hi = 30. };
        };
    workload = Some { Serve.Workload.queries = 200; zipf = Some 1.1; route_frac = 0.25 };
  }

(* Deliberately under-budgeted: the churn tax pushes every sample past
   the round budget, so the sweep must FAIL each one and shrink it to
   a minimal reproducer.  The budget clears a fault-free build of the
   same graph by a wide margin — shrinking converges on the churn, not
   on the base construction. *)
let tight_budget =
  {
    default with
    name = "tight-budget";
    n = 48;
    p = 0.15;
    graph_seed = 5;
    churn =
      Some
        {
          events = Dsl.Const 6.;
          gap = Dsl.Const 12.;
          skew = 1.0;
          down_for = Dsl.Const 30.;
        };
    budget_rounds = Some 100;
  }

(* Crash-recovery storm: the crash-storm contagion under loss, but
   every crashed node draws a downtime and restarts — the sweep then
   exercises incarnation-safe delivery and rejoin repair on every
   sample. *)
let restart_storm =
  {
    default with
    name = "restart-storm";
    loss = Iid 0.02;
    storm =
      Some
        {
          frac = 0.06;
          spread = 0.35;
          round_lo = 1;
          round_hi = 30;
          down = Some (Dsl.Uniform { lo = 20.; hi = 120. });
        };
  }

let builtins =
  [
    ("crash-storm", crash_storm);
    ("bursty-loss", bursty_loss);
    ("churn-heavy", churn_heavy);
    ("mixed", mixed);
    ("restart-storm", restart_storm);
    ("tight-budget", tight_budget);
  ]

let builtin name = List.assoc_opt name builtins
