(* Tests for the scenario layer: the distribution DSL, the
   Gilbert–Elliott channel, spec/plan text round-trips, compile
   determinism, and the shrinker. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

module Dsl = Scenario.Dsl
module Spec = Scenario.Spec
module Compile = Scenario.Compile
module Shrink = Scenario.Shrink
module Sweep = Scenario.Sweep
module Fault = Distnet.Fault

(* ------------------------------------------------------------------ *)
(* DSL: validation, text form, draws *)

let test_dsl_round_trip () =
  List.iter
    (fun d ->
      let s = Dsl.to_string d in
      match Dsl.parse s with
      | Ok d' ->
          checkb (Printf.sprintf "%s reparses to itself" s) true (d = d');
          checks (Printf.sprintf "%s is canonical" s) s (Dsl.to_string d')
      | Error m -> Alcotest.failf "%s did not parse: %s" s m)
    [
      Dsl.Const 5.;
      Dsl.Uniform { lo = 1.; hi = 40. };
      Dsl.Geometric 0.25;
      Dsl.Pareto { alpha = 1.5; xm = 3. };
      Dsl.Zipf { n = 100; s = 1.2 };
      Dsl.Const 0.1;
      Dsl.Uniform { lo = 0.; hi = 0. };
    ]

let test_dsl_parse_errors () =
  let expect_err s =
    match Dsl.parse s with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" s
    | Error _ -> ()
  in
  List.iter expect_err
    [ ""; "const:"; "uniform:5"; "uniform:9..1"; "geometric:0"; "geometric:1.5";
      "pareto:1.5"; "pareto:-1,3"; "zipf:0,1"; "gaussian:0,1" ]

let test_dsl_draws_in_support () =
  let r = Util.Prng.create ~seed:42 in
  for _ = 1 to 500 do
    let u = Dsl.draw r (Dsl.Uniform { lo = 2.; hi = 7. }) in
    checkb "uniform in [lo,hi]" true (u >= 2. && u <= 7.);
    let p = Dsl.draw r (Dsl.Pareto { alpha = 1.5; xm = 3. }) in
    checkb "pareto >= xm" true (p >= 3.);
    let z = Dsl.draw_int r (Dsl.Zipf { n = 10; s = 1.1 }) in
    checkb "zipf rank in [0,n)" true (z >= 0 && z < 10)
  done

(* ------------------------------------------------------------------ *)
(* Properties *)

(* The geometric sampler is exact inversion, so its empirical tail
   must track the analytic [(1-p)^k] decay. *)
let prop_geometric_tail_decay =
  QCheck.Test.make ~name:"dsl: geometric tail matches (1-p)^k" ~count:25
    QCheck.(pair (int_range 1 3) (int_range 0 1000))
    (fun (k, pi) ->
      let p = 0.1 +. (0.5 *. float_of_int pi /. 1000.) in
      let r = Util.Prng.create ~seed:((k * 100003) + pi) in
      let n = 4000 in
      let tail = ref 0 in
      for _ = 1 to n do
        if Dsl.draw_int r (Dsl.Geometric p) >= k then incr tail
      done;
      let empirical = float_of_int !tail /. float_of_int n in
      let analytic = (1. -. p) ** float_of_int k in
      Float.abs (empirical -. analytic) < 0.03)

(* Zipf: the empirical mass of rank 0 must match [1 / H_{n,s}]. *)
let prop_zipf_head_mass =
  QCheck.Test.make ~name:"dsl: zipf head mass matches 1/H(n,s)" ~count:20
    QCheck.(pair (int_range 2 30) (int_range 0 150))
    (fun (n, si) ->
      let s = 0.5 +. (float_of_int si /. 100.) in
      let r = Util.Prng.create ~seed:((n * 7919) + si) in
      let draws = 4000 in
      let hits = ref 0 in
      for _ = 1 to draws do
        if Dsl.draw_int r (Dsl.Zipf { n; s }) = 0 then incr hits
      done;
      let empirical = float_of_int !hits /. float_of_int draws in
      let h = ref 0. in
      for i = 1 to n do
        h := !h +. (float_of_int i ** -.s)
      done;
      Float.abs (empirical -. (1. /. !h)) < 0.05)

(* The Gilbert–Elliott profile's time-weighted loss must track the
   chain's stationary rate once the horizon dwarfs the mixing time. *)
let prop_ge_profile_matches_stationary =
  QCheck.Test.make ~name:"dsl: GE profile loss ~ stationary rate" ~count:20
    QCheck.(triple (int_range 5 50) (int_range 5 50) (int_range 0 100))
    (fun (gb, bg, li) ->
      let ge =
        {
          Dsl.p_gb = float_of_int gb /. 100.;
          p_bg = float_of_int bg /. 100.;
          loss_good = 0.01;
          loss_bad = 0.3 +. (0.5 *. float_of_int li /. 100.);
        }
      in
      let horizon = 8000 in
      let r = Util.Prng.create ~seed:((gb * 1009) + (bg * 31) + li) in
      let profile = Dsl.ge_profile r ge ~horizon in
      (* Structure: strictly increasing rounds from 0, rates in [0,1],
         closed by a loss-free terminator at the horizon. *)
      checkb "profile starts at round 0" true
        (match profile with (0, _) :: _ -> true | _ -> false);
      let rec wf prev = function
        | [] -> true
        | (rd, rate) :: rest ->
            rd > prev && rate >= 0. && rate <= 1. && wf rd rest
      in
      (match profile with
      | first :: rest -> checkb "segments well-formed" true (wf (fst first) rest)
      | [] -> Alcotest.fail "empty profile");
      checkb "terminator closes the horizon" true
        (List.exists (fun seg -> seg = (horizon, 0.)) profile);
      (* Time-weighted loss over the modeled window. *)
      let weighted = ref 0. in
      let rec accum = function
        | (rd, rate) :: ((rd', _) :: _ as rest) when rd < horizon ->
            weighted := !weighted +. (float_of_int (min rd' horizon - rd) *. rate);
            accum rest
        | [ (rd, rate) ] when rd < horizon ->
            weighted := !weighted +. (float_of_int (horizon - rd) *. rate)
        | _ -> ()
      in
      accum profile;
      let empirical = !weighted /. float_of_int horizon in
      Float.abs (empirical -. Dsl.ge_stationary_loss ge) < 0.1)

(* Compiling is a pure function of (spec, sample): same inputs, same
   plan bytes — the property that makes plan files durable artifacts. *)
let prop_compile_deterministic =
  QCheck.Test.make ~name:"compile: same spec+sample => same bytes" ~count:20
    QCheck.(pair (int_bound 4) (int_bound 7))
    (fun (which, sample) ->
      let _, spec = List.nth Spec.builtins (which mod List.length Spec.builtins) in
      let a = Compile.to_string (Compile.compile spec ~sample) in
      let b = Compile.to_string (Compile.compile spec ~sample) in
      a = b)

(* ------------------------------------------------------------------ *)
(* Spec files *)

let test_spec_round_trip_builtins () =
  List.iter
    (fun (name, spec) ->
      let text = Spec.to_string spec in
      let spec' = Spec.parse ~file:name text in
      checkb (name ^ " round-trips structurally") true (spec = spec');
      checks (name ^ " is canonical") text (Spec.to_string spec'))
    Spec.builtins

let test_spec_parse_errors_cite_line () =
  let expect text line msg =
    match Spec.parse ~file:"demo.scenario" text with
    | _ -> Alcotest.failf "expected %S to fail" text
    | exception Util.Lines.Parse_error e ->
        checks "file" "demo.scenario" e.file;
        checki "line" line e.line;
        checks "error text" msg e.msg
  in
  expect "#scenario v1\nname demo\nloss iid\n" 3 "missing rate=: loss iid";
  expect "#scenario v1\nname demo\n\nstorm frac=0.5 spread=0.1\n" 4
    "missing rounds=: storm frac=0.5 spread=0.1";
  expect "#scenario v1\nname demo\nchurn events=gaussian:3 gap=const:5 skew=1 down=const:4\n"
    3
    "bad distribution \"gaussian:3\" (want const:C, uniform:LO..HI, \
     geometric:P, pareto:ALPHA,XM, or zipf:N,S): churn events=gaussian:3 \
     gap=const:5 skew=1 down=const:4"

let test_spec_validate_names_field () =
  let bad = { Spec.default with Spec.dup = 1.5 } in
  (match Spec.validate bad with
  | Error m -> checks "dup named" "dup 1.5 not in [0,1]" m
  | Ok () -> Alcotest.fail "dup 1.5 accepted");
  match Spec.validate { Spec.default with Spec.n = 1 } with
  | Error m -> checks "n named" "graph n 1 < 2" m
  | Ok () -> Alcotest.fail "n=1 accepted"

(* ------------------------------------------------------------------ *)
(* Plan files *)

let test_plan_round_trip () =
  List.iter
    (fun (name, spec) ->
      let plan = Compile.compile spec ~sample:0 in
      let text = Compile.to_string plan in
      let plan' = Compile.parse ~file:name text in
      checkb (name ^ " plan round-trips") true (plan = plan');
      checks (name ^ " plan canonical") text (Compile.to_string plan'))
    Spec.builtins

(* Restart plans are the newest event vocabulary in #plan v1: every
   sampled restart-storm plan (which carries restart lines) must
   round-trip byte-for-byte — parse back to the same value AND
   reserialize to the same bytes. *)
let prop_restart_plan_round_trip =
  QCheck.Test.make ~name:"plan: restart plans round-trip byte-for-byte"
    ~count:20
    QCheck.(int_bound 19)
    (fun sample ->
      let spec = Option.get (Spec.builtin "restart-storm") in
      let plan = Compile.compile spec ~sample in
      QCheck.assume (plan.Compile.fspec.Fault.restarts <> []);
      let text = Compile.to_string plan in
      let plan' = Compile.parse ~file:"restart-storm" text in
      plan = plan' && Compile.to_string plan' = text)

let test_plan_save_load () =
  let plan =
    Compile.compile (Option.get (Spec.builtin "mixed")) ~sample:3
  in
  let path = Filename.temp_file "scenario" ".plan" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Compile.save plan path;
  checkb "load = save" true (plan = Compile.load path)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

(* A structural predicate lets the ddmin core be tested without paying
   for real runs: "still has a churn event" must minimize to exactly
   one churn event, every rate zeroed, workload gone. *)
(* The churn draw is sample-dependent, so pick (deterministically) a
   sample with enough events to make minimization non-trivial. *)
let churny_plan spec ~at_least =
  let rec find s =
    if s > 19 then Alcotest.fail "no sufficiently churny sample in 0..19"
    else
      let p = Compile.compile spec ~sample:s in
      if List.length p.Compile.fspec.Fault.churn >= at_least then p
      else find (s + 1)
  in
  find 0

let test_shrink_minimizes_structurally () =
  let spec = Option.get (Spec.builtin "mixed") in
  let plan = churny_plan spec ~at_least:4 in
  let fails p = p.Compile.fspec.Fault.churn <> [] in
  let r = Shrink.shrink ~fails plan in
  checkb "verified" true r.Shrink.verified;
  checki "churn minimized to one event" 1
    (List.length r.Shrink.plan.Compile.fspec.Fault.churn);
  checki "crashes dropped" 0
    (List.length r.Shrink.plan.Compile.fspec.Fault.crashes);
  checkb "drop rate zeroed" true (r.Shrink.plan.Compile.fspec.Fault.drop = 0.);
  checkb "profile dropped" true
    (r.Shrink.plan.Compile.fspec.Fault.drop_profile = []);
  checkb "workload dropped" true (r.Shrink.plan.Compile.workload = None);
  checkb "weight decreased" true
    (Shrink.weight r.Shrink.plan < Shrink.weight plan);
  checkb "evals counted" true (r.Shrink.evals > 0)

let test_shrink_drops_restarts_and_reverifies () =
  (* When the failure only needs a crash, every restart is pure weight:
     the shrinker must demote crash-recovery to plain crash-stop, and
     the shrunk reproducer must still validate (no restart may survive
     the crash it belongs to) and round-trip as a plan file. *)
  let spec = Option.get (Spec.builtin "restart-storm") in
  let plan =
    let rec find s =
      if s > 19 then Alcotest.fail "no sample with >= 2 restarts in 0..19"
      else
        let p = Compile.compile spec ~sample:s in
        if List.length p.Compile.fspec.Fault.restarts >= 2 then p
        else find (s + 1)
    in
    find 0
  in
  let fails p = p.Compile.fspec.Fault.crashes <> [] in
  let r = Shrink.shrink ~fails plan in
  checkb "verified" true r.Shrink.verified;
  checki "restarts all dropped" 0
    (List.length r.Shrink.plan.Compile.fspec.Fault.restarts);
  checki "one crash left" 1
    (List.length r.Shrink.plan.Compile.fspec.Fault.crashes);
  (* The shrunk plan is still a valid, buildable fault plan... *)
  (match Compile.faults ~graph:(Compile.graph_of r.Shrink.plan) r.Shrink.plan with
  | exception Invalid_argument m -> Alcotest.failf "shrunk plan invalid: %s" m
  | f -> checkb "demoted to crash-stop" false (Fault.has_restarts f));
  (* ... and still a durable #plan v1 artifact. *)
  let text = Compile.to_string r.Shrink.plan in
  checkb "shrunk plan round-trips" true
    (Compile.parse ~file:"shrunk" text = r.Shrink.plan)

let test_shrink_keeps_needed_restart () =
  (* Dual of the test above: when the failure predicate *requires* a
     restart, the shrinker may trim the herd but must keep one, and the
     kept restart's crash entry must survive with it. *)
  let spec = Option.get (Spec.builtin "restart-storm") in
  let plan =
    let rec find s =
      if s > 19 then Alcotest.fail "no sample with >= 2 restarts in 0..19"
      else
        let p = Compile.compile spec ~sample:s in
        if List.length p.Compile.fspec.Fault.restarts >= 2 then p
        else find (s + 1)
    in
    find 0
  in
  let fails p = p.Compile.fspec.Fault.restarts <> [] in
  let r = Shrink.shrink ~fails plan in
  checkb "verified" true r.Shrink.verified;
  checki "exactly one restart kept" 1
    (List.length r.Shrink.plan.Compile.fspec.Fault.restarts);
  let v, _ = List.hd r.Shrink.plan.Compile.fspec.Fault.restarts in
  checkb "its crash entry kept too" true
    (List.mem_assoc v r.Shrink.plan.Compile.fspec.Fault.crashes);
  match Compile.faults ~graph:(Compile.graph_of r.Shrink.plan) r.Shrink.plan with
  | exception Invalid_argument m -> Alcotest.failf "shrunk plan invalid: %s" m
  | f -> checkb "still crash-recovery" true (Fault.has_restarts f)

let test_shrink_respects_eval_budget () =
  let plan = churny_plan (Option.get (Spec.builtin "mixed")) ~at_least:2 in
  let evals = ref 0 in
  let fails p =
    incr evals;
    p.Compile.fspec.Fault.churn <> []
  in
  let r = Shrink.shrink ~max_evals:5 ~fails plan in
  (* The cap bounds candidate evaluations; the final verification is
     deliberately one extra, uncapped call. *)
  checkb "stayed within budget" true (!evals <= 6);
  checkb "reported evals within budget" true (r.Shrink.evals <= 6);
  checkb "capped run still verifies" true r.Shrink.verified

(* ------------------------------------------------------------------ *)
(* Sweep (one sample end to end, kept tiny) *)

let test_sweep_single_sample_certifies () =
  let spec = { Spec.default with Spec.name = "clean"; n = 32; p = 0.2 } in
  let agg = Sweep.run spec ~samples:2 in
  checki "both samples survive" 0 (Sweep.failed agg);
  checki "all intact" 2 agg.Sweep.intact;
  checkb "stretch bound respected" true
    (agg.Sweep.worst_stretch <= agg.Sweep.stretch_bound)

let test_sweep_over_budget_fails_and_replays () =
  (* tight-budget is built to FAIL: every sample must come back
     over-budget, and re-running the reported plan must reproduce. *)
  let spec = Option.get (Spec.builtin "tight-budget") in
  let agg = Sweep.run spec ~samples:1 in
  checki "sample failed" 1 (Sweep.failed agg);
  match agg.Sweep.failures with
  | [ rep ] -> (
      match rep.Sweep.outcome with
      | Sweep.Failed (Sweep.Over_budget { rounds; budget }) ->
          checkb "rounds exceed budget" true (rounds > budget);
          let rep' = Sweep.run_plan rep.Sweep.plan in
          checkb "replay reproduces the failure class" true
            (match rep'.Sweep.outcome with
            | Sweep.Failed (Sweep.Over_budget _) -> true
            | _ -> false);
          (* Shrinking keeps the failure class and never grows the plan. *)
          let s = Sweep.shrink rep in
          checkb "shrunk plan verified" true s.Shrink.verified;
          checkb "shrunk plan no heavier" true
            (Shrink.weight s.Shrink.plan <= Shrink.weight rep.Sweep.plan);
          checkb "shrunk plan still over budget" true
            (match (Sweep.run_plan s.Shrink.plan).Sweep.outcome with
            | Sweep.Failed (Sweep.Over_budget _) -> true
            | _ -> false);
          let certified =
            Sweep.run_plan
              (Compile.compile
                 (Option.get (Spec.builtin "bursty-loss"))
                 ~sample:0)
          in
          checkb "a certified report is refused" true
            (match certified.Sweep.outcome with
            | Sweep.Certified _ -> (
                try
                  ignore (Sweep.shrink certified);
                  false
                with Invalid_argument _ -> true)
            | Sweep.Failed _ -> false)
      | o ->
          Alcotest.failf "expected over-budget, got %s"
            (match o with
            | Sweep.Certified _ -> "certified"
            | Sweep.Failed f -> Sweep.failure_tag f))
  | l -> Alcotest.failf "expected one failure report, got %d" (List.length l)

let suite =
  [
    ( "scenario.dsl",
      [
        Alcotest.test_case "text round trip" `Quick test_dsl_round_trip;
        Alcotest.test_case "parse errors" `Quick test_dsl_parse_errors;
        Alcotest.test_case "draws stay in support" `Quick test_dsl_draws_in_support;
        QCheck_alcotest.to_alcotest prop_geometric_tail_decay;
        QCheck_alcotest.to_alcotest prop_zipf_head_mass;
        QCheck_alcotest.to_alcotest prop_ge_profile_matches_stationary;
      ] );
    ( "scenario.spec",
      [
        Alcotest.test_case "builtins round trip" `Quick test_spec_round_trip_builtins;
        Alcotest.test_case "parse errors cite line" `Quick
          test_spec_parse_errors_cite_line;
        Alcotest.test_case "validate names field" `Quick test_spec_validate_names_field;
      ] );
    ( "scenario.compile",
      [
        QCheck_alcotest.to_alcotest prop_compile_deterministic;
        Alcotest.test_case "plan round trip" `Quick test_plan_round_trip;
        QCheck_alcotest.to_alcotest prop_restart_plan_round_trip;
        Alcotest.test_case "plan save/load" `Quick test_plan_save_load;
      ] );
    ( "scenario.shrink",
      [
        Alcotest.test_case "minimizes structurally" `Quick
          test_shrink_minimizes_structurally;
        Alcotest.test_case "drops restarts and re-verifies" `Quick
          test_shrink_drops_restarts_and_reverifies;
        Alcotest.test_case "keeps a needed restart" `Quick
          test_shrink_keeps_needed_restart;
        Alcotest.test_case "respects eval budget" `Quick
          test_shrink_respects_eval_budget;
      ] );
    ( "scenario.sweep",
      [
        Alcotest.test_case "clean family certifies" `Quick
          test_sweep_single_sample_certifies;
        Alcotest.test_case "tight budget fails and replays" `Quick
          test_sweep_over_budget_fails_and_replays;
      ] );
  ]
