(* Tests for the machine-cost profiler: region nesting and self/total
   attribution, phase rows joining the metrics phase table, JSONL
   persistence (roundtrip + structured parse errors), and — the design
   rule everything else leans on — that profiling a run does not change
   its output. *)

module P = Obs.Prof
module M = Obs.Metrics
module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Force some allocation the GC must count. *)
let churn k =
  let acc = ref [] in
  for i = 0 to k - 1 do
    acc := string_of_int i :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* ------------------------------------------------------------------ *)
(* Region nesting and attribution *)

let test_disabled_sink () =
  let t = P.disabled in
  checkb "disabled" false (P.enabled t);
  P.enter t "x";
  P.leave t;
  P.phase t "p";
  P.round_mark t ~round:1;
  checki "no rows" 0 (List.length (P.rows t));
  checki "no rounds" 0 (List.length (P.round_samples t));
  checki "region passes value through" 7 (P.region t "x" (fun () -> 7))

let test_region_nesting () =
  let t = P.create () in
  P.region t "outer" (fun () ->
      churn 50;
      P.region t "inner" (fun () -> churn 2000);
      churn 50);
  P.region t "outer" (fun () -> churn 10);
  let rows = P.rows t in
  checki "two rows" 2 (List.length rows);
  let outer = List.nth rows 0 and inner = List.nth rows 1 in
  checks "creation order first" "outer" outer.P.name;
  checks "creation order second" "inner" inner.P.name;
  checki "outer entered twice" 2 outer.P.count;
  checki "inner entered once" 1 inner.P.count;
  (* Total is inclusive, self excludes the nested region — exactly. *)
  checkb "inner allocated" true (inner.P.minor_words > 0);
  checki "outer self = total - inner total"
    (outer.P.minor_words - inner.P.minor_words)
    outer.P.self_minor_words;
  checkb "outer self wall <= total" true (outer.P.self_ns <= outer.P.wall_ns);
  checks "inner self = total (no children)"
    (string_of_int inner.P.minor_words)
    (string_of_int inner.P.self_minor_words)

let test_region_exception_safe () =
  let t = P.create () in
  (try P.region t "boom" (fun () -> failwith "x") with Failure _ -> ());
  (* The frame was popped: a sibling region must not become a child. *)
  P.region t "after" (fun () -> churn 100);
  let rows = P.rows t in
  checki "both rows" 2 (List.length rows);
  let boom = List.nth rows 0 in
  checki "boom still counted" 1 boom.P.count

let test_leave_on_empty_stack () =
  let t = P.create () in
  P.leave t;  (* ignored, not an error *)
  checki "no rows" 0 (List.length (P.rows t))

let test_phase_rows () =
  let t = P.create () in
  churn 500;
  P.phase t "alpha";
  churn 3000;
  P.phase t "beta";
  P.phase t "alpha";
  let rows = List.filter (fun r -> r.P.kind = P.Phase) (P.rows t) in
  checki "two phase rows" 2 (List.length rows);
  let alpha = List.nth rows 0 and beta = List.nth rows 1 in
  checks "first phase" "alpha" alpha.P.name;
  checki "alpha marked twice" 2 alpha.P.count;
  checkb "alpha allocated" true (alpha.P.minor_words > 0);
  checkb "beta allocated" true (beta.P.minor_words > 0);
  (* Phases attribute deltas: self = total by construction. *)
  checki "phase self = total" alpha.P.minor_words alpha.P.self_minor_words;
  checki "beta self = total" beta.P.minor_words beta.P.self_minor_words

let test_round_samples () =
  let t = P.create () in
  P.round_mark t ~round:1;
  churn 2000;
  P.round_mark t ~round:2;
  let samples = P.round_samples t in
  checki "two samples" 2 (List.length samples);
  let s1 = List.nth samples 0 and s2 = List.nth samples 1 in
  checki "rounds recorded" 1 s1.P.round;
  checki "rounds recorded" 2 s2.P.round;
  checkb "round 2 saw the churn" true (s2.P.r_minor_words > 0);
  checkb "heap sampled" true (s2.P.heap_words > 0)

(* ------------------------------------------------------------------ *)
(* Persistence *)

let test_save_load_roundtrip () =
  let t = P.create () in
  P.region t "r1" (fun () -> churn 1000);
  P.region t "r1" (fun () -> P.region t "r2" (fun () -> churn 10));
  P.phase t "p1";
  P.round_mark t ~round:3;
  let file = tmp "prof_roundtrip.jsonl" in
  P.save ~extra:[ {|{"kind":"prof_meta","algo":"test"}|} ] t file;
  let rows, rounds = P.load file in
  Sys.remove file;
  checkb "rows roundtrip" true (rows = P.rows t);
  checkb "rounds roundtrip" true (rounds = P.round_samples t)

let test_iter_file_skips_foreign_kinds () =
  let file = tmp "prof_foreign.jsonl" in
  let oc = open_out file in
  output_string oc "{\"kind\":\"prof_meta\",\"algo\":\"x\"}\n";
  output_string oc "\n";
  output_string oc
    "{\"kind\":\"prof\",\"rk\":\"region\",\"name\":\"a\",\"count\":1,\"wall_ns\":2,\"self_ns\":2,\"minor\":3,\"self_minor\":3,\"major\":0,\"self_major\":0,\"minors\":0,\"majors\":0}\r\n";
  output_string oc "{\"kind\":\"prof_round\",\"round\":1,\"heap\":9,\"minor\":4,\"minors\":0}\n";
  close_out oc;
  let rows, rounds = P.load file in
  Sys.remove file;
  checki "one row" 1 (List.length rows);
  checki "one round" 1 (List.length rounds);
  let r = List.hd rows in
  checks "name" "a" r.P.name;
  checki "minor" 3 r.P.minor_words;
  checki "round heap" 9 (List.hd rounds).P.heap_words

let expect_parse_error ~line content k =
  let file = tmp "prof_bad.jsonl" in
  let oc = open_out file in
  output_string oc content;
  close_out oc;
  (match P.load file with
  | exception Obs.Jsonl.Parse_error e ->
      checks "file named" file e.file;
      checki (k ^ ": line") line e.line
  | _ -> Alcotest.fail (k ^ ": expected Parse_error"));
  Sys.remove file

let test_parse_errors () =
  (* Truncated row: a prof line missing fields. *)
  expect_parse_error ~line:2
    "{\"kind\":\"prof_meta\"}\n{\"kind\":\"prof\",\"rk\":\"region\",\"name\":\"a\",\"count\":1}\n"
    "truncated";
  (* Garbage that still parses a "kind". *)
  expect_parse_error ~line:1 "{\"kind\":\"prof\",\"rk\":\"banana\"}\n"
    "unknown row kind";
  (* No kind at all. *)
  expect_parse_error ~line:1 "not json at all\n" "garbage";
  (* Truncated round sample. *)
  expect_parse_error ~line:1 "{\"kind\":\"prof_round\",\"round\":3}\n"
    "truncated round"

(* ------------------------------------------------------------------ *)
(* Joining the metrics phase table *)

let build_once ?tracer ~prof ~metrics ~n ~seed ~drop () =
  let rng = Util.Prng.create ~seed in
  let g = Graphlib.Gen.connected_gnp rng ~n ~p:(6. /. float_of_int n) in
  let faults =
    if drop = 0. then Distnet.Fault.none
    else
      Distnet.Fault.make ~seed:(seed + 31)
        { Distnet.Fault.default_spec with Distnet.Fault.drop }
  in
  P.set_current prof;
  let r = Spanner.Skeleton_dist.build ~faults ?tracer ~metrics ~seed g in
  P.set_current P.disabled;
  let edges = ref [] in
  Edge_set.iter r.Spanner.Skeleton_dist.spanner (fun e ->
      edges := e :: !edges);
  (List.rev !edges, r.Spanner.Skeleton_dist.stats)

let test_phase_rows_join_metrics_table () =
  let prof = P.create () and reg = M.create () in
  ignore (build_once ~prof ~metrics:reg ~n:40 ~seed:9 ~drop:0.2 ());
  let metric_phases =
    List.map
      (fun (r : Obs.Report.phase_row) -> r.Obs.Report.phase)
      (Obs.Report.phase_rows (M.snapshot reg))
  in
  let prof_phases =
    List.filter_map
      (fun (r : P.row) -> if r.P.kind = P.Phase then Some r.P.name else None)
      (P.rows prof)
  in
  (* Same boundaries, same names, same first-appearance order: the
     profile's phase rows join the metrics table one to one. *)
  check (Alcotest.list Alcotest.string) "same phases in same order"
    metric_phases prof_phases

let test_round_samples_match_stats () =
  let prof = P.create () in
  let _, (stats : Distnet.Sim.stats) =
    build_once ~prof ~metrics:M.disabled ~n:30 ~seed:4 ~drop:0. ()
  in
  (* One sample per engine round, tagged 1..rounds. *)
  let samples = P.round_samples prof in
  checki "one sample per round" stats.Distnet.Sim.rounds (List.length samples);
  checki "last round tag" stats.Distnet.Sim.rounds
    (List.fold_left (fun acc s -> Stdlib.max acc s.P.round) 0 samples)

(* ------------------------------------------------------------------ *)
(* Transparency: profiling must not change the run *)

let prop_prof_transparent =
  QCheck.Test.make ~count:10 ~name:"profiler on/off: identical run"
    QCheck.(pair (int_range 12 40) (int_range 0 1))
    (fun (n, drop_flag) ->
      let seed = 23 + n and drop = if drop_flag = 1 then 0.2 else 0. in
      let reg_off = M.create () and reg_on = M.create () in
      let tr_off = Distnet.Trace.create () and tr_on = Distnet.Trace.create () in
      let off =
        build_once ~tracer:tr_off ~prof:P.disabled ~metrics:reg_off ~n ~seed
          ~drop ()
      in
      let on =
        build_once ~tracer:tr_on ~prof:(P.create ()) ~metrics:reg_on ~n ~seed
          ~drop ()
      in
      (* Identical spanner, stats, metrics rows, and trace events: the
         profiler observed the run without perturbing it. *)
      off = on
      && M.snapshot reg_off = M.snapshot reg_on
      && Distnet.Trace.events tr_off = Distnet.Trace.events tr_on)

let suite =
  [
    ( "prof",
      [
        Alcotest.test_case "disabled sink is free" `Quick test_disabled_sink;
        Alcotest.test_case "region nesting self/total" `Quick
          test_region_nesting;
        Alcotest.test_case "region exception safety" `Quick
          test_region_exception_safe;
        Alcotest.test_case "leave on empty stack" `Quick
          test_leave_on_empty_stack;
        Alcotest.test_case "phase rows" `Quick test_phase_rows;
        Alcotest.test_case "round samples" `Quick test_round_samples;
        Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "iter_file skips foreign kinds" `Quick
          test_iter_file_skips_foreign_kinds;
        Alcotest.test_case "parse errors name file and line" `Quick
          test_parse_errors;
        Alcotest.test_case "phase rows join metrics table" `Quick
          test_phase_rows_join_metrics_table;
        Alcotest.test_case "round samples match stats" `Quick
          test_round_samples_match_stats;
        QCheck_alcotest.to_alcotest prop_prof_transparent;
      ] );
  ]
