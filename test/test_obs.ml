(* Tests for the observability layer: metrics registry semantics,
   the per-phase report, and — the property the whole design
   hangs on — that instrumenting a run does not change it. *)

module M = Obs.Metrics
module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_counter_basic () =
  let r = M.create () in
  let c = M.counter r "sends" in
  M.incr c;
  M.add c 4;
  checki "value" 5 (M.counter_value c);
  (* find-or-create: same (name, labels) is the same cell *)
  M.incr (M.counter r "sends");
  checki "shared cell" 6 (M.counter_value c)

let test_label_canonicalization () =
  let r = M.create () in
  (* key order does not matter *)
  let a = M.counter r ~labels:[ ("b", "2"); ("a", "1") ] "x" in
  let b = M.counter r ~labels:[ ("a", "1"); ("b", "2") ] "x" in
  M.incr a;
  M.incr b;
  checki "same series" 2 (M.counter_value a);
  (* a duplicate key keeps the last binding *)
  let c = M.counter r ~labels:[ ("k", "old"); ("k", "new") ] "y" in
  let d = M.counter r ~labels:[ ("k", "new") ] "y" in
  M.incr c;
  checki "dup key keeps last" 1 (M.counter_value d);
  (* different label values are distinct series *)
  let e = M.counter r ~labels:[ ("a", "1") ] "x" in
  checki "distinct series" 0 (M.counter_value e)

let test_kind_mismatch () =
  let r = M.create () in
  ignore (M.counter r "thing");
  match M.gauge r "thing" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"

let test_gauge_set_max () =
  let r = M.create () in
  let g = M.gauge r "peak" in
  M.set g 5;
  M.set_max g 3;
  checki "max keeps 5" 5 (M.gauge_value g);
  M.set_max g 9;
  checki "max takes 9" 9 (M.gauge_value g);
  M.set g 1;
  checki "set overwrites" 1 (M.gauge_value g)

let test_histogram_bucketing () =
  (* bucket 0: v <= 1 (incl. non-positive); bucket i: 2^(i-1) < v <= 2^i *)
  checki "0 -> b0" 0 (M.bucket_index 0);
  checki "1 -> b0" 0 (M.bucket_index 1);
  checki "2 -> b1" 1 (M.bucket_index 2);
  checki "3 -> b2" 2 (M.bucket_index 3);
  checki "4 -> b2" 2 (M.bucket_index 4);
  checki "5 -> b3" 3 (M.bucket_index 5);
  checki "1024 -> b10" 10 (M.bucket_index 1024);
  checki "1025 -> b11" 11 (M.bucket_index 1025);
  checki "max_int -> last" (M.num_buckets - 1) (M.bucket_index max_int);
  checki "upper of b0" 1 (M.bucket_upper 0);
  checki "upper of b3" 8 (M.bucket_upper 3);
  checki "last unbounded" max_int (M.bucket_upper (M.num_buckets - 1))

let test_histogram_snapshot () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  List.iter (M.observe h) [ 3; 1; 4; 1; 5 ];
  match M.snapshot r with
  | [ { M.value = M.Histogram s; _ } ] ->
      checki "count" 5 s.M.count;
      checki "sum" 14 s.M.sum;
      checki "min" 1 s.M.hmin;
      checki "max" 5 s.M.hmax;
      checki "b0 holds the two 1s" 2 s.M.buckets.(0);
      checki "b2 holds 3 and 4" 2 s.M.buckets.(2);
      checki "b3 holds 5" 1 s.M.buckets.(3);
      check (Alcotest.array (Alcotest.float 0.)) "samples sorted"
        [| 1.; 1.; 3.; 4.; 5. |] s.M.samples
  | _ -> Alcotest.fail "expected one histogram sample"

let test_noop_sink () =
  let d = M.disabled in
  checkb "disabled" false (M.enabled d);
  checkb "created enabled" true (M.enabled (M.create ()));
  let c = M.counter d "x" and g = M.gauge d "y" and h = M.histogram d "z" in
  M.incr c;
  M.add c 10;
  M.set g 3;
  M.set_max g 99;
  M.observe h 7;
  checki "counter stays 0" 0 (M.counter_value c);
  checki "gauge stays 0" 0 (M.gauge_value g);
  checki "snapshot empty" 0 (List.length (M.snapshot d))

let test_snapshot_order_and_find () =
  let r = M.create () in
  ignore (M.counter r "b");
  ignore (M.counter r ~labels:[ ("p", "1") ] "a");
  ignore (M.counter r "c");
  let names = List.map (fun (s : M.sample) -> s.M.name) (M.snapshot r) in
  check (Alcotest.list Alcotest.string) "creation order" [ "b"; "a"; "c" ]
    names;
  (match M.find (M.snapshot r) ~labels:[ ("p", "1") ] "a" with
  | Some _ -> ()
  | None -> Alcotest.fail "find with labels");
  (* no ?labels matches any label set; an explicit set must match *)
  checkb "find without labels matches" true
    (M.find (M.snapshot r) "a" <> None);
  checkb "find misses wrong labels" true
    (M.find (M.snapshot r) ~labels:[ ("p", "2") ] "a" = None)

let test_save_load_roundtrip () =
  let r = M.create () in
  M.add (M.counter r ~labels:[ ("phase", "wave") ] "phase_rounds") 17;
  M.set (M.gauge r "peak") 9;
  let h = M.histogram r "lat" in
  List.iter (M.observe h) [ 1; 2; 300 ];
  let file = Filename.temp_file "obs" ".jsonl" in
  M.save ~extra:[ {|{"kind":"meta","n":48}|} ] r file;
  let loaded = M.load file in
  Sys.remove file;
  checki "meta line skipped, 3 samples" 3 (List.length loaded);
  (match M.find loaded ~labels:[ ("phase", "wave") ] "phase_rounds" with
  | Some { M.value = M.Counter 17; _ } -> ()
  | _ -> Alcotest.fail "counter roundtrip");
  match M.find loaded "lat" with
  | Some { M.value = M.Histogram s; _ } ->
      checki "count" 3 s.M.count;
      checki "sum" 303 s.M.sum;
      checki "max" 300 s.M.hmax;
      (* raw samples are not serialized *)
      checki "no raw samples" 0 (Array.length s.M.samples)
  | _ -> Alcotest.fail "histogram roundtrip"

(* ------------------------------------------------------------------ *)
(* Report *)

let test_phase_table_totals () =
  let r = M.create () in
  List.iter
    (fun (name, rounds, msgs, words, maxw) ->
      let labels = [ ("phase", name) ] in
      M.add (M.counter r ~labels "phase_rounds") rounds;
      M.add (M.counter r ~labels "phase_messages") msgs;
      M.add (M.counter r ~labels "phase_words") words;
      M.set_max (M.gauge r ~labels "phase_max_message_words") maxw)
    [ ("exchange", 10, 100, 250, 3); ("wave", 5, 40, 41, 2) ];
  let rows = Obs.Report.phase_rows (M.snapshot r) in
  checki "two rows" 2 (List.length rows);
  checks "first-appearance order" "exchange"
    (List.hd rows).Obs.Report.phase;
  let t = Obs.Report.totals rows in
  checki "rounds sum" 15 t.Obs.Report.rounds;
  checki "messages sum" 140 t.Obs.Report.messages;
  checki "words sum" 291 t.Obs.Report.words;
  checki "max of max" 3 t.Obs.Report.max_words

let test_hist_percentile_from_buckets () =
  (* A snapshot parsed back from disk has buckets only: the percentile
     falls back to nearest-rank over buckets, reported as upper bound. *)
  let r = M.create () in
  let h = M.histogram r "lat" in
  for _ = 1 to 9 do M.observe h 1 done;
  M.observe h 100;
  let file = Filename.temp_file "obs" ".jsonl" in
  M.save r file;
  let loaded = M.load file in
  Sys.remove file;
  match M.find loaded "lat" with
  | Some { M.value = M.Histogram s; _ } ->
      check (Alcotest.float 1e-9) "p50 from buckets" 1.
        (Obs.Report.hist_percentile s 0.5);
      check (Alcotest.float 1e-9) "p99 hits last occupied bucket" 128.
        (Obs.Report.hist_percentile s 0.99)
  | _ -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* The transparency property: metrics must not change the run. *)

let build_once ~metrics ~n ~seed ~drop =
  let rng = Util.Prng.create ~seed in
  let g = Graphlib.Gen.connected_gnp rng ~n ~p:(6. /. float_of_int n) in
  let faults =
    if drop = 0. then Distnet.Fault.none
    else
      Distnet.Fault.make ~seed:(seed + 31)
        { Distnet.Fault.default_spec with Distnet.Fault.drop }
  in
  let r = Spanner.Skeleton_dist.build ~faults ~metrics ~seed g in
  let edges = ref [] in
  Edge_set.iter r.Spanner.Skeleton_dist.spanner (fun e ->
      edges := e :: !edges);
  (List.rev !edges, r.Spanner.Skeleton_dist.stats)

let prop_metrics_transparent =
  QCheck.Test.make ~count:12 ~name:"metrics on/off: identical run"
    QCheck.(pair (int_range 12 40) (int_range 0 1))
    (fun (n, drop_flag) ->
      let seed = 11 + n and drop = if drop_flag = 1 then 0.2 else 0. in
      let off = build_once ~metrics:M.disabled ~n ~seed ~drop in
      let on = build_once ~metrics:(M.create ()) ~n ~seed ~drop in
      off = on)

let test_phase_totals_equal_stats () =
  (* The table's totals row is exact, not approximate: it must equal
     the run's own stats on every axis. *)
  List.iter
    (fun drop ->
      let reg = M.create () in
      let _, (stats : Distnet.Sim.stats) =
        build_once ~metrics:reg ~n:32 ~seed:5 ~drop
      in
      let t = Obs.Report.totals (Obs.Report.phase_rows (M.snapshot reg)) in
      checki "rounds" stats.Distnet.Sim.rounds t.Obs.Report.rounds;
      checki "messages" stats.Distnet.Sim.messages t.Obs.Report.messages;
      checki "words" stats.Distnet.Sim.words t.Obs.Report.words;
      checki "max words" stats.Distnet.Sim.max_message_words
        t.Obs.Report.max_words)
    [ 0.; 0.25 ]

(* ------------------------------------------------------------------ *)
(* Audit *)

let test_audit_pass_and_warn () =
  let plan = Spanner.Plan.make ~n:72 ~d:4 ~eps:0.5 () in
  let stats =
    { Distnet.Sim.rounds = 100; messages = 0; words = 0; max_message_words = 3 }
  in
  let rep =
    Spanner.Audit.run ~spanner_edges:90 ~phase_rounds:[ ("wave", 40) ] ~plan
      ~stats ()
  in
  checkb "all pass" true (Spanner.Audit.ok rep);
  checki "rounds, words, size + 1 phase" 4 (List.length rep.Spanner.Audit.bounds);
  let bad =
    Spanner.Audit.run ~plan
      ~stats:{ stats with Distnet.Sim.max_message_words = 1000 }
      ()
  in
  checkb "oversize message warns" false (Spanner.Audit.ok bad)

let suite =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basic;
        Alcotest.test_case "label canonicalization" `Quick
          test_label_canonicalization;
        Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
        Alcotest.test_case "gauge set_max" `Quick test_gauge_set_max;
        Alcotest.test_case "histogram bucketing" `Quick
          test_histogram_bucketing;
        Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
        Alcotest.test_case "no-op sink" `Quick test_noop_sink;
        Alcotest.test_case "snapshot order + find" `Quick
          test_snapshot_order_and_find;
        Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip;
      ] );
    ( "obs.report",
      [
        Alcotest.test_case "phase table totals" `Quick test_phase_table_totals;
        Alcotest.test_case "percentile from buckets" `Quick
          test_hist_percentile_from_buckets;
      ] );
    ( "obs.transparency",
      [
        QCheck_alcotest.to_alcotest prop_metrics_transparent;
        Alcotest.test_case "phase totals equal stats" `Quick
          test_phase_totals_equal_stats;
      ] );
    ( "obs.audit",
      [ Alcotest.test_case "pass and warn" `Quick test_audit_pass_and_warn ] );
  ]
