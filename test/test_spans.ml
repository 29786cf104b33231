(* Tests for the causal-tracing layer: span registry semantics, the
   critical-path extraction, the Perfetto export — and the property the
   acceptance hangs on: on a loss-free skeleton run the critical path's
   length in rounds equals the run's own stats. *)

module S = Obs.Span
module C = Obs.Causal
module Edge_set = Graphlib.Edge_set

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_disabled_noop () =
  let t = S.disabled in
  checkb "disabled" false (S.enabled t);
  checki "message returns -1" (-1) (S.message t ~round:0 ~src:0 ~dst:1 ~words:2);
  (* every operation on the no-op sink (or a -1 id) returns silently *)
  S.deliver t ~round:1 (-1);
  S.drop t ~round:1 ~reason:"loss" (-1);
  checki "open_span returns -1" (-1)
    (S.open_span t S.Phase ~name:"x" ~round:0);
  S.close t ~round:1 (-1);
  checki "span returns -1" (-1)
    (S.span t S.Phase ~name:"x" ~start_round:0 ~stop_round:1);
  checki "count 0" 0 (S.count t);
  checkb "records empty" true (S.records t = [])

let test_message_lifecycle_lamport () =
  let t = S.create () in
  checkb "enabled" true (S.enabled t);
  (* 0 -> 1 -> 0: the Lamport chain must thread through both nodes *)
  let m1 = S.message t ~round:0 ~src:0 ~dst:1 ~words:2 in
  S.deliver t ~round:1 m1;
  let m2 = S.message t ~round:1 ~src:1 ~dst:0 ~words:1 in
  S.deliver t ~round:2 m2;
  match S.records t with
  | [ r1; r2 ] ->
      checki "ids dense" 0 r1.S.id;
      checki "ids dense" 1 r2.S.id;
      checkb "delivered" true (r1.S.status = S.Delivered);
      checki "m1 send round" 0 r1.S.start_round;
      checki "m1 deliver round" 1 r1.S.stop_round;
      checki "m1 ls" 1 r1.S.ls;
      checki "m1 ld = max(0, ls)+1" 2 r1.S.ld;
      (* node 1's clock is now 2, so its next send ticks to 3 *)
      checki "m2 ls" 3 r2.S.ls;
      checki "m2 ld = max(L0=2, 3)+1" 4 r2.S.ld
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let test_drop_and_duplicate () =
  let t = S.create () in
  let m1 = S.message t ~round:0 ~src:0 ~dst:1 ~words:1 in
  S.drop t ~round:2 ~reason:"loss" m1;
  let m2 = S.message t ~round:0 ~src:0 ~dst:2 ~words:1 in
  S.deliver t ~round:1 m2;
  (* first delivery wins: later duplicates and drops are ignored *)
  S.deliver t ~round:5 m2;
  S.drop t ~round:6 ~reason:"loss" m2;
  match S.records t with
  | [ r1; r2 ] ->
      checkb "dropped with reason" true (r1.S.status = S.Dropped "loss");
      checki "drop round recorded" 2 r1.S.stop_round;
      checkb "still delivered" true (r2.S.status = S.Delivered);
      checki "first delivery round kept" 1 r2.S.stop_round
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l)

let test_structural_spans () =
  let t = S.create () in
  let call = S.open_span t S.Call ~name:"call-0" ~round:0 in
  let ph = S.span t ~parent:call S.Phase ~name:"exchange" ~start_round:0
      ~stop_round:3 in
  let cl = S.span t ~parent:call ~src:7 S.Cluster ~name:"cluster-7"
      ~start_round:0 ~stop_round:5 in
  S.close t ~round:6 call;
  ignore ph;
  ignore cl;
  match S.records t with
  | [ c; p; k ] ->
      checks "call name" "call-0" c.S.name;
      checki "call closed at 6" 6 c.S.stop_round;
      checkb "closed" true (c.S.status = S.Delivered);
      checki "phase parent" c.S.id p.S.parent;
      checks "phase name" "exchange" p.S.name;
      checki "phase stop" 3 p.S.stop_round;
      checki "cluster src" 7 k.S.src;
      checki "no clock on structural spans" 0 p.S.ls
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l)

let test_save_load_roundtrip () =
  let t = S.create () in
  let m1 = S.message t ~round:0 ~src:0 ~dst:1 ~words:2 in
  S.deliver t ~round:1 m1;
  let m2 = S.message t ~round:1 ~src:1 ~dst:2 ~words:1 in
  S.drop t ~round:3 ~reason:"dst-crashed" m2;
  let m3 = S.message t ~round:2 ~src:2 ~dst:0 ~words:1 in
  ignore m3 (* left open *);
  let call = S.open_span t S.Call ~name:"call-0" ~round:0 in
  ignore (S.span t ~parent:call S.Phase ~name:"exchange" ~start_round:0
      ~stop_round:2);
  S.close t ~round:4 call;
  let file = Filename.temp_file "spans" ".jsonl" in
  S.save ~extra:[ {|{"kind":"span_meta","n":3}|} ] t file;
  let loaded = S.load file in
  Sys.remove file;
  checki "meta line skipped" (S.count t) (List.length loaded);
  (* the round-trip is exact: same JSON line for every span *)
  List.iter2
    (fun a b -> checks "same json" (S.to_json a) (S.to_json b))
    (S.records t) loaded

let test_malformed_file () =
  let file = Filename.temp_file "spans" ".jsonl" in
  let oc = open_out file in
  output_string oc {|{"kind":"span_meta","n":3}|};
  output_string oc "\n";
  output_string oc
    {|{"kind":"span","id":0,"sk":"message","src":0,"dst":1,"words":1,"start":0,"stop":1,"ls":1,"ld":2,"status":"delivered"}|};
  output_string oc "\n";
  output_string oc {|{"kind":"span","id":1,"sk":"mess|};
  output_string oc "\n";
  close_out oc;
  (match S.load file with
  | exception Obs.Jsonl.Parse_error e ->
      (* the error names the exact spot: file and 1-based line *)
      checks "names the file" file e.file;
      checki "names line 3" 3 e.line
  | _ -> Alcotest.fail "expected Parse_error on truncated span line");
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Critical-path extraction *)

(* Crafted DAGs: drive a real sink with hand-picked rounds. *)
let msg t ~s ~d ~send ~dlvr =
  let id = S.message t ~round:send ~src:s ~dst:d ~words:1 in
  S.deliver t ~round:dlvr id;
  id

let test_causal_empty () =
  let a = C.analyze [] in
  checkb "no chains" true (a.C.chains = []);
  checki "no retransmits" 0 a.C.path_retransmits;
  (* a log with only dropped messages has no causal terminal either *)
  let t = S.create () in
  let m = S.message t ~round:0 ~src:0 ~dst:1 ~words:1 in
  S.drop t ~round:1 ~reason:"loss" m;
  checkb "dropped-only log: no chains" true ((C.analyze (S.records t)).C.chains = [])

let test_causal_single_chain () =
  let t = S.create () in
  ignore (msg t ~s:0 ~d:1 ~send:0 ~dlvr:1);
  ignore (msg t ~s:1 ~d:2 ~send:1 ~dlvr:2);
  ignore (msg t ~s:2 ~d:3 ~send:2 ~dlvr:3);
  match (C.analyze ~k:1 (S.records t)).C.chains with
  | [ c ] ->
      checki "length" 3 c.C.length_rounds;
      checki "start" 0 c.C.start_round;
      checki "end" 3 c.C.end_round;
      checki "hops" 3 (List.length c.C.segments);
      List.iter (fun s -> checki "no slack" 0 s.C.slack) c.C.segments
  | l -> Alcotest.failf "expected 1 chain, got %d" (List.length l)

let test_causal_diamond () =
  (* 0 fans out to 1 and 2; 3 hears from both but only acts after the
     slow arm; the path must follow the late delivery through 2. *)
  let t = S.create () in
  ignore (msg t ~s:0 ~d:1 ~send:0 ~dlvr:1);
  ignore (msg t ~s:0 ~d:2 ~send:0 ~dlvr:1);
  ignore (msg t ~s:1 ~d:3 ~send:1 ~dlvr:2);
  ignore (msg t ~s:2 ~d:3 ~send:1 ~dlvr:4) (* delayed arm *);
  ignore (msg t ~s:3 ~d:4 ~send:4 ~dlvr:5);
  match (C.analyze (S.records t)).C.chains with
  | c :: _ ->
      checki "length covers the slow arm" 5 c.C.length_rounds;
      let links =
        List.map (fun s -> (s.C.src, s.C.dst)) c.C.segments
      in
      checkb "path goes through node 2" true
        (links = [ (0, 2); (2, 3); (3, 4) ])
  | [] -> Alcotest.fail "expected a chain"

let test_causal_slack_and_phases () =
  let t = S.create () in
  ignore (S.span t S.Phase ~name:"a" ~start_round:0 ~stop_round:3);
  ignore (S.span t S.Phase ~name:"b" ~start_round:3 ~stop_round:6);
  ignore (msg t ~s:0 ~d:1 ~send:0 ~dlvr:1);
  ignore (msg t ~s:1 ~d:2 ~send:5 ~dlvr:6) (* waited 4 rounds at node 1 *);
  let a = C.analyze ~k:1 (S.records t) in
  match a.C.chains with
  | [ c ] ->
      checki "length" 6 c.C.length_rounds;
      (match c.C.segments with
      | [ h1; h2 ] ->
          checki "hop 1 slack" 0 h1.C.slack;
          checks "hop 1 phase (deliver in a)" "a" h1.C.phase;
          checki "hop 2 slack" 4 h2.C.slack;
          checks "hop 2 phase (deliver in b)" "b" h2.C.phase
      | l -> Alcotest.failf "expected 2 hops, got %d" (List.length l));
      (* the table splits hop 2's interval across the a/b boundary, so
         each phase is charged at most its own duration and the rows
         sum exactly to the chain length *)
      let total =
        List.fold_left (fun acc r -> acc + r.C.ps_rounds) 0 a.C.phase_slack
      in
      checki "per-phase rounds sum to length" 6 total;
      List.iter
        (fun r ->
          checkb "per-phase rounds bounded by duration" true
            (r.C.ps_rounds <= 3))
        a.C.phase_slack
  | l -> Alcotest.failf "expected 1 chain, got %d" (List.length l)

let test_causal_topk_deterministic () =
  (* two terminals at the same round: the smaller span id ranks first *)
  let t = S.create () in
  ignore (msg t ~s:0 ~d:1 ~send:0 ~dlvr:1);
  ignore (msg t ~s:1 ~d:2 ~send:1 ~dlvr:2);
  ignore (msg t ~s:1 ~d:3 ~send:1 ~dlvr:2);
  match (C.analyze ~k:2 (S.records t)).C.chains with
  | [ c1; c2 ] ->
      let terminal c = (List.nth c.C.segments (List.length c.C.segments - 1)).C.span_id in
      checkb "tie broken by span id" true (terminal c1 < terminal c2)
  | l -> Alcotest.failf "expected 2 chains, got %d" (List.length l)

let test_perfetto_export () =
  let t = S.create () in
  ignore (msg t ~s:0 ~d:1 ~send:0 ~dlvr:1);
  ignore (S.span t S.Phase ~name:"exchange" ~start_round:0 ~stop_round:1);
  let file = Filename.temp_file "perfetto" ".json" in
  let n = Obs.Perfetto.export (S.records t) file in
  let ic = open_in file in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  checkb "span + phase + metadata events" true (n >= 3);
  checkb "chrome trace envelope" true
    (String.length content > 16
    && String.sub content 0 16 = {|{"traceEvents":[|});
  (* structurally balanced: every event line is an object in the array *)
  let count c = String.fold_left (fun k ch -> if ch = c then k + 1 else k) 0 content in
  checki "balanced braces" (count '{') (count '}');
  checki "balanced brackets" (count '[') (count ']')

(* ------------------------------------------------------------------ *)
(* The acceptance property: loss-free critical path = stats.rounds,
   with phase labels consistent with the metrics phase table. *)

let build_traced ~n ~seed =
  let rng = Util.Prng.create ~seed in
  let g = Graphlib.Gen.connected_gnp rng ~n ~p:(6. /. float_of_int n) in
  let metrics = Obs.Metrics.create () in
  let spans = S.create () in
  let r = Spanner.Skeleton_dist.build ~metrics ~spans ~seed g in
  (r, metrics, spans)

let prop_critical_path_equals_rounds =
  QCheck.Test.make ~name:"causal: loss-free critical path = stats.rounds"
    ~count:15
    QCheck.(int_range 16 96)
    (fun n ->
      let seed = 23 + n in
      let r, metrics, spans = build_traced ~n ~seed in
      let stats = r.Spanner.Skeleton_dist.stats in
      let a = C.analyze (S.records spans) in
      match a.C.chains with
      | [] -> false
      | c :: _ ->
          let rows = Obs.Report.phase_rows (Obs.Metrics.snapshot metrics) in
          let row name =
            List.find_opt (fun (p : Obs.Report.phase_row) -> p.Obs.Report.phase = name) rows
          in
          (* 1. the headline equality *)
          c.C.length_rounds = stats.Distnet.Sim.rounds
          (* 2. every phase on the path is a phase the metrics table knows *)
          && List.for_all
               (fun s -> s.C.phase = "" || row s.C.phase <> None)
               c.C.segments
          (* 3. per-phase path rounds never exceed that phase's total,
                and sum exactly to the chain length *)
          && List.for_all
               (fun ps ->
                 match row ps.C.ps_phase with
                 | Some p -> ps.C.ps_rounds <= p.Obs.Report.rounds
                 | None -> ps.C.ps_phase = "")
               a.C.phase_slack
          && List.fold_left (fun acc ps -> acc + ps.C.ps_rounds) 0
               a.C.phase_slack
             = c.C.length_rounds)

let prop_spans_transparent =
  QCheck.Test.make ~name:"causal: recording spans never changes the run"
    ~count:10
    QCheck.(int_range 16 80)
    (fun n ->
      let seed = 7 + n in
      let build spans =
        let rng = Util.Prng.create ~seed in
        let g = Graphlib.Gen.connected_gnp rng ~n ~p:(6. /. float_of_int n) in
        let r = Spanner.Skeleton_dist.build ~spans ~seed g in
        let edges = ref [] in
        Edge_set.iter r.Spanner.Skeleton_dist.spanner (fun e ->
            edges := e :: !edges);
        (List.rev !edges, r.Spanner.Skeleton_dist.stats)
      in
      build S.disabled = build (S.create ()))

let suite =
  [
    ( "spans.registry",
      [
        Alcotest.test_case "disabled sink is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "message lifecycle + lamport" `Quick
          test_message_lifecycle_lamport;
        Alcotest.test_case "drop and duplicate" `Quick test_drop_and_duplicate;
        Alcotest.test_case "structural spans" `Quick test_structural_spans;
        Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "malformed file names the line" `Quick
          test_malformed_file;
      ] );
    ( "spans.causal",
      [
        Alcotest.test_case "empty log" `Quick test_causal_empty;
        Alcotest.test_case "single chain" `Quick test_causal_single_chain;
        Alcotest.test_case "diamond follows the slow arm" `Quick
          test_causal_diamond;
        Alcotest.test_case "slack and phase attribution" `Quick
          test_causal_slack_and_phases;
        Alcotest.test_case "top-k tie broken by id" `Quick
          test_causal_topk_deterministic;
        Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
      ] );
    ( "spans.property",
      [
        QCheck_alcotest.to_alcotest prop_critical_path_equals_rounds;
        QCheck_alcotest.to_alcotest prop_spans_transparent;
      ] );
  ]
