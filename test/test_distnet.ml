(* Tests for the synchronous network simulator. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Bfs = Graphlib.Bfs
module Sim = Distnet.Sim
module Protocols = Distnet.Protocols

let rng () = Util.Prng.create ~seed:91

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_send_requires_link () =
  let g = Gen.path 4 in
  let t = Sim.create g in
  (* The diagnostic names the round and both endpoints. *)
  Alcotest.check_raises "non-neighbor rejected"
    (Invalid_argument "Sim.send: round 0: 0 -> 2 is not a network link")
    (fun () -> Sim.send t ~src:0 ~dst:2 ~words:1 ());
  (* Out-of-range endpoints are not links either, even where an
     arithmetic key would map them onto one (on 0-1-2, -1 * 3 + 4 is
     the key of 0 -> 1). *)
  let t3 = Sim.create (Gen.path 3) in
  Alcotest.check_raises "out-of-range send rejected"
    (Invalid_argument "Sim.send: round 0: -1 -> 4 is not a network link")
    (fun () -> Sim.send t3 ~src:(-1) ~dst:4 ~words:1 ());
  Alcotest.check_raises "out-of-range link_up rejected"
    (Invalid_argument "Sim.link_up: -1 -> 4 is not a network link")
    (fun () -> ignore (Sim.link_up t3 ~src:(-1) ~dst:4))

let test_send_one_per_edge_per_round () =
  let g = Gen.path 4 in
  let t = Sim.create g in
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Sim.send: round 0: 0 already sent to 1 this round")
    (fun () -> Sim.send t ~src:0 ~dst:1 ~words:1 ());
  (* After the round advances, sending again is allowed. *)
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  checki "round accessor advanced" 1 (Sim.round t);
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  checki "rounds" 2 (Sim.stats t).Sim.rounds;
  checki "round accessor = stats.rounds" 2 (Sim.round t)

let test_word_accounting () =
  let g = Gen.path 3 in
  let t = Sim.create g in
  Sim.send t ~src:0 ~dst:1 ~words:3 ();
  Sim.send t ~src:2 ~dst:1 ~words:5 ();
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  let s = Sim.stats t in
  checki "messages" 2 s.Sim.messages;
  checki "words" 8 s.Sim.words;
  checki "max message" 5 s.Sim.max_message_words

let test_positive_words_required () =
  let g = Gen.path 2 in
  let t = Sim.create g in
  Alcotest.check_raises "zero-word message rejected"
    (Invalid_argument "Sim.send: words must be >= 1") (fun () ->
      Sim.send t ~src:0 ~dst:1 ~words:0 ())

let test_quiescence () =
  let g = Gen.path 3 in
  let t = Sim.create g in
  checkb "initially quiescent" true (Sim.quiescent t);
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  checkb "pending" false (Sim.quiescent t);
  Sim.run_until_quiescent t (fun ~dst:_ ~src:_ () -> ());
  checkb "drained" true (Sim.quiescent t)

let test_relay_chain_rounds () =
  (* Relaying a token down a path of length k takes k rounds. *)
  let k = 7 in
  let g = Gen.path (k + 1) in
  let t = Sim.create g in
  Sim.send t ~src:0 ~dst:1 ~words:1 1;
  Sim.run_until_quiescent t (fun ~dst ~src:_ hop ->
      if dst < k then Sim.send t ~src:dst ~dst:(dst + 1) ~words:1 (hop + 1));
  checki "rounds = path length" k (Sim.stats t).Sim.rounds

(* ------------------------------------------------------------------ *)
(* BFS protocol *)

let test_dist_bfs_matches_sequential () =
  let r = rng () in
  let g = Gen.connected_gnp r ~n:150 ~p:0.03 in
  let _, dist = Protocols.bfs g ~root:0 in
  let expected = Bfs.distances g ~src:0 in
  Alcotest.check (Alcotest.array Alcotest.int) "distances agree" expected dist

let test_dist_bfs_rounds () =
  let g = Gen.path 10 in
  let stats, dist = Protocols.bfs g ~root:0 in
  checki "distance to end" 9 dist.(9);
  (* Layered BFS needs ecc rounds of sends + 1 drain round. *)
  checkb "rounds close to eccentricity" true
    (stats.Sim.rounds >= 9 && stats.Sim.rounds <= 11);
  checki "unit messages" 1 stats.Sim.max_message_words

let test_dist_bfs_disconnected () =
  let g = G.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let _, dist = Protocols.bfs g ~root:0 in
  checki "reached" 1 dist.(1);
  checki "unreachable" (-1) dist.(2);
  checki "isolated" (-1) dist.(4)

(* ------------------------------------------------------------------ *)
(* Flooding *)

let test_flood_reaches_component () =
  let r = rng () in
  let g = Gen.connected_gnp r ~n:100 ~p:0.04 in
  let stats, reached = Protocols.flood g ~root:3 ~payload_words:2 in
  Array.iter (fun b -> checkb "all reached" true b) reached;
  checkb "messages at least n-1" true (stats.Sim.messages >= G.n g - 1);
  checki "payload width respected" 2 stats.Sim.max_message_words

let test_flood_message_count_on_tree () =
  (* On a path, flooding sends exactly one message per edge direction
     away from the root plus the initial edge. *)
  let g = Gen.path 6 in
  let stats, _ = Protocols.flood g ~root:0 ~payload_words:1 in
  checki "one message per hop" 5 stats.Sim.messages

(* ------------------------------------------------------------------ *)
(* Fault injection, reliable delivery, trace/replay *)

module Fault = Distnet.Fault
module Trace = Distnet.Trace
module Reliable = Distnet.Reliable

let stats_testable =
  Alcotest.testable Sim.pp_stats (fun a b -> Trace.diff_stats a b = [])

let test_zero_fault_plan_identical () =
  (* A randomized plan with all rates zero must be byte-identical to
     the seed engine: same stats, same results, on BFS and flooding. *)
  let r = rng () in
  let g = Gen.connected_gnp r ~n:150 ~p:0.03 in
  let zero = Fault.make ~seed:7 Fault.default_spec in
  let st0, d0 = Protocols.bfs g ~root:0 in
  let st1, d1 = Protocols.bfs ~faults:zero g ~root:0 in
  Alcotest.check stats_testable "bfs stats identical" st0 st1;
  Alcotest.check (Alcotest.array Alcotest.int) "bfs distances identical" d0 d1;
  let sf0, r0 = Protocols.flood g ~root:3 ~payload_words:2 in
  let sf1, r1 = Protocols.flood ~faults:zero g ~root:3 ~payload_words:2 in
  Alcotest.check stats_testable "flood stats identical" sf0 sf1;
  Alcotest.check (Alcotest.array Alcotest.bool) "flood reach identical" r0 r1

let test_drop_loses_messages () =
  (* Certain loss: nothing is ever delivered, but transmissions are
     still charged to the statistics. *)
  let g = Gen.path 2 in
  let faults = Fault.make ~seed:1 { Fault.default_spec with Fault.drop = 1. } in
  let t = Sim.create ~faults g in
  Sim.send t ~src:0 ~dst:1 ~words:4 ();
  let delivered = Sim.step t (fun ~dst:_ ~src:_ () -> Alcotest.fail "delivered") in
  checki "nothing delivered" 0 delivered;
  checki "transmission charged" 1 (Sim.stats t).Sim.messages;
  checki "words charged" 4 (Sim.stats t).Sim.words

let test_dup_delivers_twice () =
  let g = Gen.path 2 in
  let faults = Fault.make ~seed:1 { Fault.default_spec with Fault.dup = 1. } in
  let t = Sim.create ~faults g in
  Sim.send t ~src:0 ~dst:1 ~words:2 ();
  let delivered = Sim.step t (fun ~dst:_ ~src:_ () -> ()) in
  checki "two copies" 2 delivered;
  checki "both charged" 2 (Sim.stats t).Sim.messages;
  checki "words doubled" 4 (Sim.stats t).Sim.words

let test_delay_holds_messages () =
  let g = Gen.path 2 in
  let faults =
    Fault.make ~seed:1
      { Fault.default_spec with Fault.delay = 1.; max_delay = 1 }
  in
  let t = Sim.create ~faults g in
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  checki "held, not delivered" 0 (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  checkb "still in flight" false (Sim.quiescent t);
  checki "arrives one round late" 1 (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  checkb "drained" true (Sim.quiescent t)

let test_crash_stops_node () =
  (* Node 2 of a path 0-1-2-3 crashes at round 1: it never forwards,
     so reliable BFS gives up on 2 and 3 after max_retries. *)
  let g = Gen.path 4 in
  let faults =
    Fault.make ~seed:1 { Fault.default_spec with Fault.crashes = [ (2, 1) ] }
  in
  let _, dist = Protocols.reliable_bfs ~faults g ~root:0 in
  checki "node 1 reached" 1 dist.(1);
  checki "crashed node frozen" (-1) dist.(2);
  checki "behind the crash" (-1) dist.(3);
  (* A random crash schedule is a function of its seed: nodes
     ascending, rounds in [1, max_round]. *)
  let crashes frac = Fault.random_crashes ~seed:7 ~n:50 ~frac ~max_round:20 in
  let picks = crashes 0.3 in
  checkb "same seed, same schedule" true (picks = crashes 0.3);
  checkb "some nodes crash" true (picks <> []);
  checkb "nodes ascending" true
    (List.map fst picks = List.sort_uniq compare (List.map fst picks));
  checkb "rounds in [1, max_round]" true
    (List.for_all (fun (_, r) -> r >= 1 && r <= 20) picks);
  checkb "frac 0 crashes nobody" true (crashes 0. = []);
  checkb "frac 1 crashes everybody" true
    (List.map fst (crashes 1.) = List.init 50 Fun.id)

let test_reliable_bfs_loss_free_matches () =
  let r = rng () in
  let g = Gen.connected_gnp r ~n:120 ~p:0.04 in
  let _, expected = Protocols.bfs g ~root:0 in
  let _, dist = Protocols.reliable_bfs g ~root:0 in
  Alcotest.check (Alcotest.array Alcotest.int) "distances agree" expected dist

let test_reliable_bfs_under_drop () =
  (* The acceptance workload: 20% loss, seed 1 — the reliable protocol
     still computes the exact distance array. *)
  let r = Util.Prng.create ~seed:1 in
  let g = Gen.connected_gnp r ~n:200 ~p:0.03 in
  let faults = Fault.make ~seed:1 { Fault.default_spec with Fault.drop = 0.2 } in
  let st_free, expected = Protocols.bfs g ~root:0 in
  let st, dist = Protocols.reliable_bfs ~faults g ~root:0 in
  Alcotest.check (Alcotest.array Alcotest.int) "distances survive 20% loss"
    expected dist;
  checkb "loss costs extra traffic" true (st.Sim.words > st_free.Sim.words)

let test_reliable_flood_under_chaos () =
  let r = rng () in
  let g = Gen.connected_gnp r ~n:80 ~p:0.06 in
  let faults =
    Fault.make ~seed:3
      {
        Fault.default_spec with
        Fault.drop = 0.25;
        dup = 0.1;
        delay = 0.2;
        max_delay = 3;
      }
  in
  let _, reached = Protocols.reliable_flood ~faults g ~root:0 ~payload_words:4 in
  Array.iter (fun b -> checkb "all reached despite faults" true b) reached

(* The ARQ under the plans that exercise the runtime's hooks — frozen
   resume, held and duplicated frames, a down link, a late joiner —
   with metrics and spans on.  The figures were recorded with a driver
   that visited every node every round, so they pin that skipping idle
   nodes changes nothing; the digests cover the whole metrics snapshot
   and span log. *)
let test_reliable_pinned_plans () =
  let g = Gen.connected_gnp (Util.Prng.create ~seed:17) ~n:60 ~p:0.08 in
  let w = List.hd (G.neighbors g 0) in
  let d = Fault.default_spec in
  let plans =
    [
      ( "crash+restart",
        {
          d with
          Fault.drop = 0.1;
          crashes = [ (5, 3) ];
          restarts = [ (5, 15) ];
        } );
      ("dup+delay", { d with Fault.dup = 0.1; delay = 0.2; max_delay = 3 });
      ( "edge churn",
        {
          d with
          Fault.drop = 0.05;
          churn =
            [
              Fault.Edge_down { round = 2; u = 0; v = w };
              Fault.Edge_up { round = 12; u = 0; v = w };
            ];
        } );
      ( "late joiner",
        {
          d with
          Fault.drop = 0.1;
          churn = [ Fault.Join { round = 6; node = 5 } ];
        } );
    ]
  in
  let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  List.iter
    (fun (plan, proto, (rounds, messages, words, max_message_words), samples,
          spans, metrics_md5, spans_md5) ->
      let faults = Fault.make ~seed:3 ~graph:g (List.assoc plan plans) in
      let m = Obs.Metrics.create () and sp = Obs.Span.create () in
      let st =
        if proto = "bfs" then
          fst (Protocols.reliable_bfs ~faults ~metrics:m ~spans:sp g ~root:0)
        else
          fst
            (Protocols.reliable_flood ~faults ~metrics:m ~spans:sp g ~root:0
               ~payload_words:2)
      in
      let name what = Printf.sprintf "%s %s: %s" plan proto what in
      Alcotest.check stats_testable (name "stats")
        { Sim.rounds; messages; words; max_message_words }
        st;
      let snapshot = Obs.Metrics.snapshot m in
      checki (name "samples") samples (List.length snapshot);
      checki (name "spans") spans (Obs.Span.count sp);
      Alcotest.(check string)
        (name "metrics digest") metrics_md5
        (digest (List.map Obs.Metrics.to_json snapshot));
      Alcotest.(check string)
        (name "spans digest") spans_md5
        (digest (List.map Obs.Span.to_json (Obs.Span.records sp))))
    [
      ("crash+restart", "bfs", (51, 535, 979, 3), 276, 874,
       "d6867bf679dd826f5646052eafa45a7e", "0cf29f0f99e3027836e20fe80d4d64db");
      ("crash+restart", "flood", (82, 406, 851, 4), 276, 627,
       "4059a09a4e8f131c24a57b0f1bb48dec", "0df26120280eda73a9a20f1554a45f2f");
      ("dup+delay", "bfs", (14, 635, 1134, 3), 276, 940,
       "f9847298a4e848a9ea25fbc0f701f8f0", "b3687b85a7b601ab7944fd733363d28a");
      ("dup+delay", "flood", (14, 484, 1006, 4), 276, 682,
       "1631bdff9e8429998d43ef1b91c42d5d", "ec5eeb31e6e28564900a032c46ce410a");
      ("edge churn", "bfs", (24, 486, 888, 3), 276, 789,
       "574c4c8a097c2305828a120349721efb", "1d5e65dc65ecd95c0c7ab1611286ef97");
      ("edge churn", "flood", (23, 358, 726, 4), 276, 543,
       "77712186efb70a8718668b9b0b21dd61", "444cd0245102f948c352cc8bf121f21b");
      ("late joiner", "bfs", (26, 520, 953, 3), 276, 846,
       "8be64212bcbd9a72f53820371a48dba9", "2f4fa6fdaf732f28bf8d1343b3b5ad6b");
      ("late joiner", "flood", (81, 390, 807, 4), 276, 597,
       "7ecde8fdfedf09e8e2e144cd9f4d932d", "919463d1a48916ce534a17bd8a11b40c");
    ]

let test_protocols_reject_bad_root () =
  let g = Gen.connected_gnp (Util.Prng.create ~seed:3) ~n:60 ~p:0.08 in
  List.iter
    (fun root ->
      let expect name run =
        Alcotest.check_raises
          (Printf.sprintf "%s root %d" name root)
          (Invalid_argument
             (Printf.sprintf "Protocols.%s: root %d is not a vertex (n = 60)"
                name root))
          run
      in
      expect "bfs" (fun () -> ignore (Protocols.bfs g ~root));
      expect "flood" (fun () ->
          ignore (Protocols.flood g ~root ~payload_words:1));
      expect "reliable_bfs" (fun () -> ignore (Protocols.reliable_bfs g ~root));
      expect "reliable_flood" (fun () ->
          ignore (Protocols.reliable_flood g ~root ~payload_words:1)))
    [ 60; 99; -1 ]

let test_trace_replay_reproduces_stats () =
  let r = Util.Prng.create ~seed:2 in
  let g = Gen.connected_gnp r ~n:90 ~p:0.05 in
  let spec =
    {
      Fault.drop = 0.2;
      dup = 0.05;
      delay = 0.1;
      max_delay = 2;
      crashes = [ (7, 9) ];
      restarts = [];
      churn = [];
      drop_profile = [];
    }
  in
  let tracer = Trace.create () in
  let st, dist = Protocols.reliable_bfs ~faults:(Fault.make ~seed:5 spec) ~tracer g ~root:0 in
  checkb "trace non-empty" true (Trace.length tracer > 0);
  (* Replay from the recorded events: no PRNG, fates are scripted. *)
  let replayed = Fault.scripted (Trace.events tracer) in
  let st', dist' = Protocols.reliable_bfs ~faults:replayed g ~root:0 in
  Alcotest.check stats_testable "replay stats identical" st st';
  Alcotest.check (Alcotest.array Alcotest.int) "replay distances identical"
    dist dist'

let test_trace_save_load_roundtrip () =
  let r = rng () in
  let g = Gen.connected_gnp r ~n:60 ~p:0.08 in
  let tracer = Trace.create () in
  let faults =
    Fault.make ~seed:4
      { Fault.default_spec with Fault.drop = 0.3; delay = 0.1; max_delay = 2 }
  in
  let st, _ = Protocols.reliable_bfs ~faults ~tracer g ~root:0 in
  let path = Filename.temp_file "ultrasparse" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save ~stats:st tracer path;
      let events, stored = Trace.load path in
      checki "every event round-trips" (Trace.length tracer)
        (List.length events);
      (match stored with
      | Some s -> Alcotest.check stats_testable "stats round-trip" st s
      | None -> Alcotest.fail "stats line missing");
      checkb "events equal after reload" true (events = Trace.events tracer);
      (* ... and the reloaded trace still replays bit-for-bit. *)
      let st', _ = Protocols.reliable_bfs ~faults:(Fault.scripted events) g ~root:0 in
      Alcotest.check stats_testable "reloaded replay stats" st st')

let test_trace_parse_error_truncated () =
  (* A file whose last line was cut mid-record (a crashed writer, a
     partial transfer): the error must name that exact line. *)
  let path = Filename.temp_file "ultrasparse" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "{\"round\":0,\"kind\":\"send\",\"src\":0,\"dst\":1,\"words\":2}\n";
      output_string oc
        "{\"round\":1,\"kind\":\"deliver\",\"src\":0,\"dst\":1,\"words\":2}\n";
      output_string oc "{\"round\":2,\"kind\":\"dro";
      close_out oc;
      let seen = ref 0 in
      match Trace.iter_file path (fun _ -> incr seen) with
      | _ -> Alcotest.fail "expected Parse_error on the truncated tail"
      | exception Obs.Jsonl.Parse_error { file; line; msg } ->
          checkb "file named" true (file = path);
          checki "events before the bad line were streamed" 2 !seen;
          checki "1-based line number" 3 line;
          checkb "message mentions the missing field" true
            (String.length msg > 0))

let test_trace_parse_error_garbage () =
  let path = Filename.temp_file "ultrasparse" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let check_fails ~line content =
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Trace.iter_file path (fun _ -> ()) with
        | _ -> Alcotest.failf "expected Parse_error for %S" content
        | exception Obs.Jsonl.Parse_error e ->
            checki "line number" line e.line
      in
      (* garbage line in the middle *)
      check_fails ~line:2
        "{\"round\":0,\"kind\":\"send\",\"src\":0,\"dst\":1,\"words\":2}\n\
         not json at all\n";
      (* unknown kind *)
      check_fails ~line:1
        "{\"round\":0,\"kind\":\"teleport\",\"src\":0,\"dst\":1,\"words\":2}\n";
      (* overflowing integer surfaces as a missing field, not a crash *)
      check_fails ~line:1
        "{\"round\":99999999999999999999,\"kind\":\"send\",\"src\":0,\"dst\":1,\"words\":2}\n";
      (* a drop always names its reason: a missing or unknown one is
         not read as a loss *)
      check_fails ~line:2
        "{\"round\":0,\"kind\":\"send\",\"src\":0,\"dst\":1,\"words\":2}\n\
         {\"round\":0,\"kind\":\"drop\",\"src\":0,\"dst\":1,\"words\":2}\n";
      check_fails ~line:1
        "{\"round\":0,\"kind\":\"drop\",\"src\":0,\"dst\":1,\"words\":2,\"reason\":\"gremlins\"}\n";
      (* blank/CRLF lines stay tolerated: no error here *)
      let oc = open_out path in
      output_string oc
        "{\"round\":0,\"kind\":\"send\",\"src\":0,\"dst\":1,\"words\":2}\r\n\n   \n";
      close_out oc;
      let n = ref 0 in
      ignore (Trace.iter_file path (fun _ -> incr n));
      checki "CRLF + blank lines tolerated" 1 !n)

let test_budget_failure_reports_stats () =
  (* Two nodes ping-pong forever: the budget failure must carry the
     accumulated statistics so non-convergence is diagnosable. *)
  let g = Gen.path 2 in
  let t = Sim.create g in
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  match
    Sim.run_until_quiescent ~max_rounds:10 t (fun ~dst ~src:_ () ->
        Sim.send t ~src:dst ~dst:(1 - dst) ~words:1 ())
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      checkb "names the budget" true
        (String.length msg > 0
        && String.sub msg 0 24 = "Sim.run_until_quiescent:");
      let contains needle =
        let nl = String.length needle and hl = String.length msg in
        let rec at i =
          i + nl <= hl && (String.sub msg i nl = needle || at (i + 1))
        in
        at 0
      in
      checkb "reports the round" true (contains "round 10:");
      checkb "reports rounds" true (contains "rounds=10");
      checkb "reports words" true (contains "words=10");
      checkb "reports in-flight endpoints" true (contains "in flight (head ")

(* The engine's delivery-order contract, pinned under a scripted plan:
   within a round, the held messages due now come first in the order
   they were held, then the round's batch in send order, a duplicate
   right after its original; a send made from inside the callback goes
   out the next round. *)
let test_delivery_order_contract () =
  let g = Gen.path 4 in
  let ev round kind src dst = { Trace.round; kind; src; dst; words = 1 } in
  let faults =
    Fault.scripted
      [ ev 1 (Trace.Delay 2) 1 2; ev 1 Trace.Dup 2 3; ev 1 (Trace.Delay 2) 3 2 ]
  in
  let t = Sim.create ~faults g in
  let log = ref [] in
  let deliver ~dst ~src m =
    log := Printf.sprintf "r%d %d->%d %s" (Sim.round t) src dst m :: !log;
    match m with
    | "a" -> Sim.send t ~src:dst ~dst:src ~words:1 "a'"
    | "a'" -> Sim.send t ~src:dst ~dst:1 ~words:1 "f"
    | _ -> ()
  in
  List.iter
    (fun (src, dst, m) -> Sim.send t ~src ~dst ~words:1 m)
    [ (0, 1, "a"); (1, 2, "b"); (2, 3, "c"); (3, 2, "d") ];
  Sim.run_until_quiescent t deliver;
  Alcotest.(check (list string))
    "delivery sequence"
    [
      "r1 0->1 a";
      "r1 2->3 c";
      "r1 2->3 c";
      "r2 1->0 a'";
      "r3 1->2 b";
      "r3 3->2 d";
      "r3 0->1 f";
    ]
    (List.rev !log);
  Alcotest.check stats_testable "every copy charged once"
    { Sim.rounds = 3; messages = 7; words = 7; max_message_words = 1 }
    (Sim.stats t)

(* The budget failure's full text: the count covers queued and held
   messages, and the head is the latest send. *)
let test_budget_text_contract () =
  let g = Gen.path 4 in
  let faults =
    Fault.scripted
      [ { Trace.round = 1; kind = Trace.Delay 2; src = 0; dst = 1; words = 2 } ]
  in
  let t = Sim.create ~faults g in
  let ignore_all ~dst:_ ~src:_ _ = () in
  Sim.send t ~src:0 ~dst:1 ~words:2 "held";
  ignore (Sim.step t ignore_all);
  List.iter
    (fun (src, dst) -> Sim.send t ~src ~dst ~words:1 "x")
    [ (1, 2); (3, 2); (2, 1) ];
  Alcotest.check_raises "queued + held, head = latest send"
    (Invalid_argument
       "Sim.run_until_quiescent: round 1: budget exhausted (rounds=1 \
        messages=1 words=2 max_msg=2 words), 4 in flight (head 2 -> 1)")
    (fun () -> Sim.run_until_quiescent ~max_rounds:0 t ignore_all);
  ignore (Sim.step t ignore_all);
  Alcotest.check_raises "held only"
    (Invalid_argument
       "Sim.run_until_quiescent: round 2: budget exhausted (rounds=2 \
        messages=4 words=5 max_msg=2 words), 1 held back")
    (fun () -> Sim.run_until_quiescent ~max_rounds:0 t ignore_all)

(* [crashed], [incarnation] and [joined] agree with the schedules on
   every listed node and round, and read "no event" — up, incarnation
   0, joined — beyond the largest listed id and for negative ids. *)
let prop_fault_node_queries_match_schedules =
  QCheck.Test.make ~name:"node queries agree with the schedules" ~count:200
    QCheck.(pair (int_range 1 40) small_nat)
    (fun (n, seed) ->
      let rng = Util.Prng.create ~seed in
      let crashes = ref [] and restarts = ref [] and joins = ref [] in
      for v = 0 to n - 1 do
        if Util.Prng.bernoulli rng 0.3 then begin
          let rc = Util.Prng.int rng 30 in
          crashes := (v, rc) :: !crashes;
          if Util.Prng.bernoulli rng 0.5 then
            restarts := (v, rc + 1 + Util.Prng.int rng 20) :: !restarts
        end;
        if Util.Prng.bernoulli rng 0.2 then
          joins := Fault.Join { round = 1 + Util.Prng.int rng 30; node = v } :: !joins
      done;
      let f =
        Fault.make ~seed
          {
            Fault.default_spec with
            Fault.crashes = !crashes;
            restarts = !restarts;
            churn = !joins;
          }
      in
      let crash = Fault.crash_schedule f
      and restart = Fault.restart_schedule f
      and join = Fault.join_schedule f in
      let swap = List.map (fun (v, r) -> (r, v)) in
      let sorted l = List.sort compare l in
      let at sched v = List.find_map (fun (r, w) -> if w = v then Some r else None) sched in
      let reached sched ~round v =
        match at sched v with Some r -> round >= r | None -> false
      in
      let agrees v =
        List.for_all
          (fun round ->
            Fault.crashed f ~round v
            = (reached crash ~round v && not (reached restart ~round v))
            && Fault.incarnation f ~round v
               = (if reached restart ~round v then 1 else 0)
            && Fault.joined f ~round v
               = (match at join v with Some r -> round >= r | None -> true))
          (List.init 61 Fun.id)
      in
      let absent v =
        List.for_all
          (fun round ->
            (not (Fault.crashed f ~round v))
            && Fault.incarnation f ~round v = 0
            && Fault.joined f ~round v)
          [ 0; 1; 29; 60; 1_000_000 ]
      in
      crash = sorted (swap !crashes)
      && restart = sorted (swap !restarts)
      && join
         = sorted
             (List.map
                (function Fault.Join { round; node } -> (round, node) | _ -> assert false)
                !joins)
      && List.for_all agrees (List.init n Fun.id)
      && List.for_all absent [ n; n + 7; max_int; -1; -n; min_int ])

let prop_zero_fault_plan_identical =
  QCheck.Test.make ~name:"zero-rate fault plan = seed engine" ~count:25
    QCheck.(int_range 2 60)
    (fun n ->
      let g = Gen.gnp (Util.Prng.create ~seed:n) ~n ~p:(3. /. float_of_int n) in
      let zero = Fault.make ~seed:n Fault.default_spec in
      let st0, d0 = Protocols.bfs g ~root:0 in
      let st1, d1 = Protocols.bfs ~faults:zero g ~root:0 in
      st0 = st1 && d0 = d1)

let prop_reliable_bfs_under_drop =
  QCheck.Test.make ~name:"reliable BFS @20% drop = loss-free BFS" ~count:15
    QCheck.(int_range 2 50)
    (fun n ->
      let g = Gen.gnp (Util.Prng.create ~seed:n) ~n ~p:(3. /. float_of_int n) in
      let faults =
        Fault.make ~seed:(n + 1) { Fault.default_spec with Fault.drop = 0.2 }
      in
      let _, expected = Protocols.bfs g ~root:0 in
      let _, dist = Protocols.reliable_bfs ~faults g ~root:0 in
      expected = dist)

let prop_trace_replay_identical =
  QCheck.Test.make ~name:"trace -> replay reproduces stats" ~count:15
    QCheck.(int_range 2 40)
    (fun n ->
      let g = Gen.gnp (Util.Prng.create ~seed:n) ~n ~p:(3. /. float_of_int n) in
      let faults =
        Fault.make ~seed:(2 * n)
          {
            Fault.default_spec with
            Fault.drop = 0.15;
            dup = 0.1;
            delay = 0.1;
            max_delay = 2;
          }
      in
      let tracer = Trace.create () in
      let st, _ = Protocols.reliable_flood ~faults ~tracer g ~root:0 ~payload_words:2 in
      let st', _ =
        Protocols.reliable_flood
          ~faults:(Fault.scripted (Trace.events tracer))
          g ~root:0 ~payload_words:2
      in
      st = st')

let prop_dist_bfs_equals_sequential =
  QCheck.Test.make ~name:"distributed BFS = sequential BFS" ~count:30
    QCheck.(int_range 2 60)
    (fun n ->
      let r = Util.Prng.create ~seed:n in
      let g = Gen.gnp r ~n ~p:(3. /. float_of_int n) in
      let _, dist = Protocols.bfs g ~root:0 in
      dist = Bfs.distances g ~src:0)

(* ------------------------------------------------------------------ *)
(* Recovery building blocks *)

let test_recovery_detector () =
  let open Distnet.Recovery in
  let d = Detector.create ~n:4 in
  Detector.suspect d 1;
  Detector.note_death d 2;
  checkb "suspected" true (Detector.is_suspected d 1);
  checkb "announced is not suspected" false (Detector.is_suspected d 2);
  checkb "untouched is not suspected" false (Detector.is_suspected d 0);
  (* A death notice supersedes an earlier suspicion: the peer left
     cleanly after all, so its contribution is complete. *)
  Detector.note_death d 1;
  checkb "notice supersedes suspicion" false (Detector.is_suspected d 1);
  (* ... and a later suspicion (a message sent after the notice) does
     not override it. *)
  Detector.suspect d 2;
  checkb "notice survives a later suspicion" false (Detector.is_suspected d 2)

let test_detector_unsuspect_after_message () =
  (* Crash-recovery: a delivery from a suspected node proves the
     suspicion belonged to its dead incarnation. *)
  let open Distnet.Recovery in
  let d = Detector.create ~n:3 in
  Detector.suspect d 1;
  checkb "suspected" true (Detector.is_suspected d 1);
  Detector.unsuspect d 1;
  checkb "message after suspicion clears it" false (Detector.is_suspected d 1);
  Detector.suspect d 1;
  checkb "a cleared node can be suspected again" true
    (Detector.is_suspected d 1);
  Detector.unsuspect d 0;
  checkb "unsuspecting an up node is a no-op" false (Detector.is_suspected d 0);
  (* A death notice is never revoked: the old incarnation completed
     its duties; the reborn one re-enters through repair.  Were the
     notice cleared, the suspicion below would stick. *)
  Detector.note_death d 2;
  Detector.unsuspect d 2;
  Detector.suspect d 2;
  checkb "announced stays announced" false (Detector.is_suspected d 2)

(* A [suspect] for runs that ignore write-offs. *)
let no_suspect ~by:_ _ = ()

(* A [receive] for runs that only count frames. *)
let no_receive _ ~senders:_ ~payloads:_ _ = ()

let test_reliable_link_idle () =
  let rt = Reliable.create ~words:(fun () -> 1) (Gen.path 2) in
  Reliable.start rt 0 [ (1, ()) ];
  Reliable.start rt 1 [];
  let idle v w = Reliable.link_idle (Reliable.endpoint rt v) w in
  checkb "first transmission on the wire" false
    (Sim.quiescent (Reliable.net rt));
  checkb "message awaiting ack -> busy" false (idle 0 1);
  checkb "nothing queued -> idle" true (idle 1 0);
  checkb "unknown neighbor -> idle" true (idle 1 7);
  Reliable.send rt ~src:1 ~dst:0 ();
  checkb "outbox -> busy" false (idle 1 0);
  (* Round 1: node 1 acks and sends its outbox; round 2: node 0 takes
     the ack and acks back; round 3: node 1 takes that ack. *)
  for _ = 1 to 3 do
    Reliable.step rt ~receive:no_receive ~landed:ignore ~suspect:no_suspect
  done;
  checkb "acked -> idle again" true (idle 0 1 && idle 1 0);
  checkb "nothing left to do" true (Reliable.idle rt ~round:4)

(* ------------------------------------------------------------------ *)
(* Topology churn: plan validation, engine semantics, healing *)

let test_fault_make_rejects_invalid_plans () =
  let g = Gen.path 4 in
  let expect ?(with_graph = true) msg spec =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore
          (if with_graph then Fault.make ~seed:1 ~graph:g spec
           else Fault.make ~seed:1 spec))
  in
  let with_churn churn = { Fault.default_spec with Fault.churn } in
  expect "Fault.make: duplicate crash entry for node 1"
    { Fault.default_spec with Fault.crashes = [ (1, 5); (1, 9) ] };
  expect "Fault.make: node 1 crash round -2 < 0"
    { Fault.default_spec with Fault.crashes = [ (1, -2) ] };
  expect "Fault.make: crash references vertex 99 outside this 4-vertex graph"
    { Fault.default_spec with Fault.crashes = [ (99, 5) ] };
  expect ~with_graph:false "Fault.make: crash references vertex -1"
    { Fault.default_spec with Fault.crashes = [ (-1, 5) ] };
  (* Churn rejections name the offending event index, constructor and
     field, so a long sampled plan points at its own bad entry. *)
  expect
    "Fault.make: churn event #0 (edge_down): edge references vertex 99 \
     outside this 4-vertex graph"
    (with_churn [ Fault.Edge_down { round = 1; u = 0; v = 99 } ]);
  expect "Fault.make: churn event #0 (edge_down): edge references edge 0-2 \
          not in the graph"
    (with_churn [ Fault.Edge_down { round = 1; u = 0; v = 2 } ]);
  expect "Fault.make: churn event #1 (edge_up): round -1 < 0"
    (with_churn
       [
         Fault.Edge_down { round = 1; u = 0; v = 1 };
         Fault.Edge_up { round = -1; u = 0; v = 1 };
       ]);
  expect "Fault.make: churn event #0 (partition): edges list is empty"
    (with_churn [ Fault.Partition { round = 1; edges = []; heal = None } ]);
  expect
    "Fault.make: churn event #0 (partition): edges references edge 0-3 not \
     in the graph"
    (with_churn
       [ Fault.Partition { round = 1; edges = [ (0, 1); (0, 3) ]; heal = None } ]);
  expect
    "Fault.make: churn event #0 (partition): heal round 5 <= partition round 5"
    (with_churn
       [ Fault.Partition { round = 5; edges = [ (0, 1) ]; heal = Some 5 } ]);
  expect
    "Fault.make: churn event #0 (join): round 0 < 1 (nodes present from the \
     start need no join event)"
    (with_churn [ Fault.Join { round = 0; node = 1 } ]);
  expect ~with_graph:false
    "Fault.make: churn event #0 (join): node references vertex -3"
    { Fault.default_spec with Fault.churn = [ Fault.Join { round = 2; node = -3 } ] };
  expect "Fault.make: churn event #1 (join): duplicate join entry for node 2"
    (with_churn
       [ Fault.Join { round = 3; node = 2 }; Fault.Join { round = 7; node = 2 } ]);
  (* Same discipline for the drop-rate profile. *)
  expect "Fault.make: drop_profile segment #0: round -4 < 0"
    { Fault.default_spec with Fault.drop_profile = [ (-4, 0.5) ] };
  expect "Fault.make: drop_profile segment #1: rate 1.5 not in [0,1]"
    { Fault.default_spec with Fault.drop_profile = [ (0, 0.1); (5, 1.5) ] };
  expect
    "Fault.make: drop_profile segment rounds must be strictly increasing \
     (round 5 after round 5)"
    { Fault.default_spec with Fault.drop_profile = [ (5, 0.1); (5, 0.2) ] }

let test_restart_plan_validation () =
  let g = Gen.path 4 in
  let expect msg spec =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault.make ~seed:1 ~graph:g spec))
  in
  expect
    "Fault.make: restart event #0: node 2 has no crash entry (only crashed \
     nodes can restart)"
    { Fault.default_spec with Fault.restarts = [ (2, 9) ] };
  expect
    "Fault.make: restart event #0: restart round 5 not after node 1's crash \
     round 5"
    {
      Fault.default_spec with
      Fault.crashes = [ (1, 5) ];
      restarts = [ (1, 5) ];
    };
  expect
    "Fault.make: restart event #1: duplicate restart entry for node 1"
    {
      Fault.default_spec with
      Fault.crashes = [ (1, 5) ];
      restarts = [ (1, 9); (1, 12) ];
    };
  expect
    "Fault.make: restart event #0: node references vertex 99 outside this \
     4-vertex graph"
    { Fault.default_spec with Fault.restarts = [ (99, 9) ] }

let test_restart_interval_semantics () =
  (* A restarting node is down exactly on [crash, restart) and changes
     incarnation at the restart round; a crash-stop node is down
     forever at incarnation 0. *)
  let f =
    Fault.make ~seed:1
      {
        Fault.default_spec with
        Fault.crashes = [ (2, 5); (3, 7) ];
        restarts = [ (2, 9) ];
      }
  in
  checkb "up before crash" false (Fault.crashed f ~round:4 2);
  checkb "down at crash round" true (Fault.crashed f ~round:5 2);
  checkb "down just before restart" true (Fault.crashed f ~round:8 2);
  checkb "up again at restart round" false (Fault.crashed f ~round:9 2);
  checkb "up forever after" false (Fault.crashed f ~round:500 2);
  checki "incarnation 0 before restart" 0 (Fault.incarnation f ~round:8 2);
  checki "incarnation 1 from restart on" 1 (Fault.incarnation f ~round:9 2);
  checkb "crash-stop stays down" true (Fault.crashed f ~round:500 3);
  checki "crash-stop stays incarnation 0" 0 (Fault.incarnation f ~round:500 3);
  checkb "plan has restarts" true (Fault.has_restarts f);
  checki "last restart round" 9 (Fault.last_restart_round f);
  checkb "restart schedule sorted by round" true
    (Fault.restart_schedule f = [ (9, 2) ]);
  let crash_stop =
    Fault.make ~seed:1 { Fault.default_spec with Fault.crashes = [ (2, 5) ] }
  in
  checkb "crash-stop plan has no restarts" false
    (Fault.has_restarts crash_stop);
  checki "no restart round" 0 (Fault.last_restart_round crash_stop)

let test_trace_replay_with_restart () =
  (* A run with a mid-flood crash + restart records Restart events;
     replaying the trace (which re-derives stale-incarnation drops
     from the schedule) reproduces the run bit-for-bit. *)
  let r = Util.Prng.create ~seed:2 in
  let g = Gen.connected_gnp r ~n:60 ~p:0.08 in
  let spec =
    {
      Fault.drop = 0.15;
      dup = 0.;
      delay = 0.1;
      max_delay = 2;
      crashes = [ (7, 9) ];
      restarts = [ (7, 40) ];
      churn = [];
      drop_profile = [];
    }
  in
  let tracer = Trace.create () in
  let st, reached =
    Protocols.reliable_flood
      ~faults:(Fault.make ~seed:5 spec)
      ~tracer g ~root:0 ~payload_words:2
  in
  checkb "restart event traced" true
    (List.exists
       (fun e -> e.Trace.kind = Trace.Restart)
       (Trace.events tracer));
  let st', reached' =
    Protocols.reliable_flood
      ~faults:(Fault.scripted (Trace.events tracer))
      g ~root:0 ~payload_words:2
  in
  Alcotest.check stats_testable "replay stats identical" st st';
  checkb "replay reach identical" true (reached = reached')

let test_churn_link_down_and_heal () =
  (* A down link refuses raw sends (structured error), reports itself
     via link_up/edge_up, and works again once the churn brings it
     back. *)
  let g = Gen.path 3 in
  let faults =
    Fault.make ~seed:1 ~graph:g
      {
        Fault.default_spec with
        Fault.churn =
          [
            Fault.Edge_down { round = 1; u = 0; v = 1 };
            Fault.Edge_up { round = 3; u = 0; v = 1 };
          ];
      }
  in
  let t = Sim.create ~faults g in
  checkb "link up at round 0" true (Sim.link_up t ~src:0 ~dst:1);
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  (* Round 1: the edge is down. *)
  checkb "link down after churn" false (Sim.link_up t ~src:0 ~dst:1);
  checkb "down in both directions" false (Sim.link_up t ~src:1 ~dst:0);
  checkb "edge_up agrees" false (Sim.edge_up t 0);
  checkb "other edge untouched" true (Sim.link_up t ~src:1 ~dst:2);
  (match Sim.send t ~src:0 ~dst:1 ~words:1 () with
  | () -> Alcotest.fail "send on a down link must raise"
  | exception Sim.Link_down { round; src; dst } ->
      checki "error names the round" 1 round;
      checki "error names src" 0 src;
      checki "error names dst" 1 dst);
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> ()));
  (* Round 3: healed. *)
  checkb "link healed" true (Sim.link_up t ~src:0 ~dst:1);
  let got = ref false in
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  ignore (Sim.step t (fun ~dst ~src:_ () -> if dst = 1 then got := true));
  checkb "delivery works after heal" true !got

let test_churn_inflight_dropped_on_down_edge () =
  (* A message in flight when its link goes down is lost, exactly like
     a drop — it does not tunnel through the partition. *)
  let g = Gen.path 2 in
  let faults =
    Fault.make ~seed:1 ~graph:g
      {
        Fault.default_spec with
        Fault.churn = [ Fault.Edge_down { round = 1; u = 0; v = 1 } ];
      }
  in
  let t = Sim.create ~faults g in
  Sim.send t ~src:0 ~dst:1 ~words:1 ();
  (* The send happened in round 0; delivery would be in round 1, but
     the edge goes down at the start of round 1. *)
  let got = ref false in
  ignore (Sim.step t (fun ~dst:_ ~src:_ () -> got := true));
  checkb "in-flight message dropped" false !got

let test_churn_healed_partition_bfs_correct () =
  (* A partition that heals is just a burst of loss to the ARQ: the
     reliable BFS still computes the exact distance array. *)
  let r = Util.Prng.create ~seed:13 in
  let g = Gen.connected_gnp r ~n:80 ~p:0.06 in
  let cut = ref [] in
  G.iter_neighbors g 0 (fun w _ -> cut := (0, w) :: !cut);
  let faults =
    Fault.make ~seed:2 ~graph:g
      {
        Fault.default_spec with
        Fault.churn =
          [ Fault.Partition { round = 2; edges = !cut; heal = Some 30 } ];
      }
  in
  let _, expected = Protocols.bfs g ~root:1 in
  let _, dist = Protocols.reliable_bfs ~faults g ~root:1 in
  Alcotest.check (Alcotest.array Alcotest.int)
    "distances survive a healed partition" expected dist

let test_churn_late_join_flood_reaches_all () =
  (* A node that joins late still ends up flooded: ARQ retransmissions
     cover the window where it did not exist. *)
  let r = Util.Prng.create ~seed:17 in
  let g = Gen.connected_gnp r ~n:60 ~p:0.08 in
  let faults =
    Fault.make ~seed:3 ~graph:g
      {
        Fault.default_spec with
        Fault.churn = [ Fault.Join { round = 6; node = 5 } ];
      }
  in
  let _, reached = Protocols.reliable_flood ~faults g ~root:0 ~payload_words:2 in
  Array.iteri
    (fun v b -> checkb (Printf.sprintf "node %d reached" v) true b)
    reached

(* ------------------------------------------------------------------ *)
(* ARQ retransmission policy: its metric *)

let test_arq_backoff_escalation_metric () =
  (* The escalation counter moves when the RTO grows, which real loss
     makes it do; the protocol still converges to the exact answer. *)
  let r = Util.Prng.create ~seed:5 in
  let g = Gen.connected_gnp r ~n:60 ~p:0.08 in
  let faults = Fault.make ~seed:2 { Fault.default_spec with Fault.drop = 0.3 } in
  let m = Obs.Metrics.create () in
  let _, dist = Protocols.reliable_bfs ~faults ~metrics:m g ~root:0 in
  let _, expected = Protocols.bfs g ~root:0 in
  Alcotest.check (Alcotest.array Alcotest.int) "distances exact" expected dist;
  checkb "escalates under 30% loss" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "arq_backoff_escalations")
    > 0)

(* ------------------------------------------------------------------ *)
(* ARQ timers: absolute deadlines, and drivers that skip idle nodes *)

let test_arq_due_schedule () =
  (* Node 0 of a 2-path sends one message to node 1, which is down from
     round 0 and never acks.  The timeout backs off 3, 6, 12, 24 and
     then 32 rounds; after twelve retransmissions the thirteenth
     timeout abandons the message and writes node 1 off.  The runtime
     visits node 0 only in its first round, which anchors the timer
     [start] armed, and at each timeout: every other round it is
     skipped.  The runtime calls [receive] once per visit. *)
  let faults =
    Fault.make ~seed:1 { Fault.default_spec with Fault.crashes = [ (1, 0) ] }
  in
  let tracer = Trace.create () in
  let rt = Reliable.create ~faults ~tracer ~words:(fun () -> 1) (Gen.path 2) in
  let visits = ref [] in
  let receive v ~senders:_ ~payloads:_ _ =
    visits := (v, Sim.round (Reliable.net rt)) :: !visits
  in
  Reliable.start rt 0 [ (1, ()) ];
  Reliable.start rt 1 [];
  let writeoffs = ref [] in
  let suspect ~by w =
    writeoffs := (Sim.round (Reliable.net rt), (by, w)) :: !writeoffs
  in
  for _ = 1 to 400 do
    Reliable.step rt ~receive ~landed:ignore ~suspect
  done;
  let frames =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.kind = Trace.Send then Some e.Trace.round else None)
      (Trace.events tracer)
  in
  let schedule = [ 3; 9; 21; 45; 77; 109; 141; 173; 205; 237; 269; 301; 333 ] in
  let ints = Alcotest.(list int) in
  Alcotest.check
    Alcotest.(list (pair int int))
    "visited at the first round and exactly at the timeouts"
    (List.map (fun r -> (0, r)) (1 :: schedule))
    (List.rev !visits);
  Alcotest.check ints "a frame at round 0 and each of the first twelve"
    (0 :: List.filteri (fun i _ -> i < 12) schedule)
    frames;
  let ep = Reliable.endpoint rt 0 in
  checki "twelve retransmissions" 12 (Reliable.retransmissions ep);
  checki "one dead letter" 1 (Reliable.dead_letters ep);
  checkb "nothing in flight" true (Reliable.idle rt ~round:401);
  Alcotest.check
    Alcotest.(list (pair int (pair int int)))
    "node 1 written off at the last timeout"
    [ (333, (0, 1)) ]
    !writeoffs

let test_arq_writeoff_order () =
  (* Nodes 1 and 3 of a 4-path are down from round 0.  Node 0 sends
     one message to node 1, node 2 one each to nodes 1 and 3; all
     three are abandoned at the same timeout.  The write-offs reach
     [suspect] after the step's visits, in visit order and in peer
     order within a visit. *)
  let faults =
    Fault.make ~seed:1
      { Fault.default_spec with Fault.crashes = [ (1, 0); (3, 0) ] }
  in
  let rt = Reliable.create ~faults ~words:(fun () -> 1) (Gen.path 4) in
  for v = 0 to 3 do
    Reliable.start rt v
      (match v with 0 -> [ (1, ()) ] | 2 -> [ (1, ()); (3, ()) ] | _ -> [])
  done;
  let writeoffs = ref [] in
  let suspect ~by w =
    writeoffs := (Sim.round (Reliable.net rt), (by, w)) :: !writeoffs
  in
  for _ = 1 to 400 do
    Reliable.step rt ~receive:no_receive ~landed:ignore ~suspect
  done;
  Alcotest.check
    Alcotest.(list (pair int (pair int int)))
    "three write-offs at round 333"
    [ (333, (0, 1)); (333, (2, 1)); (333, (2, 3)) ]
    (List.rev !writeoffs)

let test_arq_late_joiner_timers () =
  (* A late-joining root starts and gets its first visit in its join
     round, so its first timeout counts from the round before; at
     [initial_rto] itself a timer counted from round 0 would fire in the
     round the first frame went out and send twice on one link. *)
  List.iter
    (fun (join, rounds) ->
      let r = Util.Prng.create ~seed:17 in
      let g = Gen.connected_gnp r ~n:60 ~p:0.08 in
      let faults =
        Fault.make ~seed:3 ~graph:g
          {
            Fault.default_spec with
            Fault.drop = 0.1;
            churn = [ Fault.Join { round = join; node = 0 } ];
          }
      in
      let st, dist = Protocols.reliable_bfs ~faults g ~root:0 in
      let _, expected = Protocols.bfs g ~root:0 in
      Alcotest.check (Alcotest.array Alcotest.int) "distances exact" expected
        dist;
      Alcotest.check stats_testable
        (Printf.sprintf "join at %d: pinned stats" join)
        { Sim.rounds; messages = 524; words = 950; max_message_words = 3 }
        st)
    [ (3, 28); (6, 31) ]

(* ARQ corner cases on a 2-path under scripted fates.  Each node keeps
   what it is handed, as (round, payload); [got v] lists node [v]'s in
   arrival order.  Node 0 queues [payloads] for node 1 before round 1,
   and [before r] runs ahead of step [r].  With the fixed timer the
   transmissions of node 0's first seq go out at rounds 1, 4, 10, 22,
   46, 78, ..., 302, and the thirteenth timeout abandons it at round
   334.  A frame sent at round [r] has its fate scripted at [r + 1]. *)
let arq_2path ?(before = fun _ _ -> ()) events payloads ~rounds =
  let tracer = Trace.create () in
  let rt =
    Reliable.create ~faults:(Fault.scripted events) ~tracer
      ~words:(fun _ -> 1)
      (Gen.path 2)
  in
  let kept = Array.make 2 [] in
  let receive v ~senders:_ ~payloads k =
    for i = 0 to k - 1 do
      kept.(v) <- (Sim.round (Reliable.net rt), payloads.(i)) :: kept.(v)
    done
  in
  Reliable.start rt 0 [];
  Reliable.start rt 1 [];
  List.iter (fun m -> Reliable.send rt ~src:0 ~dst:1 m) payloads;
  for r = 1 to rounds do
    before rt r;
    Reliable.step rt ~receive ~landed:ignore ~suspect:no_suspect
  done;
  let sends src =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.kind = Trace.Send && e.Trace.src = src then
          Some (e.Trace.round, e.Trace.words)
        else None)
      (Trace.events tracer)
  in
  (rt, sends, fun v -> List.rev kept.(v))

let seq0_sends = [ 1; 4; 10; 22; 46; 78; 110; 142; 174; 206; 238; 270; 302 ]
let fate_ev round kind = { Trace.round; kind; src = 0; dst = 1; words = 2 }
let pairs = Alcotest.(list (pair int int))

let test_arq_two_acks_one_reply () =
  (* Seq 0's first copy is held 5 rounds and lands beside seq 1 at
     round 7, after the retransmission was delivered and acked: node
     1's reply acks both, at 1 word per ack, plus 1 word of seq and
     the payload when it carries data. *)
  let events = [ fate_ev 2 (Trace.Delay 5) ] in
  let _, sends, got = arq_2path events [ 10; 11 ] ~rounds:10 in
  Alcotest.check pairs "each payload once" [ (5, 10); (7, 11) ] (got 1);
  Alcotest.check pairs "two acks cost 2 words" [ (5, 1); (7, 2) ] (sends 1);
  let before rt r = if r = 7 then Reliable.send rt ~src:1 ~dst:0 99 in
  let rt, sends, got = arq_2path ~before events [ 10; 11 ] ~rounds:10 in
  Alcotest.check pairs "two acks and data cost 4 words" [ (5, 1); (7, 4) ]
    (sends 1);
  Alcotest.check pairs "node 0 gets the reply" [ (8, 99) ] (got 0);
  checkb "both seqs acked" true (Reliable.idle rt ~round:11)

let test_arq_abandoned_seq_arrives_late () =
  (* Every copy of seq 0 is lost but the first, which is duplicated and
     held until round 400: seq 0 is abandoned at round 334, seq 1 is
     delivered at 335, and then both copies of seq 0 land.  The
     program gets seq 1, then seq 0, each once. *)
  let events =
    fate_ev 2 Trace.Dup
    :: fate_ev 2 (Trace.Delay 398)
    :: List.map
         (fun r -> fate_ev (r + 1) (Trace.Drop Trace.Loss))
         (List.tl seq0_sends)
  in
  let rt, sends, got = arq_2path events [ 10; 11 ] ~rounds:405 in
  Alcotest.check pairs "seq 1, then the abandoned seq 0" [ (335, 11); (400, 10) ]
    (got 1);
  Alcotest.check pairs "one ack word per distinct seq" [ (335, 1); (400, 1) ]
    (sends 1);
  let ep = Reliable.endpoint rt 0 in
  checki "twelve retransmissions" 12 (Reliable.retransmissions ep);
  checki "one dead letter" 1 (Reliable.dead_letters ep);
  checkb "nothing left" true (Reliable.idle rt ~round:406)

let test_arq_late_ack_of_abandoned_seq () =
  (* Only seq 0's last copy gets through (round 303), and its ack is
     held until round 336, after the abandonment started seq 1 at 334.
     Seq 1's first copy is lost; the stale ack must not complete it,
     so seq 1 goes out again at its timeout, round 337. *)
  let events =
    { Trace.round = 304; kind = Trace.Delay 32; src = 1; dst = 0; words = 1 }
    :: fate_ev 335 (Trace.Drop Trace.Loss)
    :: List.filter_map
         (fun r ->
           if r = 302 then None
           else Some (fate_ev (r + 1) (Trace.Drop Trace.Loss)))
         seq0_sends
  in
  let rt, sends, got = arq_2path events [ 10; 11 ] ~rounds:345 in
  Alcotest.check pairs "seq 0 at 303, seq 1 after its retransmission"
    [ (303, 10); (338, 11) ]
    (got 1);
  Alcotest.check pairs "seq 1 sent at 334 and again at 337"
    [ (302, 2); (334, 2); (337, 2) ]
    (List.filter (fun (r, _) -> r >= 300) (sends 0));
  let ep = Reliable.endpoint rt 0 in
  checki "twelve retries of seq 0, one of seq 1" 13
    (Reliable.retransmissions ep);
  checki "one dead letter" 1 (Reliable.dead_letters ep)

let test_arq_reset_peer_restarts_seqs () =
  (* Seq 0 carries 10.  A reset of the sender alone restarts its seqs,
     and the receiver swallows the new seq 0 (20) as a duplicate; after
     a reset of both endpoints the next seq 0 (30) is delivered. *)
  let before rt r =
    let reset v w =
      Reliable.reset_peer (Reliable.endpoint rt v) ~round:(r - 1) w
    in
    if r = 4 then begin
      reset 0 1;
      Reliable.send rt ~src:0 ~dst:1 20
    end
    else if r = 7 then begin
      reset 0 1;
      reset 1 0;
      Reliable.send rt ~src:0 ~dst:1 30
    end
  in
  let rt, sends, got = arq_2path ~before [] [ 10 ] ~rounds:9 in
  Alcotest.check pairs "10, then 30" [ (2, 10); (8, 30) ] (got 1);
  Alcotest.check pairs "every seq 0 acked" [ (2, 1); (5, 1); (8, 1) ] (sends 1);
  checkb "nothing left" true (Reliable.idle rt ~round:10)

(* Allocation gates.  Minor words are exact for a build, so each gate
   is a deterministic count. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let test_idle_sim_step_allocates_nothing () =
  let g = Gen.path 2 in
  let lossy =
    Fault.make ~seed:1 ~graph:g
      {
        Fault.default_spec with
        Fault.drop = 0.2;
        dup = 0.1;
        delay = 0.3;
        max_delay = 4;
        crashes = [ (1, 5_000) ];
        restarts = [ (1, 6_000) ];
      }
  in
  List.iter
    (fun (name, faults) ->
      let t : unit Sim.t = Sim.create ~faults g in
      let deliver ~dst:_ ~src:_ () = () in
      ignore (Sim.step t deliver);
      checki (name ^ ": 1,000 idle steps") 0
        (minor_words (fun () ->
             for _ = 1 to 1_000 do
               ignore (Sim.step t deliver)
             done)))
    [ ("loss-free", Fault.none); ("lossy", lossy) ]

(* A 2-path ARQ run with both nodes started and nothing sent. *)
let quiet_2path () =
  let rt = Reliable.create ~words:(fun _ -> 1) (Gen.path 2) in
  Reliable.start rt 0 [];
  Reliable.start rt 1 [];
  rt

let test_idle_arq_step_allocates_nothing () =
  let rt = quiet_2path () in
  let step () =
    Reliable.step rt ~receive:no_receive ~landed:ignore ~suspect:no_suspect
  in
  step ();
  checki "a step with no mail and no due timer" 0
    (minor_words step)

let test_arq_exchange_words_per_message () =
  (* Node 0 queues [k] messages for node 1 over a loss-free link; the
     exchange runs until idle.  The difference between 2,000 and 1,000
     messages is the marginal cost of the delivered messages: each
     costs its data frame and its ack frame, 5 words apiece, and the
     runtime may add nothing per frame.  The buffers that grow with
     [k] are large enough to live outside the minor heap. *)
  let exchange k =
    minor_words (fun () ->
        let rt = quiet_2path () in
        for m = 1 to k do
          Reliable.send rt ~src:0 ~dst:1 m
        done;
        while not (Reliable.idle rt ~round:(Sim.round (Reliable.net rt) + 1)) do
          Reliable.step rt ~receive:no_receive ~landed:ignore
            ~suspect:no_suspect
        done)
  in
  let extra = exchange 2_000 - exchange 1_000 in
  checkb
    (Printf.sprintf "%d words for 1,000 more messages, at most 10 each" extra)
    true (extra <= 10_000)

let test_skeleton_pump_skips_idle_nodes () =
  (* The ARQ runtime visits only the nodes with mail, an outbox or a
     due timer, so the per-node timer sweep runs on a small share of
     the node-rounds; a driver that visits every node every round
     enters it about n times a round. *)
  let n = 250 in
  let g =
    Gen.connected_gnp (Util.Prng.create ~seed:1) ~n
      ~p:(8. /. float_of_int n)
  in
  let faults =
    Fault.make ~seed:1
      {
        Fault.default_spec with
        Fault.drop = 0.2;
        crashes = [ (3, 40); (11, 120); (17, 300) ];
      }
  in
  let prof = Obs.Prof.create () in
  Obs.Prof.set_current prof;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Prof.set_current Obs.Prof.disabled)
      (fun () -> Spanner.Skeleton_dist.build ~faults ~seed:1 g)
  in
  let sweeps_of prof =
    List.fold_left
      (fun acc (row : Obs.Prof.row) ->
        if row.Obs.Prof.name = "arq_timer_sweep" then acc + row.Obs.Prof.count
        else acc)
      0 (Obs.Prof.rows prof)
  in
  let sweeps = sweeps_of prof in
  let budget = n * r.Spanner.Skeleton_dist.stats.Sim.rounds / 10 in
  checkb
    (Printf.sprintf "skeleton: %d timer sweeps < n * rounds / 10 = %d" sweeps
       budget)
    true (sweeps < budget);
  (* The reference protocols run on the same runtime. *)
  let prof = Obs.Prof.create () in
  Obs.Prof.set_current prof;
  let stats, _ =
    Fun.protect
      ~finally:(fun () -> Obs.Prof.set_current Obs.Prof.disabled)
      (fun () ->
        Protocols.reliable_bfs
          ~faults:
            (Fault.make ~seed:32 { Fault.default_spec with Fault.drop = 0.2 })
          g ~root:0)
  in
  let sweeps = sweeps_of prof in
  let budget = n * stats.Sim.rounds / 10 in
  checkb
    (Printf.sprintf "reliable_bfs: %d timer sweeps < n * rounds / 10 = %d"
       sweeps budget)
    true (sweeps < budget)

let suite =
  [
    ( "distnet.engine",
      [
        Alcotest.test_case "send requires link" `Quick test_send_requires_link;
        Alcotest.test_case "one per edge per round" `Quick test_send_one_per_edge_per_round;
        Alcotest.test_case "word accounting" `Quick test_word_accounting;
        Alcotest.test_case "positive words" `Quick test_positive_words_required;
        Alcotest.test_case "quiescence" `Quick test_quiescence;
        Alcotest.test_case "relay chain rounds" `Quick test_relay_chain_rounds;
      ] );
    ( "distnet.bfs",
      [
        Alcotest.test_case "matches sequential" `Quick test_dist_bfs_matches_sequential;
        Alcotest.test_case "rounds ~ eccentricity" `Quick test_dist_bfs_rounds;
        Alcotest.test_case "disconnected" `Quick test_dist_bfs_disconnected;
        QCheck_alcotest.to_alcotest prop_dist_bfs_equals_sequential;
      ] );
    ( "distnet.flood",
      [
        Alcotest.test_case "reaches component" `Quick test_flood_reaches_component;
        Alcotest.test_case "tree message count" `Quick test_flood_message_count_on_tree;
      ] );
    ( "distnet.faults",
      [
        Alcotest.test_case "zero rates identical" `Quick
          test_zero_fault_plan_identical;
        Alcotest.test_case "drop loses messages" `Quick test_drop_loses_messages;
        Alcotest.test_case "dup delivers twice" `Quick test_dup_delivers_twice;
        Alcotest.test_case "delay holds messages" `Quick test_delay_holds_messages;
        Alcotest.test_case "crash stops node" `Quick test_crash_stops_node;
        Alcotest.test_case "budget failure reports stats" `Quick
          test_budget_failure_reports_stats;
        QCheck_alcotest.to_alcotest prop_zero_fault_plan_identical;
        Alcotest.test_case "delivery order contract" `Quick
          test_delivery_order_contract;
        Alcotest.test_case "budget text contract" `Quick
          test_budget_text_contract;
        QCheck_alcotest.to_alcotest prop_fault_node_queries_match_schedules;
      ] );
    ( "distnet.reliable",
      [
        Alcotest.test_case "loss-free matches bfs" `Quick
          test_reliable_bfs_loss_free_matches;
        Alcotest.test_case "bfs under 20% drop" `Quick test_reliable_bfs_under_drop;
        Alcotest.test_case "flood under chaos" `Quick test_reliable_flood_under_chaos;
        Alcotest.test_case "pinned fault plans" `Quick
          test_reliable_pinned_plans;
        Alcotest.test_case "root must be a vertex" `Quick
          test_protocols_reject_bad_root;
        Alcotest.test_case "two acks in one reply" `Quick
          test_arq_two_acks_one_reply;
        Alcotest.test_case "abandoned seq arrives late" `Quick
          test_arq_abandoned_seq_arrives_late;
        Alcotest.test_case "late ack of an abandoned seq" `Quick
          test_arq_late_ack_of_abandoned_seq;
        Alcotest.test_case "reset_peer restarts seqs" `Quick
          test_arq_reset_peer_restarts_seqs;
        QCheck_alcotest.to_alcotest prop_reliable_bfs_under_drop;
      ] );
    ( "distnet.trace",
      [
        Alcotest.test_case "replay reproduces stats" `Quick
          test_trace_replay_reproduces_stats;
        Alcotest.test_case "save/load roundtrip" `Quick
          test_trace_save_load_roundtrip;
        Alcotest.test_case "parse error: truncated tail" `Quick
          test_trace_parse_error_truncated;
        Alcotest.test_case "parse error: garbage lines" `Quick
          test_trace_parse_error_garbage;
        QCheck_alcotest.to_alcotest prop_trace_replay_identical;
      ] );
    ( "distnet.recovery",
      [
        Alcotest.test_case "detector precedence" `Quick test_recovery_detector;
        Alcotest.test_case "detector unsuspect after message" `Quick
          test_detector_unsuspect_after_message;
        Alcotest.test_case "ARQ link idleness" `Quick test_reliable_link_idle;
      ] );
    ( "distnet.arq_config",
      [
        Alcotest.test_case "backoff escalation metric" `Quick
          test_arq_backoff_escalation_metric;
      ] );
    ( "distnet.arq_timers",
      [
        Alcotest.test_case "due at exactly the timeouts" `Quick
          test_arq_due_schedule;
        Alcotest.test_case "write-offs in visit and peer order" `Quick
          test_arq_writeoff_order;
        Alcotest.test_case "late joiner counts from its join" `Quick
          test_arq_late_joiner_timers;
        Alcotest.test_case "skeleton pump skips idle nodes" `Quick
          test_skeleton_pump_skips_idle_nodes;
      ] );
    ( "distnet.alloc",
      [
        Alcotest.test_case "idle Sim.step allocates nothing" `Quick
          test_idle_sim_step_allocates_nothing;
        Alcotest.test_case "idle ARQ step allocates nothing" `Quick
          test_idle_arq_step_allocates_nothing;
        Alcotest.test_case "ARQ words per delivered message" `Quick
          test_arq_exchange_words_per_message;
      ] );
    ( "distnet.churn",
      [
        Alcotest.test_case "plan validation rejects nonsense" `Quick
          test_fault_make_rejects_invalid_plans;
        Alcotest.test_case "link down + heal semantics" `Quick
          test_churn_link_down_and_heal;
        Alcotest.test_case "in-flight dropped on down edge" `Quick
          test_churn_inflight_dropped_on_down_edge;
        Alcotest.test_case "healed partition BFS correct" `Quick
          test_churn_healed_partition_bfs_correct;
        Alcotest.test_case "late join flood reaches all" `Quick
          test_churn_late_join_flood_reaches_all;
      ] );
    ( "distnet.restart",
      [
        Alcotest.test_case "plan validation rejects nonsense" `Quick
          test_restart_plan_validation;
        Alcotest.test_case "down interval and incarnations" `Quick
          test_restart_interval_semantics;
        Alcotest.test_case "trace replay with restart" `Quick
          test_trace_replay_with_restart;
      ] );
  ]
