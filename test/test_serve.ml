(* Tests for the query-serving subsystem: snapshots, workloads, the
   swap-capable server, and the answer audit. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Edge_set = Graphlib.Edge_set
module Snapshot = Serve.Snapshot
module Workload = Serve.Workload
module Server = Serve.Server

let rng () = Util.Prng.create ~seed:2008

let all_edges g = List.init (G.m g) (fun e -> e)

let spanner_of g =
  (Spanner.Skeleton.build ~seed:3 g).Spanner.Skeleton.spanner

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_freezes_spanner () =
  let g = Gen.connected_gnp (rng ()) ~n:120 ~p:0.06 in
  let s = spanner_of g in
  let snap = Snapshot.build ~k:2 ~seed:1 g s in
  checki "all spanner edges survive" (Edge_set.cardinal s) (Snapshot.edges snap);
  checki "same vertex count" (G.n g) (Snapshot.n snap);
  checki "generation defaults to 0" 0 (Snapshot.generation snap);
  checkb "no routing tables unless asked" false (Snapshot.has_routing snap)

let test_snapshot_exclude () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let s = Edge_set.of_list g (all_edges g) in
  let dead = match G.find_edge g 1 2 with Some e -> e | None -> assert false in
  let snap = Snapshot.build ~k:1 ~seed:1 ~exclude:[ dead ] g s in
  checki "one edge excluded" (G.m g - 1) (Snapshot.edges snap);
  (* With 1-2 gone the cycle is a path 1-0-3-2. *)
  checki "distance reroutes around the dead edge" 3 (Snapshot.distance snap 1 2)

let test_snapshot_stretch_vs_bfs () =
  let g = Gen.connected_gnp (rng ()) ~n:100 ~p:0.07 in
  let k = 2 in
  let snap = Snapshot.build ~k ~seed:5 g (spanner_of g) in
  let h = Snapshot.graph snap in
  for src = 0 to 19 do
    let exact = Graphlib.Bfs.distances h ~src in
    for v = 0 to G.n g - 1 do
      let est = Snapshot.distance snap src v in
      checkb
        (Printf.sprintf "d(%d,%d)=%d est %d within (2k-1)" src v exact.(v) est)
        true
        (est >= exact.(v) && est <= ((2 * k) - 1) * exact.(v))
    done
  done

let test_snapshot_deterministic () =
  let g = Gen.connected_gnp (rng ()) ~n:80 ~p:0.08 in
  let s = spanner_of g in
  let a = Snapshot.build ~k:2 ~seed:7 g s in
  let b = Snapshot.build ~k:2 ~seed:7 g s in
  for u = 0 to 79 do
    for v = 0 to 79 do
      checki "same answers from same params" (Snapshot.distance a u v)
        (Snapshot.distance b u v)
    done
  done

let test_snapshot_save_load () =
  let g = Gen.connected_gnp (rng ()) ~n:60 ~p:0.1 in
  let snap =
    Snapshot.build ~generation:3 ~k:2 ~seed:9 ~routing:true g (spanner_of g)
  in
  let file = Filename.temp_file "snap" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Snapshot.save snap file;
      let back = Snapshot.load file in
      checki "generation survives" 3 (Snapshot.generation back);
      checki "edges survive" (Snapshot.edges snap) (Snapshot.edges back);
      checki "oracle k survives" (Snapshot.oracle_k snap) (Snapshot.oracle_k back);
      checkb "routing flag survives" true (Snapshot.has_routing back);
      for u = 0 to 59 do
        for v = 0 to 59 do
          checki "identical answers after reload" (Snapshot.distance snap u v)
            (Snapshot.distance back u v);
          checki "identical routes after reload"
            (Snapshot.route_hops snap u v)
            (Snapshot.route_hops back u v)
        done
      done)

(* Corruption detection: the load path must refuse a truncated or
   bit-flipped file with a structured one-line error, and a save must
   never leave its temp file behind. *)

let expect_load_failure name file pattern =
  match Snapshot.load file with
  | _ -> Alcotest.failf "%s: load accepted a damaged snapshot" name
  | exception Util.Lines.Parse_error { file = f; line; msg } ->
      checkb (name ^ ": error names the file") true (f = file);
      (* every check here is on the header's declarations *)
      checki (name ^ ": error cites the header line") 1 line;
      checkb
        (Printf.sprintf "%s: error mentions %s (got %S)" name pattern msg)
        true
        (let plen = String.length pattern in
         let rec scan i =
           i + plen <= String.length msg
           && (String.sub msg i plen = pattern || scan (i + 1))
         in
         scan 0);
      checkb (name ^ ": error is one line") false (String.contains msg '\n')

let with_saved_snapshot f =
  let g = Gen.connected_gnp (rng ()) ~n:40 ~p:0.12 in
  let snap = Snapshot.build ~k:2 ~seed:4 g (spanner_of g) in
  let file = Filename.temp_file "snap" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Snapshot.save snap file;
      checkb "no temp file left behind" false (Sys.file_exists (file ^ ".tmp"));
      f file)

let test_snapshot_load_truncated () =
  with_saved_snapshot (fun file ->
      let full = In_channel.with_open_bin file In_channel.input_all in
      (* Cut mid-body: keep the header and half the edge list. *)
      let cut = String.length full - (String.length full / 3) in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      expect_load_failure "truncated" file "truncated snapshot")

let test_snapshot_load_corrupted () =
  with_saved_snapshot (fun file ->
      let full = In_channel.with_open_bin file In_channel.input_all in
      (* Flip one bit in a body byte (past the header line). *)
      let body_at = String.index full '\n' + 1 in
      let bytes = Bytes.of_string full in
      Bytes.set bytes (body_at + 2)
        (Char.chr (Char.code (Bytes.get bytes (body_at + 2)) lxor 1));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc bytes);
      expect_load_failure "corrupted" file "checksum mismatch")

let test_snapshot_load_missing_checksum () =
  with_saved_snapshot (fun file ->
      (* An old-format header without sum=/bytes= must be rejected, not
         silently trusted. *)
      let full = In_channel.with_open_bin file In_channel.input_all in
      let body_at = String.index full '\n' + 1 in
      let body = String.sub full body_at (String.length full - body_at) in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc "#snapshot gen=0 k=2 seed=4 routing=0\n";
          Out_channel.output_string oc body);
      expect_load_failure "no checksum" file "missing sum")

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_deterministic () =
  let spec = { Workload.queries = 400; zipf = Some 1.1; route_frac = 0.3 } in
  let a = Workload.generate ~seed:5 ~n:50 spec in
  let b = Workload.generate ~seed:5 ~n:50 spec in
  checkb "same seed, same workload" true (a = b);
  checkb "different seed differs" true
    (Workload.generate ~seed:6 ~n:50 spec <> a)

let test_workload_route_frac () =
  let gen frac =
    Workload.route_count
      (Workload.generate ~seed:2 ~n:30
         { Workload.queries = 1000; zipf = None; route_frac = frac })
  in
  checki "frac 0: no routes" 0 (gen 0.);
  checki "frac 1: all routes" 1000 (gen 1.);
  let half = gen 0.5 in
  checkb (Printf.sprintf "frac 0.5: %d near 500" half) true
    (half > 400 && half < 600)

let test_workload_zipf_skews_sources () =
  let n = 100 in
  let count w =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun q ->
        Hashtbl.replace tbl q.Workload.src
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl q.Workload.src)))
      w;
    Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) tbl 0
  in
  let uniform =
    Workload.generate ~seed:4 ~n
      { Workload.queries = 5000; zipf = None; route_frac = 0. }
  in
  let zipf =
    Workload.generate ~seed:4 ~n
      { Workload.queries = 5000; zipf = Some 1.4; route_frac = 0. }
  in
  let mu = count uniform and mz = count zipf in
  checkb
    (Printf.sprintf "hottest zipf source (%d) much hotter than uniform (%d)"
       mz mu)
    true
    (mz > 2 * mu)

let test_workload_save_load () =
  let w =
    Workload.generate ~seed:8 ~n:40
      { Workload.queries = 200; zipf = Some 0.8; route_frac = 0.25 }
  in
  let file = Filename.temp_file "workload" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Workload.save w file;
      checkb "round trip" true (Workload.load ~n:40 file = w);
      (* A smaller vertex universe must reject the same file, at the
         first query outside it (line 1 is the header). *)
      let first_out =
        let rec find i =
          if w.(i).Workload.src >= 10 || w.(i).Workload.dst >= 10 then i
          else find (i + 1)
        in
        find 0
      in
      match Workload.load ~n:10 file with
      | _ -> Alcotest.fail "range not validated on load"
      | exception Util.Lines.Parse_error { file = f; line; msg } ->
          checkb "error names the file" true (f = file);
          checki "error cites the first out-of-range query" (first_out + 2)
            line;
          checkb "error names the check" true
            (String.starts_with ~prefix:"vertex out of range" msg))

(* ------------------------------------------------------------------ *)
(* Server *)

let make_server ?metrics n =
  let g = Gen.connected_gnp (rng ()) ~n ~p:0.08 in
  let snap = Snapshot.build ~k:2 ~seed:1 g (spanner_of g) in
  (g, Server.create ?metrics snap)

let test_server_serves_all_fresh () =
  let _, srv = make_server 60 in
  let w =
    Workload.generate ~seed:3 ~n:60
      { Workload.queries = 500; zipf = None; route_frac = 0. }
  in
  let r = Server.run srv w in
  checki "answered all" 500 r.Server.answered;
  checki "none stale" 0 r.Server.stale;
  checki "none failed (connected graph)" 0 r.Server.failed;
  checki "latency per query" 500 (Array.length r.Server.latency_sorted);
  match r.Server.by_generation with
  | [ (0, 500, 0) ] -> ()
  | _ -> Alcotest.fail "single fresh generation expected"

let test_server_swap_and_staleness () =
  let g, srv = make_server 60 in
  let w =
    Workload.generate ~seed:3 ~n:60
      { Workload.queries = 300; zipf = None; route_frac = 0. }
  in
  let r1 = Server.run ~first:0 ~count:100 srv w in
  Server.mark_dirty srv;
  let r2 = Server.run ~first:100 ~count:100 srv w in
  checki "answers stale after mark_dirty" 100 r2.Server.stale;
  checki "epoch moved ahead of generation" 1 (Server.epoch srv);
  let next =
    Snapshot.build ~generation:1 ~k:2 ~seed:1 g (spanner_of g)
  in
  Server.publish srv next;
  checki "one swap" 1 (Server.swaps srv);
  let r3 = Server.run ~first:200 ~count:100 srv w in
  checki "fresh again after publish" 0 r3.Server.stale;
  let m = Server.merge [ r1; r2; r3 ] in
  checki "merge answered" 300 m.Server.answered;
  checki "merge stale" 100 m.Server.stale;
  checki "merge failed" 0 m.Server.failed;
  checki "merge latencies" 300 (Array.length m.Server.latency_sorted);
  (match m.Server.by_generation with
  | [ (0, 100, 100); (1, 100, 0) ] -> ()
  | _ -> Alcotest.fail "per-generation tallies wrong");
  (* Monotonic generations are enforced. *)
  checkb "non-increasing publish rejected" true
    (try
       Server.publish srv (Snapshot.build ~generation:1 ~k:2 ~seed:1 g (spanner_of g));
       false
     with Invalid_argument _ -> true);
  (* The same flow as one call, on a fresh server: [rebuild] runs once,
     while the second third is being served stale. *)
  let g, srv = make_server 60 in
  let rebuilds = ref [] in
  let rebuild () =
    rebuilds := (Server.epoch srv, Server.generation srv) :: !rebuilds;
    Snapshot.build ~generation:1 ~k:2 ~seed:1 g (spanner_of g)
  in
  let m = Server.run_swap srv w ~rebuild in
  checkb "rebuild ran once at epoch 1, generation 0" true
    (!rebuilds = [ (1, 0) ]);
  checki "run_swap stale" 100 m.Server.stale;
  checki "run_swap one swap" 1 (Server.swaps srv);
  match m.Server.by_generation with
  | [ (0, 100, 100); (1, 100, 0) ] -> ()
  | _ -> Alcotest.fail "run_swap per-generation tallies wrong"

let test_server_failed_counts_disconnected () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let snap = Snapshot.of_graph ~k:2 ~seed:1 g in
  let srv = Server.create snap in
  let w =
    [|
      { Workload.src = 0; dst = 1; route = false };
      { Workload.src = 0; dst = 2; route = false };
      { Workload.src = 1; dst = 3; route = false };
    |]
  in
  let r = Server.run srv w in
  checki "cross-component queries fail" 2 r.Server.failed

let test_server_metrics_sink () =
  let metrics = Obs.Metrics.create () in
  let g, srv = make_server ~metrics 40 in
  let w =
    Workload.generate ~seed:9 ~n:40
      { Workload.queries = 120; zipf = None; route_frac = 0. }
  in
  ignore (Server.run ~first:0 ~count:60 srv w);
  Server.mark_dirty srv;
  Server.publish srv (Snapshot.build ~generation:1 ~k:2 ~seed:1 g (spanner_of g));
  ignore (Server.run ~first:60 ~count:60 srv w);
  let rows = Obs.Report.serve_rows (Obs.Metrics.snapshot metrics) in
  match rows with
  | [ g0; g1 ] ->
      checki "gen0 row" 0 g0.Obs.Report.generation;
      checki "gen0 fresh answers" 60 g0.Obs.Report.fresh;
      checki "gen1 answers" 60 g1.Obs.Report.fresh;
      checkb "gen0 latency histogram recorded" true
        (match g0.Obs.Report.latency with
        | Some h -> h.Obs.Metrics.count = 60
        | None -> false);
      checkb "gen1 latency histogram recorded" true
        (match g1.Obs.Report.latency with
        | Some h -> h.Obs.Metrics.count = 60
        | None -> false)
  | _ -> Alcotest.fail "expected one serve row per generation"

(* ------------------------------------------------------------------ *)
(* Audit *)

let test_audit_passes_on_honest_snapshot () =
  let g = Gen.connected_gnp (rng ()) ~n:90 ~p:0.07 in
  let snap = Snapshot.build ~k:2 ~seed:2 ~routing:true g (spanner_of g) in
  let w =
    Workload.generate ~seed:6 ~n:90
      { Workload.queries = 600; zipf = Some 1.2; route_frac = 0.3 }
  in
  let a = Server.audit ~samples:128 ~seed:4 snap w in
  checkb "audit passes" true (Server.audit_ok a);
  checki "sampled as asked" 128 a.Server.sampled;
  checkb "max stretch within the oracle bound" true
    (a.Server.max_stretch <= a.Server.dist_bound +. 1e-9)

let test_audit_disconnected_pairs () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let snap = Snapshot.of_graph ~k:2 ~seed:1 g in
  let w =
    [|
      { Workload.src = 0; dst = 3; route = false };
      { Workload.src = 0; dst = 2; route = false };
      { Workload.src = 4; dst = 1; route = false };
    |]
  in
  let a = Server.audit ~samples:3 ~seed:1 snap w in
  checkb "disconnected answers audited as correct" true (Server.audit_ok a)

let prop_serve_respects_stretch =
  QCheck.Test.make
    ~name:"serve: sampled answers within the oracle stretch bound" ~count:8
    QCheck.(int_range 20 60)
    (fun n ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed:n) ~n ~p:0.12 in
      let snap = Snapshot.build ~k:2 ~seed:(n + 1) g (spanner_of g) in
      let w =
        Workload.generate ~seed:(n + 2) ~n
          { Workload.queries = 200; zipf = None; route_frac = 0. }
      in
      Server.audit_ok (Server.audit ~samples:64 ~seed:(n + 3) snap w))

(* ------------------------------------------------------------------ *)
(* Merge and allocation *)

(* Hand-built batch reports: latencies with zeros, duplicates and
   counts above 2^33, each report's sorted as [run] leaves it. *)
let latency_ns =
  QCheck.Gen.(
    oneof
      [ return 0; int_range 1 3; int_range 0 5_000; map (fun x -> (1 lsl 33) + x) (int_range 0 9) ])

let prop_merge_sorts_concatenation =
  QCheck.Test.make ~name:"serve: merge = sorted concatenation of the latencies"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 0 4) (pair (int_range 0 3) (list_size (int_range 0 60) latency_ns))))
    (fun batches ->
      let reports =
        List.map
          (fun (gen, ns) ->
            let lat = Array.of_list (List.map float_of_int (List.sort compare ns)) in
            let len = Array.length lat in
            {
              Server.answered = len;
              failed = 0;
              stale = 0;
              elapsed_ns = len;
              latency_sorted = lat;
              by_generation = (if len = 0 then [] else [ (gen, len, 0) ]);
            })
          batches
      in
      let m = Server.merge reports in
      let all = List.concat_map snd batches in
      let answered g =
        List.fold_left
          (fun a (g', ns) -> if g' = g then a + List.length ns else a)
          0 batches
      in
      let gens =
        List.sort_uniq compare
          (List.filter_map (fun (g, ns) -> if ns = [] then None else Some g) batches)
      in
      Array.to_list m.Server.latency_sorted
      = List.map float_of_int (List.sort compare all)
      && m.Server.answered = List.length all
      && m.Server.by_generation = List.map (fun g -> (g, answered g, 0)) gens)

(* The reads the serving hot path makes, counted in minor words after a
   [Gc.minor]: a per-read closure or option would show here. *)
let test_reads_allocate_nothing () =
  let n = 2_000 in
  let g =
    Gen.connected_gnp (Util.Prng.create ~seed:1) ~n ~p:(8. /. float_of_int n)
  in
  let snap = Snapshot.of_graph ~k:2 ~seed:1 ~routing:true g in
  let rng = Util.Prng.create ~seed:2 in
  let us = Array.init 10_000 (fun _ -> Util.Prng.int rng n) in
  let vs = Array.init 10_000 (fun _ -> Util.Prng.int rng n) in
  let minor_words f =
    Gc.minor ();
    let before = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. before)
  in
  checki "10,000 distance reads" 0
    (minor_words (fun () ->
         for i = 0 to 9_999 do
           ignore (Snapshot.distance snap us.(i) vs.(i))
         done));
  checki "10,000 route reads" 0
    (minor_words (fun () ->
         for i = 0 to 9_999 do
           ignore (Snapshot.route_hops snap us.(i) vs.(i))
         done))

let suite =
  [
    ( "serve.snapshot",
      [
        Alcotest.test_case "freezes the spanner" `Quick test_snapshot_freezes_spanner;
        Alcotest.test_case "excludes dead edges" `Quick test_snapshot_exclude;
        Alcotest.test_case "stretch vs BFS" `Quick test_snapshot_stretch_vs_bfs;
        Alcotest.test_case "deterministic" `Quick test_snapshot_deterministic;
        Alcotest.test_case "save/load round trip" `Quick test_snapshot_save_load;
        Alcotest.test_case "load rejects truncation" `Quick
          test_snapshot_load_truncated;
        Alcotest.test_case "load rejects corruption" `Quick
          test_snapshot_load_corrupted;
        Alcotest.test_case "load rejects missing checksum" `Quick
          test_snapshot_load_missing_checksum;
      ] );
    ( "serve.workload",
      [
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "route fraction" `Quick test_workload_route_frac;
        Alcotest.test_case "zipf skews sources" `Quick test_workload_zipf_skews_sources;
        Alcotest.test_case "save/load round trip" `Quick test_workload_save_load;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "all fresh" `Quick test_server_serves_all_fresh;
        Alcotest.test_case "swap and staleness" `Quick test_server_swap_and_staleness;
        Alcotest.test_case "failed = disconnected" `Quick
          test_server_failed_counts_disconnected;
        Alcotest.test_case "metrics sink" `Quick test_server_metrics_sink;
        QCheck_alcotest.to_alcotest prop_merge_sorts_concatenation;
      ] );
    ( "serve.audit",
      [
        Alcotest.test_case "honest snapshot passes" `Quick
          test_audit_passes_on_honest_snapshot;
        Alcotest.test_case "disconnected pairs" `Quick test_audit_disconnected_pairs;
        QCheck_alcotest.to_alcotest prop_serve_respects_stretch;
      ] );
    ( "serve.alloc",
      [
        Alcotest.test_case "distance and route reads allocate nothing" `Quick
          test_reads_allocate_nothing;
      ] );
  ]
