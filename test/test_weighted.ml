(* Tests for the weighted substrate and the weighted Baswana–Sen
   spanner. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Bfs = Graphlib.Bfs
module Weighted = Graphlib.Weighted
module Edge_set = Graphlib.Edge_set
module Bsw = Baseline.Baswana_sen_weighted

let rng () = Util.Prng.create ~seed:1202

(* ------------------------------------------------------------------ *)
(* Fheap *)

let test_fheap_sorts () =
  let h = Util.Fheap.create () in
  let r = rng () in
  let keys = Array.init 150 (fun _ -> Util.Prng.float r 100.) in
  Array.iter (fun k -> Util.Fheap.push h ~key:k k) keys;
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iter
    (fun expected ->
      match Util.Fheap.pop_min h with
      | Some (k, _) -> checkf "order" expected k
      | None -> Alcotest.fail "premature empty")
    sorted;
  checkb "empty" true (Util.Fheap.is_empty h)

let test_fheap_sorts_int_keys () =
  let h = Util.Fheap.create () in
  let r = Util.Prng.create ~seed:9 in
  let keys = Array.init 200 (fun _ -> Util.Prng.int r 1000) in
  Array.iter (fun k -> Util.Fheap.push h ~key:(float_of_int k) k) keys;
  checki "length" 200 (Util.Fheap.length h);
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iter
    (fun expected ->
      match Util.Fheap.pop_min h with
      | Some (k, v) ->
          checkf "pop order" (float_of_int expected) k;
          checki "payload" expected v
      | None -> Alcotest.fail "heap empty too early")
    sorted;
  checkb "empty at end" true (Util.Fheap.is_empty h)

let test_fheap_peek () =
  let h = Util.Fheap.create () in
  checkb "peek empty" true (Util.Fheap.peek_min h = None);
  Util.Fheap.push h ~key:5. "five";
  Util.Fheap.push h ~key:2. "two";
  (match Util.Fheap.peek_min h with
  | Some (2., "two") -> ()
  | _ -> Alcotest.fail "peek should see min");
  checki "peek does not pop" 2 (Util.Fheap.length h)

let prop_fheap_matches_sort =
  QCheck.Test.make ~name:"fheap: pop sequence is sorted" ~count:100
    QCheck.(list small_int)
    (fun keys ->
      let h = Util.Fheap.create () in
      List.iter (fun k -> Util.Fheap.push h ~key:(float_of_int k) ()) keys;
      let rec drain acc =
        match Util.Fheap.pop_min h with
        | None -> List.rev acc
        | Some (k, ()) -> drain (int_of_float k :: acc)
      in
      drain [] = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Weighted graphs / Dijkstra *)

let test_unit_weights_match_bfs () =
  let g = Gen.connected_gnp (rng ()) ~n:200 ~p:0.04 in
  let wg = Weighted.unit g in
  let dd = Weighted.distances wg ~src:5 in
  let bd = Bfs.distances g ~src:5 in
  Array.iteri
    (fun v d ->
      if d >= 0 then checkf "unit dijkstra = bfs" (float_of_int d) dd.(v)
      else checkb "unreachable" true (dd.(v) = infinity))
    bd

let test_dijkstra_triangle () =
  (* Triangle with a heavy direct edge: shortest path detours. *)
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let weights = Array.make 3 0. in
  let set a b x =
    match G.find_edge g a b with
    | Some e -> weights.(e) <- x
    | None -> Alcotest.fail "edge"
  in
  set 0 1 1.;
  set 1 2 1.;
  set 0 2 5.;
  let wg = Weighted.of_graph g ~weights in
  let d = Weighted.distances wg ~src:0 in
  checkf "detour wins" 2. d.(2)

let test_weights_validated () =
  let g = Gen.path 3 in
  Alcotest.check_raises "nonpositive rejected"
    (Invalid_argument "Weighted.of_graph: weights must be positive") (fun () ->
      ignore (Weighted.of_graph g ~weights:[| 1.; 0. |]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Weighted.of_graph: one weight per edge required") (fun () ->
      ignore (Weighted.of_graph g ~weights:[| 1. |]))

let test_spanner_distances_restricted () =
  let g = Gen.cycle 6 in
  let wg = Weighted.unit g in
  let s = Edge_set.create g in
  (* keep only 5 of 6 cycle edges: a path *)
  for e = 0 to 4 do
    Edge_set.add s e
  done;
  let d = Weighted.spanner_distances wg s ~src:0 in
  checkb "all reachable" true (Array.for_all (fun x -> x < infinity) d);
  let full = Weighted.distances wg ~src:0 in
  checkb "some distance grew" true (Array.exists2 (fun a b -> a > b) d full)

let test_max_stretch_identity () =
  let g = Gen.connected_gnp (rng ()) ~n:100 ~p:0.06 in
  let wg = Weighted.random (rng ()) g ~lo:1. ~hi:4. in
  let all = Edge_set.of_list g (List.init (G.m g) (fun e -> e)) in
  checkf "identity stretch" 1. (Weighted.max_stretch (rng ()) wg all ~sources:5)

(* ------------------------------------------------------------------ *)
(* Weighted Baswana–Sen *)

let exact_weighted_stretch wg s =
  let g = Weighted.graph wg in
  let worst = ref 1. in
  for src = 0 to G.n g - 1 do
    let dg = Weighted.distances wg ~src and dh = Weighted.spanner_distances wg s ~src in
    for v = 0 to G.n g - 1 do
      if v <> src && dg.(v) < infinity then begin
        checkb "pair preserved" true (dh.(v) < infinity);
        let r = dh.(v) /. dg.(v) in
        if r > !worst then worst := r
      end
    done
  done;
  !worst

let test_bsw_stretch_bound () =
  List.iter
    (fun k ->
      let g = Gen.connected_gnp (rng ()) ~n:80 ~p:0.12 in
      let wg = Weighted.random (rng ()) g ~lo:1. ~hi:8. in
      let r = Bsw.build ~k ~seed:(7 * k) wg in
      let stretch = exact_weighted_stretch wg r.Bsw.spanner in
      checkb
        (Printf.sprintf "k=%d: weighted stretch %.2f <= %d" k stretch ((2 * k) - 1))
        true
        (stretch <= float_of_int ((2 * k) - 1) +. 1e-9))
    [ 1; 2; 3 ]

let test_bsw_k1_exact () =
  let g = Gen.connected_gnp (rng ()) ~n:60 ~p:0.15 in
  let wg = Weighted.random (rng ()) g ~lo:1. ~hi:5. in
  let r = Bsw.build ~k:1 ~seed:3 wg in
  checkf "k=1 keeps the metric" 1. (exact_weighted_stretch wg r.Bsw.spanner)

let test_bsw_sparsifies_dense () =
  (* Weighted K_200: expected size O(k n^{1+1/k}) << n^2/2. *)
  let g = Gen.complete 200 in
  let wg = Weighted.random (rng ()) g ~lo:1. ~hi:100. in
  let r = Bsw.build ~k:2 ~seed:5 wg in
  let size = Edge_set.cardinal r.Bsw.spanner in
  checkb (Printf.sprintf "K200 weighted spanner %d << 19900" size) true (size < 9000);
  let stretch = exact_weighted_stretch wg r.Bsw.spanner in
  checkb "stretch <= 3" true (stretch <= 3. +. 1e-9)

let test_bsw_heavier_weights_no_crash () =
  let g = Gen.king_torus ~width:12 ~height:12 in
  let wg = Weighted.random (rng ()) g ~lo:0.5 ~hi:50. in
  let r = Bsw.build ~k:3 ~seed:11 wg in
  checkb "nonempty" true (Edge_set.cardinal r.Bsw.spanner > 0);
  let stretch = exact_weighted_stretch wg r.Bsw.spanner in
  checkb "stretch <= 5" true (stretch <= 5. +. 1e-9)

let prop_bsw_stretch =
  QCheck.Test.make ~name:"weighted baswana-sen: stretch <= 2k-1" ~count:10
    QCheck.(pair (int_range 20 60) (int_range 1 3))
    (fun (n, k) ->
      let r0 = Util.Prng.create ~seed:(n * k) in
      let g = Gen.connected_gnp r0 ~n ~p:0.15 in
      let wg = Weighted.random r0 g ~lo:1. ~hi:9. in
      let r = Bsw.build ~k ~seed:(n + k) wg in
      let ok = ref true in
      for src = 0 to n - 1 do
        let dg = Weighted.distances wg ~src
        and dh = Weighted.spanner_distances wg r.Bsw.spanner ~src in
        for v = 0 to n - 1 do
          if v <> src && dg.(v) < infinity then
            if dh.(v) = infinity || dh.(v) > (float_of_int ((2 * k) - 1) *. dg.(v)) +. 1e-9
            then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "util.fheap",
      [
        Alcotest.test_case "sorts" `Quick test_fheap_sorts;
        Alcotest.test_case "sorts int keys" `Quick test_fheap_sorts_int_keys;
        Alcotest.test_case "peek" `Quick test_fheap_peek;
        QCheck_alcotest.to_alcotest prop_fheap_matches_sort;
      ] );
    ( "graph.weighted",
      [
        Alcotest.test_case "unit = bfs" `Quick test_unit_weights_match_bfs;
        Alcotest.test_case "dijkstra detour" `Quick test_dijkstra_triangle;
        Alcotest.test_case "validation" `Quick test_weights_validated;
        Alcotest.test_case "spanner restriction" `Quick test_spanner_distances_restricted;
        Alcotest.test_case "identity stretch" `Quick test_max_stretch_identity;
      ] );
    ( "baseline.baswana_sen_weighted",
      [
        Alcotest.test_case "stretch <= 2k-1" `Quick test_bsw_stretch_bound;
        Alcotest.test_case "k=1 exact" `Quick test_bsw_k1_exact;
        Alcotest.test_case "sparsifies K200" `Quick test_bsw_sparsifies_dense;
        Alcotest.test_case "rough weights" `Quick test_bsw_heavier_weights_no_crash;
        QCheck_alcotest.to_alcotest prop_bsw_stretch;
      ] );
  ]
