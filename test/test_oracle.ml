(* Tests for the Thorup–Zwick distance oracle. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Apsp = Graphlib.Apsp
module Oracle = Oracle.Distance_oracle

let rng () = Util.Prng.create ~seed:2005

let check_oracle_against_apsp ~k g oracle =
  let d = Apsp.compute g in
  let n = G.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      match (Oracle.query oracle u v, d.(u).(v)) with
      | Some est, exact ->
          if exact < 0 then
            Alcotest.failf "oracle invented a path %d-%d (est %d)" u v est
          else
            checkb
              (Printf.sprintf "%d-%d: %d within [%d, %d]" u v est exact
                 (((2 * k) - 1) * exact))
              true
              (est >= exact && est <= ((2 * k) - 1) * exact)
      | None, exact ->
          if exact >= 0 then
            Alcotest.failf "oracle missed connected pair %d-%d (exact %d)" u v exact
    done
  done

let test_oracle_exact_k1 () =
  (* k = 1: the bunch of every vertex is its whole component; the
     oracle is exact. *)
  let g = Gen.connected_gnp (rng ()) ~n:60 ~p:0.08 in
  let o = Oracle.build ~k:1 ~seed:4 g in
  let d = Apsp.compute g in
  for u = 0 to 59 do
    for v = 0 to 59 do
      match Oracle.query o u v with
      | Some est -> checki "exact at k=1" d.(u).(v) est
      | None -> Alcotest.fail "connected graph"
    done
  done

let test_oracle_stretch_bounds () =
  List.iter
    (fun k ->
      let g = Gen.connected_gnp (rng ()) ~n:90 ~p:0.06 in
      let o = Oracle.build ~k ~seed:(k * 3) g in
      check_oracle_against_apsp ~k g o)
    [ 2; 3; 4 ]

let test_oracle_disconnected () =
  let g = G.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let o = Oracle.build ~k:2 ~seed:1 g in
  checkb "same component answers" true (Oracle.query o 0 2 <> None);
  checkb "cross components None" true (Oracle.query o 0 3 = None);
  checkb "isolated None" true (Oracle.query o 0 5 = None)

let test_oracle_self () =
  let g = Gen.cycle 10 in
  let o = Oracle.build ~k:2 ~seed:1 g in
  checkb "self distance 0" true (Oracle.query o 4 4 = Some 0)

let test_oracle_symmetry_bound () =
  (* Estimates need not be symmetric, but both directions obey the
     stretch bound. *)
  let g = Gen.king_torus ~width:8 ~height:8 in
  let k = 3 in
  let o = Oracle.build ~k ~seed:9 g in
  check_oracle_against_apsp ~k g o

let test_oracle_space_tradeoff () =
  (* Larger k, smaller oracle: the O(k n^{1+1/k}) tradeoff. *)
  let g = Gen.connected_gnp (rng ()) ~n:1500 ~p:0.02 in
  let size k = Oracle.size (Oracle.build ~k ~seed:5 g) in
  let s1 = size 1 and s3 = size 3 in
  checkb (Printf.sprintf "k=3 (%d) much smaller than k=1 (%d)" s3 s1) true (2 * s3 < s1);
  (* k=1 stores every component-mate: n^2 entries on a connected graph. *)
  checkb "k=1 is quadratic" true (s1 >= 1500 * 1500)

let test_oracle_levels_shape () =
  let g = Gen.connected_gnp (rng ()) ~n:2000 ~p:0.01 in
  let o = Oracle.build ~k:3 ~seed:2 g in
  let lv = Oracle.levels o in
  let count i = Array.fold_left (fun acc l -> if l >= i then acc + 1 else acc) 0 lv in
  checki "A_0 = V" 2000 (count 0);
  let q = 2000. ** (2. /. 3.) in
  checkb "A_1 near n^{2/3}" true
    (float_of_int (count 1) > 0.6 *. q && float_of_int (count 1) < 1.5 *. q)

let test_query_est_agrees () =
  (* The serving fast path: query_est is query with -1 for None. *)
  let g = G.of_edges ~n:8 [ (0, 1); (1, 2); (2, 3); (3, 4); (6, 7) ] in
  let o = Oracle.build ~k:2 ~seed:3 g in
  for u = 0 to 7 do
    for v = 0 to 7 do
      let expected = match Oracle.query o u v with Some d -> d | None -> -1 in
      checki (Printf.sprintf "est %d-%d" u v) expected (Oracle.query_est o u v)
    done
  done

let prop_query_est_agrees =
  QCheck.Test.make ~name:"oracle: query_est = query (-1 for None)" ~count:10
    QCheck.(pair (int_range 15 50) (int_range 1 3))
    (fun (n, k) ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed:(n + (7 * k))) ~n ~p:0.12 in
      let o = Oracle.build ~k ~seed:(n - k) g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let expected =
            match Oracle.query o u v with Some d -> d | None -> -1
          in
          if Oracle.query_est o u v <> expected then ok := false
        done
      done;
      !ok)

let prop_oracle_stretch =
  QCheck.Test.make ~name:"oracle: stretch <= 2k-1 on random graphs" ~count:10
    QCheck.(pair (int_range 15 50) (int_range 2 3))
    (fun (n, k) ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed:(n * k)) ~n ~p:0.12 in
      let o = Oracle.build ~k ~seed:(n + k) g in
      let d = Apsp.compute g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          match Oracle.query o u v with
          | Some est ->
              if not (est >= d.(u).(v) && est <= ((2 * k) - 1) * d.(u).(v)) then ok := false
          | None -> if d.(u).(v) >= 0 then ok := false
        done
      done;
      !ok)

(* The Thorup–Zwick definition, by BFS: w is in B(v) iff
   delta(v,w) < delta(v, A_{levels(w)+1}), stored with delta(v,w).
   [bunch v w] is that distance or -1, [piv] and [pdist] the pivots
   p_i(v) (nearest A_i vertex, -1 if none) and their distances. *)
let tz_definition g ~k levels =
  let n = G.n g in
  let members i = List.filter (fun v -> levels.(v) >= i) (List.init n Fun.id) in
  let forests = Array.init k (fun i -> Graphlib.Bfs.multi_source g ~sources:(members i)) in
  let to_level i v =
    if i >= k || forests.(i).Graphlib.Bfs.dist.(v) < 0 then max_int
    else forests.(i).Graphlib.Bfs.dist.(v)
  in
  let exact = Array.init n (fun v -> Graphlib.Bfs.distances g ~src:v) in
  let bunch v w =
    let d = exact.(v).(w) in
    if d >= 0 && d < to_level (levels.(w) + 1) v then d else -1
  in
  let piv = Array.map (fun f -> f.Graphlib.Bfs.source) forests in
  let pdist = Array.map (fun f -> f.Graphlib.Bfs.dist) forests in
  (bunch, piv, pdist)

let small_graph =
  QCheck.(quad (int_range 1 40) (int_range 1 3) (float_range 0.02 0.3) small_nat)

let gnp_of (n, _, p, seed) = Gen.gnp (Util.Prng.create ~seed) ~n ~p

let prop_bunches_are_tz =
  QCheck.Test.make
    ~name:"oracle: every bunch is the Thorup–Zwick definition, read by every query"
    ~count:60 small_graph
    (fun ((n, k, _, seed) as c) ->
      let g = gnp_of c in
      let o = Oracle.build ~k ~seed g in
      let bunch, piv, pdist = tz_definition g ~k (Oracle.levels o) in
      (* The query loop of the paper, on the definition's bunches: at
         i = 0 it reads B(v)[u], so a stored entry missing, extra or
         with another distance changes some answer. *)
      let rec expected i u v =
        if i >= k || piv.(i).(u) < 0 then -1
        else
          let d = bunch v piv.(i).(u) in
          if d >= 0 then pdist.(i).(u) + d else expected (i + 1) v u
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let want = if u = v then 0 else expected 0 u v in
          if Oracle.query_est o u v <> want then ok := false
        done
      done;
      !ok)

let prop_size_is_bunches_plus_pivots =
  QCheck.Test.make ~name:"oracle: size = bunch total + k n" ~count:60 small_graph
    (fun ((n, k, _, seed) as c) ->
      let g = gnp_of c in
      let o = Oracle.build ~k ~seed g in
      let bunch, _, _ = tz_definition g ~k (Oracle.levels o) in
      let total = ref 0 in
      for v = 0 to n - 1 do
        for w = 0 to n - 1 do
          if bunch v w >= 0 then incr total
        done
      done;
      Oracle.size o = !total + (k * n))

let suite =
  [
    ( "oracle.thorup_zwick",
      [
        Alcotest.test_case "exact at k=1" `Quick test_oracle_exact_k1;
        Alcotest.test_case "stretch bounds" `Quick test_oracle_stretch_bounds;
        Alcotest.test_case "disconnected" `Quick test_oracle_disconnected;
        Alcotest.test_case "self" `Quick test_oracle_self;
        Alcotest.test_case "king torus" `Quick test_oracle_symmetry_bound;
        Alcotest.test_case "space tradeoff" `Quick test_oracle_space_tradeoff;
        Alcotest.test_case "level sizes" `Quick test_oracle_levels_shape;
        Alcotest.test_case "query_est agrees" `Quick test_query_est_agrees;
        QCheck_alcotest.to_alcotest prop_query_est_agrees;
        QCheck_alcotest.to_alcotest prop_oracle_stretch;
        QCheck_alcotest.to_alcotest prop_bunches_are_tz;
        QCheck_alcotest.to_alcotest prop_size_is_bunches_plus_pivots;
      ] );
  ]
