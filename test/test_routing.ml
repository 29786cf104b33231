(* Tests for the compact routing scheme. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Apsp = Graphlib.Apsp
module Routing = Oracle.Compact_routing

let rng () = Util.Prng.create ~seed:1999

let check_all_routes ~max_stretch g r =
  let d = Apsp.compute g in
  let n = G.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      match (Routing.route r ~src:u ~dst:v, d.(u).(v)) with
      | Some path, exact ->
          checkb "pair connected" true (exact >= 0);
          (* path is a real walk in g *)
          let rec verify = function
            | a :: (b :: _ as rest) ->
                checkb "hop is an edge" true (G.mem_edge g a b);
                verify rest
            | _ -> ()
          in
          verify path;
          (match path with
          | first :: _ ->
              checki "starts at src" u first;
              checki "ends at dst" v (List.nth path (List.length path - 1))
          | [] -> Alcotest.fail "empty route");
          let hops = List.length path - 1 in
          checkb
            (Printf.sprintf "route %d->%d: %d hops vs %d exact" u v hops exact)
            true
            (hops >= exact && (exact = 0 || hops <= max_stretch * exact))
      | None, exact -> checki "None only when disconnected" (-1) exact
    done
  done

let test_routing_correct_small () =
  List.iter
    (fun seed ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed) ~n:80 ~p:0.08 in
      let r = Routing.build ~seed g in
      check_all_routes ~max_stretch:5 g r)
    [ 1; 2; 3 ]

let test_routing_on_torus () =
  let g = Gen.king_torus ~width:9 ~height:9 in
  let r = Routing.build ~seed:5 g in
  check_all_routes ~max_stretch:5 g r

let test_routing_disconnected () =
  let g = G.of_edges ~n:6 [ (0, 1); (2, 3) ] in
  let r = Routing.build ~seed:1 g in
  checkb "within component" true (Routing.route r ~src:0 ~dst:1 <> None);
  checkb "across components" true (Routing.route r ~src:0 ~dst:2 = None)

let test_routing_self () =
  let g = Gen.cycle 8 in
  let r = Routing.build ~seed:2 g in
  Alcotest.check (Alcotest.list Alcotest.int) "self route" [ 3 ]
    (Option.get (Routing.route r ~src:3 ~dst:3))

let test_routing_state_compact () =
  (* Per-node state must be o(n): on a 1500-vertex graph the average
     table is much smaller than n entries. *)
  let n = 1500 in
  let g = Gen.connected_gnp (rng ()) ~n ~p:0.008 in
  let r = Routing.build ~seed:7 g in
  let avg = float_of_int (Routing.total_state r) /. float_of_int n in
  checkb
    (Printf.sprintf "avg table %.1f entries << n=%d" avg n)
    true
    (avg < float_of_int n /. 4.);
  checkb "landmarks ~ sqrt n" true
    (let l = List.length (Routing.landmarks r) in
     l > 10 && l < 150)

let test_routing_measured_stretch_low () =
  let g = Gen.connected_gnp (rng ()) ~n:400 ~p:0.03 in
  let r = Routing.build ~seed:3 g in
  let stats = Util.Stats.create () in
  let rng = rng () in
  for _ = 1 to 300 do
    let u = Util.Prng.int rng 400 and v = Util.Prng.int rng 400 in
    if u <> v then begin
      let exact = (Graphlib.Bfs.distances g ~src:u).(v) in
      match Routing.route r ~src:u ~dst:v with
      | Some path when exact > 0 ->
          Util.Stats.add stats
            (float_of_int (List.length path - 1) /. float_of_int exact)
      | _ -> ()
    end
  done;
  checkb
    (Printf.sprintf "mean routing stretch %.2f < 2" (Util.Stats.mean stats))
    true
    (Util.Stats.mean stats < 2.)

let test_route_hops_matches_route () =
  (* The serving fast path: route_hops must agree exactly with the
     materialized route, including the failure cases. *)
  let g = G.of_edges ~n:7 [ (0, 1); (1, 2); (2, 3); (5, 6) ] in
  let r = Routing.build ~seed:4 g in
  let check_pair u v =
    match Routing.route r ~src:u ~dst:v with
    | Some path ->
        checki
          (Printf.sprintf "hops %d->%d" u v)
          (List.length path - 1)
          (Routing.route_hops r ~src:u ~dst:v)
    | None -> checki "failure is -1" (-1) (Routing.route_hops r ~src:u ~dst:v)
  in
  for u = 0 to 6 do
    for v = 0 to 6 do
      check_pair u v
    done
  done

let prop_route_hops_agree =
  QCheck.Test.make ~name:"routing: route_hops = |route| - 1 on random graphs"
    ~count:10
    QCheck.(int_range 15 60)
    (fun n ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed:n) ~n ~p:0.1 in
      let r = Routing.build ~seed:(n + 1) g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let hops = Routing.route_hops r ~src:u ~dst:v in
          (match Routing.route r ~src:u ~dst:v with
          | Some path -> if hops <> List.length path - 1 then ok := false
          | None -> if hops <> -1 then ok := false)
        done
      done;
      !ok)

let prop_next_hops_step_closer =
  (* A walk from x takes x's stored entry for the destination, or else
     x's entry for the destination's home landmark, so the first hops
     of all pairs' routes read every stored entry there is.  Each must
     be a neighbour one step closer to its target. *)
  QCheck.Test.make
    ~name:"routing: every stored next hop is a neighbour one step closer"
    ~count:40
    QCheck.(triple (int_range 1 40) (float_range 0.02 0.3) small_nat)
    (fun (n, p, seed) ->
      let g = Gen.gnp (Util.Prng.create ~seed) ~n ~p in
      let r = Routing.build ~seed g in
      let d = Apsp.compute g in
      let ok = ref true in
      for x = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if x <> dst then
            match Routing.route r ~src:x ~dst with
            | Some (_ :: y :: _) ->
                let l = Routing.home_landmark r dst in
                let closer t = t >= 0 && d.(y).(t) = d.(x).(t) - 1 in
                if not (G.mem_edge g x y && (closer dst || closer l)) then
                  ok := false
            | Some _ -> ok := false
            | None -> if d.(x).(dst) >= 0 then ok := false
        done
      done;
      !ok)

let test_home_landmark_is_nearest () =
  let g = Gen.connected_gnp (rng ()) ~n:200 ~p:0.04 in
  let r = Routing.build ~seed:9 g in
  let ls = Routing.landmarks r in
  let f = Graphlib.Bfs.multi_source g ~sources:ls in
  for v = 0 to 199 do
    checki "home = nearest landmark" f.Graphlib.Bfs.source.(v) (Routing.home_landmark r v)
  done

let suite =
  [
    ( "oracle.compact_routing",
      [
        Alcotest.test_case "all routes correct (small)" `Quick test_routing_correct_small;
        Alcotest.test_case "torus routes" `Quick test_routing_on_torus;
        Alcotest.test_case "disconnected" `Quick test_routing_disconnected;
        Alcotest.test_case "self" `Quick test_routing_self;
        Alcotest.test_case "state compact" `Quick test_routing_state_compact;
        Alcotest.test_case "measured stretch low" `Quick test_routing_measured_stretch_low;
        Alcotest.test_case "home landmark nearest" `Quick test_home_landmark_is_nearest;
        Alcotest.test_case "route_hops matches route" `Quick
          test_route_hops_matches_route;
        QCheck_alcotest.to_alcotest prop_route_hops_agree;
        QCheck_alcotest.to_alcotest prop_next_hops_step_closer;
      ] );
  ]
