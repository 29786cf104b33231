(* Tests for the Section 2 machinery: Plan, Sampling, Contribution,
   Bounds, Skeleton (sequential) and Skeleton_dist. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Bfs = Graphlib.Bfs
module Edge_set = Graphlib.Edge_set
module Metrics = Graphlib.Metrics
module Plan = Spanner.Plan
module Sampling = Spanner.Sampling
module Skeleton = Spanner.Skeleton
module Skeleton_dist = Spanner.Skeleton_dist
module Contribution = Spanner.Contribution
module Bounds = Spanner.Bounds

let rng () = Util.Prng.create ~seed:20080424

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_ends_with_kill () =
  List.iter
    (fun n ->
      let plan = Plan.make ~n () in
      let last = Plan.last_call plan in
      checkb "last call kills" true (last.Plan.p = 0.);
      checkb "last phase is Kill" true (last.Plan.phase = Plan.Kill))
    [ 2; 10; 100; 10_000; 1_000_000 ]

let test_plan_density_reaches_n () =
  List.iter
    (fun n ->
      let plan = Plan.make ~n () in
      let last = Plan.last_call plan in
      checkb "density covers n" true
        (last.Plan.density_after >= float_of_int n))
    [ 2; 17; 1000; 250_000 ]

let test_plan_probabilities_valid () =
  let plan = Plan.make ~n:50_000 () in
  Array.iter
    (fun c ->
      checkb "p in [0,1)" true (c.Plan.p >= 0. && c.Plan.p < 1.);
      checkb "abort threshold positive" true (c.Plan.abort_q > 0))
    plan.Plan.calls

let test_plan_rounds_monotone () =
  let plan = Plan.make ~n:100_000 () in
  let prev = ref (-1) in
  Array.iter
    (fun c ->
      checkb "rounds nondecreasing" true (c.Plan.round >= !prev);
      prev := c.Plan.round)
    plan.Plan.calls;
  checki "num_rounds consistent" (!prev + 1) plan.Plan.num_rounds

let test_plan_schedule_is_short () =
  (* Theorem 2: the whole schedule is O(eps^-1 2^(log* n) log n) calls;
     concretely it must stay tiny even for large n. *)
  List.iter
    (fun n ->
      let plan = Plan.make ~n () in
      checkb
        (Printf.sprintf "n=%d gets few calls (%d)" n (Array.length plan.Plan.calls))
        true
        (Array.length plan.Plan.calls <= 40))
    [ 100; 10_000; 1_000_000; 100_000_000 ]

let test_plan_word_budget () =
  let plan = Plan.make ~n:65536 ~eps:0.5 () in
  (* log2 65536 = 16, 16^0.5 = 4 *)
  checki "budget (log n)^eps" 4 plan.Plan.word_budget;
  let plan1 = Plan.make ~n:65536 ~eps:1.0 () in
  checki "eps=1 budget" 16 plan1.Plan.word_budget

let test_plan_tower_grows_like_d () =
  let plan = Plan.make ~n:(1 lsl 20) ~d:4 ~eps:1.0 () in
  (* With eps=1 the threshold is log n * log log n = 20*4.32 = 86;
     tower calls at p=1/4 run until density > 86: 4,16,64,256. *)
  let tower =
    Array.to_list plan.Plan.calls
    |> List.filter (fun c -> c.Plan.phase = Plan.Tower)
  in
  checkb "several tower calls" true (List.length tower >= 3);
  List.iter (fun c -> checkb "tower p=1/4" true (c.Plan.p = 0.25)) tower

let test_plan_rejects_bad_args () =
  Alcotest.check_raises "d too small" (Invalid_argument "Plan.make: d must be >= 2")
    (fun () -> ignore (Plan.make ~n:10 ~d:1 ()));
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Plan.make: eps must be in (0, 1]") (fun () ->
      ignore (Plan.make ~n:10 ~eps:0. ()))

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_sampling_bounded_by_plan () =
  let plan = Plan.make ~n:500 () in
  let s = Sampling.draw (rng ()) ~n:500 plan in
  let ncalls = Array.length plan.Plan.calls in
  for v = 0 to 499 do
    let fu = Sampling.first_unsampled s v in
    checkb "fu within plan" true (fu >= 0 && fu < ncalls)
  done

let test_sampling_last_call_never_sampled () =
  let plan = Plan.make ~n:200 () in
  let s = Sampling.draw (rng ()) ~n:200 plan in
  let last = (Plan.last_call plan).Plan.index in
  for v = 0 to 199 do
    checkb "kill call unsampled" false (Sampling.sampled s ~center:v ~call:last)
  done

let test_sampling_sampled_consistent () =
  let plan = Plan.make ~n:100 () in
  let s = Sampling.draw (rng ()) ~n:100 plan in
  for v = 0 to 99 do
    let fu = Sampling.first_unsampled s v in
    if fu > 0 then checkb "sampled before fu" true (Sampling.sampled s ~center:v ~call:(fu - 1));
    checkb "unsampled at fu" false (Sampling.sampled s ~center:v ~call:fu)
  done

let test_sampling_rate_first_call () =
  (* First call has p = 1/4: about 3/4 of vertices survive it. *)
  let plan = Plan.make ~n:20_000 ~d:4 () in
  let s = Sampling.draw (rng ()) ~n:20_000 plan in
  let survived = ref 0 in
  for v = 0 to 19_999 do
    if Sampling.first_unsampled s v > 0 then incr survived
  done;
  let rate = float_of_int !survived /. 20_000. in
  checkb (Printf.sprintf "survival rate %.3f near 0.25" rate) true
    (rate > 0.22 && rate < 0.28)

(* ------------------------------------------------------------------ *)
(* Contribution (Lemma 6) *)

let test_contribution_zero_at_t0 () =
  Alcotest.check (Alcotest.float 1e-12) "X^0_p = 0" 0. (Contribution.xtp ~p:0.3 ~t:0)

let test_contribution_below_paper_bound () =
  List.iter
    (fun p ->
      List.iter
        (fun t ->
          let x = Contribution.xtp ~p ~t in
          let b = Contribution.paper_bound ~p ~t in
          checkb (Printf.sprintf "X^%d_%.2f = %.3f <= %.3f" t p x b) true (x <= b +. 1e-9))
        [ 1; 2; 5; 10; 50; 200 ])
    [ 0.05; 0.1; 0.25; 0.5; 0.9 ]

let test_contribution_monotone_in_t () =
  let xs = Contribution.xtp_sequence ~p:0.2 ~t:60 in
  for t = 1 to 60 do
    checkb "X nondecreasing in t" true (xs.(t) >= xs.(t - 1) -. 1e-12)
  done

let test_contribution_saturates () =
  (* The paper proves only the upper bound p^-1(ln(t+1) - zeta) + t and
     notes Baswana–Sen's stronger O(p^-1) + t "may in fact be true".
     The exact DP supports that: X^t_p - (1-p)t converges to a constant
     of order p^-1.  Check the saturation. *)
  let p = 0.1 in
  let excess t = Contribution.xtp ~p ~t -. ((1. -. p) *. float_of_int t) in
  let e100 = excess 100 and e1000 = excess 1000 in
  checkb
    (Printf.sprintf "excess saturates (%.3f vs %.3f)" e100 e1000)
    true
    (Float.abs (e1000 -. e100) < 0.05 *. e100);
  checkb "excess is Theta(1/p)" true (e1000 > 0.5 /. p && e1000 < 4. /. p)

let test_contribution_base_case_formula () =
  (* Inequality (3): X^1_p < (1 - 2/e) + (ep)^-1. *)
  List.iter
    (fun p ->
      let x1 = Contribution.xtp ~p ~t:1 in
      let bound = 1. -. (2. /. Float.exp 1.) +. (1. /. (Float.exp 1. *. p)) in
      checkb (Printf.sprintf "X^1_%.2f < ineq(3)" p) true (x1 < bound))
    [ 0.05; 0.1; 0.2; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_skeleton_size_shape () =
  (* Dn/e dominates: ratio to n must be between D/e and D/e + O(log D). *)
  List.iter
    (fun d ->
      let per_vertex = Bounds.skeleton_size ~n:1000 ~d /. 1000. in
      let d_over_e = float_of_int d /. Float.exp 1. in
      checkb "lower" true (per_vertex > d_over_e);
      checkb "upper" true (per_vertex < d_over_e +. (3. *. log (float_of_int d)) +. 4.))
    [ 4; 8; 16; 32 ]

let test_bounds_fib_closed_forms_dominate_recurrences () =
  (* Lemma 10 is proven by induction; verify numerically that the
     closed forms dominate the Lemma 9 recurrences. *)
  List.iter
    (fun ell ->
      for i = 0 to 10 do
        let c_rec = Bounds.fib_c_rec ~ell i and c_closed = Bounds.fib_c ~ell i in
        let i_rec = Bounds.fib_i_rec ~ell i and i_closed = Bounds.fib_i ~ell i in
        checkb
          (Printf.sprintf "C^%d_%d: closed %.1f >= rec %.1f" i ell c_closed c_rec)
          true
          (c_closed >= c_rec -. 1e-6);
        checkb
          (Printf.sprintf "I^%d_%d: closed %.1f >= rec %.1f" i ell i_closed i_rec)
          true
          (i_closed >= i_rec -. 1e-6)
      done)
    [ 1; 2; 3; 4; 7 ]

let test_bounds_fib_stage_values () =
  (* Theorem 7's table: ell=1 -> 2^(o+1); ell=2 -> 3(o+1);
     ell>=3 -> 3 + (6l-2)/(l(l-2)) tending to 3. *)
  Alcotest.check (Alcotest.float 1e-9) "ell=1" 16. (Bounds.fib_distortion_stage ~o:3 ~ell:1);
  Alcotest.check (Alcotest.float 1e-9) "ell=2" 12. (Bounds.fib_distortion_stage ~o:3 ~ell:2);
  let s3 = Bounds.fib_distortion_stage ~o:3 ~ell:3 in
  checkb "ell=3 between 3 and 9" true (s3 > 3. && s3 < 9.);
  let s100 = Bounds.fib_distortion_stage ~o:3 ~ell:100 in
  checkb "ell=100 close to 3" true (s100 < 3.1)

let test_bounds_lb_monotonicity () =
  (* More rounds allowed => smaller forced beta. *)
  let b1 = Bounds.lb_eps_beta ~n:100000 ~delta:0.1 ~zeta:0.5 ~tau:2 in
  let b2 = Bounds.lb_eps_beta ~n:100000 ~delta:0.1 ~zeta:0.5 ~tau:10 in
  checkb "beta decreases with tau" true (b1 > b2);
  (* Bigger beta tolerated => fewer rounds needed. *)
  let r1 = Bounds.lb_additive_rounds ~n:100000 ~delta:0.1 ~beta:2. in
  let r2 = Bounds.lb_additive_rounds ~n:100000 ~delta:0.1 ~beta:32. in
  checkb "rounds decrease with beta" true (r1 > r2)

(* ------------------------------------------------------------------ *)
(* Skeleton (sequential) *)

let build_skeleton ?(d = 4) ?(eps = 0.5) ?(trace = false) ~seed g =
  Skeleton.build ~d ~eps ~trace ~seed g

let test_skeleton_subset_of_edges () =
  let g = Gen.connected_gnp (rng ()) ~n:300 ~p:0.04 in
  let r = build_skeleton ~seed:5 g in
  (* All spanner edge ids are host edges by construction of Edge_set;
     cardinality must not exceed m. *)
  checkb "spanner smaller than graph" true
    (Edge_set.cardinal r.Skeleton.spanner <= G.m g)

let test_skeleton_preserves_connectivity () =
  List.iter
    (fun seed ->
      let r0 = Util.Prng.create ~seed in
      let g = Gen.connected_gnp r0 ~n:250 ~p:0.05 in
      let r = build_skeleton ~seed g in
      let h = Edge_set.to_graph r.Skeleton.spanner in
      checkb "skeleton connected" true (G.is_connected h))
    [ 1; 2; 3; 4; 5 ]

let test_skeleton_preserves_components () =
  (* On a disconnected graph, the spanner must preserve every
     component (distortion is finite within components). *)
  let r0 = rng () in
  let g = Gen.gnp r0 ~n:300 ~p:0.005 in
  let r = build_skeleton ~seed:11 g in
  let h = Edge_set.to_graph r.Skeleton.spanner in
  let lg, cg = G.components g and lh, ch = G.components h in
  checki "same component count" cg ch;
  (* Same partition: vertices in the same g-component share an
     h-component. *)
  let n = G.n g in
  for u = 0 to n - 1 do
    for v = u + 1 to min (n - 1) (u + 10) do
      if lg.(u) = lg.(v) then checkb "components preserved" true (lh.(u) = lh.(v))
    done
  done

let test_skeleton_size_near_bound () =
  (* Lemma 6: E|S| = Dn/e + O(n log D).  Statistical check with a
     fixed seed on a dense-enough graph. *)
  let n = 3000 in
  let g = Gen.connected_gnp (rng ()) ~n ~p:0.01 in
  let r = build_skeleton ~seed:3 g in
  let size = float_of_int (Edge_set.cardinal r.Skeleton.spanner) in
  let bound = Bounds.skeleton_size ~n ~d:4 in
  checkb
    (Printf.sprintf "size %.0f <= Lemma-6 bound %.0f (+50%% slack)" size bound)
    true
    (size <= 1.5 *. bound)

let test_skeleton_distortion_within_bound () =
  (* Exact check on a small graph against Theorem 2's distortion. *)
  let g = Gen.connected_gnp (rng ()) ~n:120 ~p:0.06 in
  let r = build_skeleton ~seed:9 g in
  let h = Edge_set.to_graph r.Skeleton.spanner in
  let rep = Metrics.exact ~g ~h in
  let bound = Bounds.skeleton_distortion ~n:120 ~d:4 ~eps:0.5 in
  checki "no pair disconnected" 0 rep.Metrics.disconnected;
  checkb
    (Printf.sprintf "max stretch %.1f within theorem bound %.1f" rep.Metrics.max_mult bound)
    true
    (rep.Metrics.max_mult <= bound)

let test_skeleton_trace_invariants () =
  let g = Gen.connected_gnp (rng ()) ~n:150 ~p:0.05 in
  let r = build_skeleton ~trace:true ~seed:21 g in
  checkb "has snapshots" true (r.Skeleton.snapshots <> []);
  let prev_spanner = ref 0 in
  List.iter
    (fun s ->
      checkb "spanner grows monotonically" true (s.Skeleton.spanner_size >= !prev_spanner);
      prev_spanner := s.Skeleton.spanner_size;
      checkb "alive_after <= alive_before" true
        (s.Skeleton.alive_after <= s.Skeleton.alive_before))
    r.Skeleton.snapshots;
  (* Last snapshot: everyone dead. *)
  let last = List.nth r.Skeleton.snapshots (List.length r.Skeleton.snapshots - 1) in
  checki "all dead at the end" 0 last.Skeleton.alive_after;
  Array.iter (fun c -> checki "assignment cleared" (-1) c) last.Skeleton.assignment

let test_skeleton_cluster_trees_spanned () =
  (* Key invariant (Section 2): for any cluster C in any C_{i,j}, the
     preimage of C is spanned by a tree of spanner edges.  Weaker
     checkable form: the preimage is connected in the spanner-so-far. *)
  let g = Gen.connected_gnp (rng ()) ~n:120 ~p:0.06 in
  let plan = Plan.make ~n:120 () in
  let sampling = Sampling.draw (Util.Prng.create ~seed:33) ~n:120 plan in
  let r = Skeleton.build_with ~trace:true ~plan ~sampling g in
  let h = Edge_set.to_graph r.Skeleton.spanner in
  (* Using the final spanner is valid since edges are only added. *)
  let snapshot_connected s =
    (* group by assignment *)
    let groups : (int, int list) Hashtbl.t = Hashtbl.create 32 in
    Array.iteri
      (fun v c ->
        if c >= 0 then
          Hashtbl.replace groups c (v :: Option.value ~default:[] (Hashtbl.find_opt groups c)))
      s.Skeleton.assignment;
    Hashtbl.iter
      (fun center members ->
        match members with
        | [] | [ _ ] -> ()
        | first :: _ ->
            let d = Bfs.distances h ~src:first in
            List.iter
              (fun v ->
                checkb
                  (Printf.sprintf "cluster %d connected in spanner" center)
                  true (d.(v) >= 0))
              members)
      groups
  in
  List.iter snapshot_connected r.Skeleton.snapshots

let test_skeleton_d_sweep_size_increases () =
  (* Larger D means denser spanners (roughly Dn/e). *)
  let g = Gen.connected_gnp (rng ()) ~n:2000 ~p:0.02 in
  let size d =
    Edge_set.cardinal (build_skeleton ~d ~seed:2 g).Skeleton.spanner
  in
  let s4 = size 4 and s16 = size 16 in
  checkb (Printf.sprintf "D=16 (%d) denser than D=4 (%d)" s16 s4) true (s16 > s4)

let test_skeleton_on_structured_graphs () =
  List.iter
    (fun (name, g) ->
      let r = build_skeleton ~seed:8 g in
      let h = Edge_set.to_graph r.Skeleton.spanner in
      checkb (name ^ " connected") true (G.is_connected h))
    [
      ("torus", Gen.torus ~width:16 ~height:16);
      ("hypercube", Gen.hypercube ~dims:8);
      ("caterpillar", Gen.caterpillar ~spine:50 ~legs:4);
      ("complete", Gen.complete 60);
    ]

let test_skeleton_complete_graph_sparsifies () =
  (* K_200 has 19900 edges; the skeleton must cut it down massively. *)
  let g = Gen.complete 200 in
  let r = build_skeleton ~seed:4 g in
  let c = Edge_set.cardinal r.Skeleton.spanner in
  checkb (Printf.sprintf "K200 spanner has %d edges" c) true (c < 3000)

let test_skeleton_tree_keeps_everything () =
  (* A spanner of a tree must keep every edge (dropping any one
     disconnects). *)
  let g = Gen.caterpillar ~spine:40 ~legs:3 in
  let r = build_skeleton ~seed:10 g in
  checki "tree kept whole" (G.m g) (Edge_set.cardinal r.Skeleton.spanner)

(* ------------------------------------------------------------------ *)
(* Skeleton_dist *)

let test_dist_equals_sequential () =
  List.iter
    (fun (seed, n, p) ->
      let g = Gen.connected_gnp (Util.Prng.create ~seed:(seed * 31)) ~n ~p in
      let plan = Plan.make ~n:(G.n g) () in
      let sampling = Sampling.draw (Util.Prng.create ~seed) ~n:(G.n g) plan in
      let seq = Skeleton.build_with ~plan ~sampling g in
      let dist = Skeleton_dist.build_with ~plan ~sampling g in
      checki "same size"
        (Edge_set.cardinal seq.Skeleton.spanner)
        (Edge_set.cardinal dist.Skeleton_dist.spanner);
      Edge_set.iter seq.Skeleton.spanner (fun e ->
          checkb "dist has every seq edge" true
            (Edge_set.mem dist.Skeleton_dist.spanner e));
      checki "same abort count" seq.Skeleton.aborts dist.Skeleton_dist.aborts)
    [ (1, 200, 0.05); (2, 300, 0.03); (3, 150, 0.1); (4, 400, 0.015) ]

let test_dist_equals_sequential_structured () =
  List.iter
    (fun (name, g) ->
      let plan = Plan.make ~n:(G.n g) () in
      let sampling = Sampling.draw (Util.Prng.create ~seed:123) ~n:(G.n g) plan in
      let seq = Skeleton.build_with ~plan ~sampling g in
      let dist = Skeleton_dist.build_with ~plan ~sampling g in
      checki (name ^ ": same size")
        (Edge_set.cardinal seq.Skeleton.spanner)
        (Edge_set.cardinal dist.Skeleton_dist.spanner))
    [
      ("torus", Gen.torus ~width:15 ~height:15);
      ("hypercube", Gen.hypercube ~dims:7);
      ("grid", Gen.grid ~width:20 ~height:10);
      ("disconnected gnp", Gen.gnp (rng ()) ~n:250 ~p:0.004);
    ]

let test_dist_message_length_bounded () =
  (* Unit protocol messages are O(1) words; batched list messages are
     capped at the word budget (+1 for the flag). *)
  let g = Gen.connected_gnp (rng ()) ~n:500 ~p:0.02 in
  let plan = Plan.make ~n:500 () in
  let sampling = Sampling.draw (Util.Prng.create ~seed:6) ~n:500 plan in
  let dist = Skeleton_dist.build_with ~plan ~sampling g in
  let cap = Stdlib.max 4 (plan.Plan.word_budget + 1) in
  checkb
    (Printf.sprintf "max message %d <= %d"
       dist.Skeleton_dist.stats.Distnet.Sim.max_message_words cap)
    true
    (dist.Skeleton_dist.stats.Distnet.Sim.max_message_words <= cap)

let test_dist_rounds_scale_polylog () =
  (* Theorem 2: rounds are polylog for fixed eps; concretely the round
     count must grow far slower than n. *)
  let rounds n =
    let g = Gen.connected_gnp (Util.Prng.create ~seed:n) ~n ~p:(8. /. float_of_int n) in
    let d = Skeleton_dist.build ~seed:1 g in
    d.Skeleton_dist.stats.Distnet.Sim.rounds
  in
  let r_small = rounds 200 and r_big = rounds 1600 in
  checkb
    (Printf.sprintf "rounds %d -> %d grow sublinearly (8x n)" r_small r_big)
    true
    (float_of_int r_big < 3. *. float_of_int r_small)

(* One message order: a node addresses its neighbours as its CSR row
   lists them, so its round-0 [Exchange]s name them in
   [G.iter_neighbors] order. *)
let test_dist_sends_in_row_order () =
  let g = Gen.generate ~kind:"gnp" ~n:60 ~p:0.1 ~seed:3 in
  let tracer = Distnet.Trace.create () in
  ignore (Skeleton_dist.build ~tracer ~seed:3 g);
  let sent = Array.make (G.n g) [] in
  List.iter
    (fun (ev : Distnet.Trace.event) ->
      if ev.round = 0 && ev.kind = Distnet.Trace.Send then
        sent.(ev.src) <- ev.dst :: sent.(ev.src))
    (Distnet.Trace.events tracer);
  let out_of_order = ref 0 in
  for v = 0 to G.n g - 1 do
    let row = ref [] in
    G.iter_neighbors g v (fun w _ -> row := w :: !row);
    if sent.(v) <> !row then incr out_of_order
  done;
  checki "nodes sending out of CSR row order" 0 !out_of_order

(* Both transports: the bare engine ([Fault.none]), and the ARQ with no
   fault to mask ([Fault.scripted []], which [Fault.is_none] rejects),
   where nothing may be retransmitted, orphaned or abandoned. *)
let prop_dist_equals_sequential =
  QCheck.Test.make ~name:"skeleton: distributed = sequential (random graphs)"
    ~count:30
    QCheck.(triple (int_range 20 120) (int_bound 1000) bool)
    (fun (n, seed, arq) ->
      let r0 = Util.Prng.create ~seed:(seed + 1) in
      let g = Gen.gnp r0 ~n ~p:(4. /. float_of_int n) in
      let plan = Plan.make ~n () in
      let sampling = Sampling.draw (Util.Prng.create ~seed) ~n plan in
      let seq = Skeleton.build_with ~plan ~sampling g in
      let faults =
        if arq then Distnet.Fault.scripted [] else Distnet.Fault.none
      in
      let dist = Skeleton_dist.build_with ~faults ~plan ~sampling g in
      let same = ref true in
      Edge_set.iter seq.Skeleton.spanner (fun e ->
          if not (Edge_set.mem dist.Skeleton_dist.spanner e) then same := false);
      Edge_set.iter dist.Skeleton_dist.spanner (fun e ->
          if not (Edge_set.mem seq.Skeleton.spanner e) then same := false);
      let rc = dist.Skeleton_dist.recovery in
      !same
      && arq = not (Distnet.Fault.is_none faults)
      && rc.Skeleton_dist.retransmissions = 0
      && rc.Skeleton_dist.orphaned = 0
      && rc.Skeleton_dist.dead_letters = 0)

(* ------------------------------------------------------------------ *)
(* Self-healing: faulty transports, crash recovery, certification *)

module Certify = Spanner.Certify
module Fault = Distnet.Fault

let test_dist_lossy_equals_sequential () =
  (* Same tape, heavy loss + duplication + delay: the ARQ transport
     must still deliver the exact sequential spanner, with zero
     recovery actions. *)
  let g = Gen.connected_gnp (Util.Prng.create ~seed:77) ~n:120 ~p:0.06 in
  let plan = Plan.make ~n:(G.n g) () in
  let sampling = Sampling.draw (Util.Prng.create ~seed:9) ~n:(G.n g) plan in
  let seq = Skeleton.build_with ~plan ~sampling g in
  let faults =
    Fault.make ~seed:3
      { Fault.default_spec with Fault.drop = 0.25; dup = 0.05; delay = 0.1 }
  in
  let dist = Skeleton_dist.build_with ~faults ~plan ~sampling g in
  checki "same size"
    (Edge_set.cardinal seq.Skeleton.spanner)
    (Edge_set.cardinal dist.Skeleton_dist.spanner);
  Edge_set.iter seq.Skeleton.spanner (fun e ->
      checkb "dist has every seq edge" true
        (Edge_set.mem dist.Skeleton_dist.spanner e));
  let rc = dist.Skeleton_dist.recovery in
  checki "no crashes" 0 rc.Skeleton_dist.crashed;
  checki "no orphans" 0 rc.Skeleton_dist.orphaned;
  checkb "loss cost retransmissions" true (rc.Skeleton_dist.retransmissions > 0)

let test_dist_crash_recovery_certifies () =
  (* Crash-stops under 20% loss: the construction completes, every
     scheduled crash registers, checkpoints were committed, and the
     certifier accepts the surviving output. *)
  let g = Gen.connected_gnp (Util.Prng.create ~seed:5) ~n:128 ~p:0.06 in
  let crashes = [ (1, 120); (7, 300); (20, 250); (33, 40); (60, 200) ] in
  let faults =
    Fault.make ~seed:11 { Fault.default_spec with Fault.drop = 0.2; crashes }
  in
  let r = Skeleton_dist.build ~faults ~seed:5 g in
  let rc = r.Skeleton_dist.recovery in
  checki "all scheduled crashes happened" 5 rc.Skeleton_dist.crashed;
  checkb "checkpoints committed" true (rc.Skeleton_dist.checkpoints > 0);
  let v =
    Certify.run ~plan:r.Skeleton_dist.plan ~witness:r.Skeleton_dist.witness g
      r.Skeleton_dist.spanner
  in
  checkb "certifier accepts the recovered output" true (Certify.ok v)

(* A crash-stop late in the run, after the last call that could notice
   a dead hub, is healed by the repair pass: every single crash (each
   node at each round 1..80) on five loss-free G(16, 0.3) certifies. *)
let test_every_single_crash_certifies () =
  let failing =
    List.map
      (fun seed ->
        let g = Gen.generate ~kind:"gnp" ~n:16 ~p:0.3 ~seed in
        let failed = ref 0 in
        for v = 0 to G.n g - 1 do
          for round = 1 to 80 do
            let faults =
              Fault.make ~seed:1
                { Fault.default_spec with Fault.crashes = [ (v, round) ] }
            in
            let r = Skeleton_dist.build ~faults ~seed g in
            if not (Certify.ok (Skeleton_dist.certify ~faults g r)) then
              incr failed
          done
        done;
        !failed)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int))
    "failing schedules per graph seed 1..5" [ 0; 0; 0; 0; 0 ] failing

let remove_one_hook_edge (w : Certify.witness) g spanner =
  (* The first live vertex's cluster-tree edge, dropped from the set. *)
  let victim = ref (-1) in
  Array.iteri
    (fun v e -> if !victim < 0 && e >= 0 && not w.Certify.crashed.(v) then victim := e)
    w.Certify.parent_edge;
  if !victim < 0 then None
  else begin
    let edges = ref [] in
    Edge_set.iter spanner (fun e -> if e <> !victim then edges := e :: !edges);
    Some (Edge_set.of_list g !edges)
  end

let prop_certifier_accepts =
  QCheck.Test.make ~name:"certify: accepts every loss-free build" ~count:15
    QCheck.(pair (int_range 20 120) (int_bound 1000))
    (fun (n, seed) ->
      let g =
        Gen.gnp (Util.Prng.create ~seed:(seed + 1)) ~n ~p:(4. /. float_of_int n)
      in
      let r = Skeleton_dist.build ~seed g in
      Certify.ok
        (Certify.run ~plan:r.Skeleton_dist.plan ~witness:r.Skeleton_dist.witness
           g r.Skeleton_dist.spanner))

let prop_certifier_rejects_mutation =
  QCheck.Test.make ~name:"certify: rejects a sabotaged spanner" ~count:15
    QCheck.(pair (int_range 30 120) (int_bound 1000))
    (fun (n, seed) ->
      let g =
        Gen.connected_gnp
          (Util.Prng.create ~seed:(seed + 1))
          ~n
          ~p:(4. /. float_of_int n)
      in
      let r = Skeleton_dist.build ~seed g in
      match
        remove_one_hook_edge r.Skeleton_dist.witness g r.Skeleton_dist.spanner
      with
      | None -> QCheck.assume_fail ()
      | Some mutated ->
          not
            (Certify.ok
               (Certify.run ~plan:r.Skeleton_dist.plan
                  ~witness:r.Skeleton_dist.witness g mutated)))

(* ------------------------------------------------------------------ *)
(* Topology churn: incremental repair, the degradation ladder, replay *)

let first_hook_edge (r : Skeleton_dist.result) =
  (* A cluster-tree hook edge is always a spanner edge, so cutting it
     guarantees the repair pass has real damage to fix. *)
  let e = ref (-1) in
  Array.iter
    (fun pe -> if !e < 0 && pe >= 0 then e := pe)
    r.Skeleton_dist.witness.Certify.parent_edge;
  !e

let test_churn_edge_kill_repaired_locally () =
  let g = Gen.connected_gnp (Util.Prng.create ~seed:21) ~n:96 ~p:0.07 in
  let plan = Plan.make ~n:(G.n g) () in
  let sampling = Sampling.draw (Util.Prng.create ~seed:8) ~n:(G.n g) plan in
  let base = Skeleton_dist.build_with ~plan ~sampling g in
  let e = first_hook_edge base in
  checkb "found a hook edge" true (e >= 0);
  let u, v = G.edge_endpoints g e in
  let faults =
    Fault.make ~seed:3 ~graph:g
      {
        Fault.default_spec with
        Fault.churn = [ Fault.Edge_down { round = 40; u; v } ];
      }
  in
  let r = Skeleton_dist.build_with ~faults ~plan ~sampling g in
  let rp = r.Skeleton_dist.repair in
  checkb "spanner edge died" true (rp.Skeleton_dist.dead_spanner_edges >= 1);
  checkb "fragment rehooked" true (rp.Skeleton_dist.rehooked >= 1);
  checkb "ladder reports damage" true (rp.Skeleton_dist.outcome <> Skeleton_dist.Intact);
  (* The point of incremental repair: far cheaper than rebuilding. *)
  checkb
    (Printf.sprintf "repair (%d rounds) cheaper than a from-scratch run (%d)"
       rp.Skeleton_dist.repair_rounds base.Skeleton_dist.stats.Distnet.Sim.rounds)
    true
    (rp.Skeleton_dist.repair_rounds < base.Skeleton_dist.stats.Distnet.Sim.rounds);
  checkb "certifier accepts the repaired output" true
    (Certify.ok (Skeleton_dist.certify ~faults g r))

let test_churn_healed_partition_ends_patched () =
  (* A partition that heals plus one permanent spanner-edge kill: the
     run must end on the *patched* rung with the certifier passing. *)
  let g = Gen.connected_gnp (Util.Prng.create ~seed:21) ~n:96 ~p:0.07 in
  let plan = Plan.make ~n:(G.n g) () in
  let sampling = Sampling.draw (Util.Prng.create ~seed:8) ~n:(G.n g) plan in
  let base = Skeleton_dist.build_with ~plan ~sampling g in
  let e = first_hook_edge base in
  let u, v = G.edge_endpoints g e in
  let cut = ref [] in
  G.iter_neighbors g 7 (fun w _ -> cut := (7, w) :: !cut);
  let faults =
    Fault.make ~seed:3 ~graph:g
      {
        Fault.default_spec with
        Fault.churn =
          [
            Fault.Partition { round = 3; edges = !cut; heal = Some 25 };
            Fault.Edge_down { round = 40; u; v };
          ];
      }
  in
  let r = Skeleton_dist.build_with ~faults ~plan ~sampling g in
  let rp = r.Skeleton_dist.repair in
  checkb "outcome is patched" true (rp.Skeleton_dist.outcome = Skeleton_dist.Patched);
  checki "one component after the heal" 1 rp.Skeleton_dist.components;
  let verdict = Skeleton_dist.certify ~faults g r in
  checkb "certifier passes after the heal" true (Certify.ok verdict)

let test_churn_partition_never_heals () =
  (* Cutting a vertex off for good: the run still terminates, reports
     the partitioned rung with the component count, and each island
     certifies separately. *)
  let g = Gen.connected_gnp (Util.Prng.create ~seed:21) ~n:96 ~p:0.07 in
  let cut = ref [] in
  G.iter_neighbors g 0 (fun w _ -> cut := (0, w) :: !cut);
  let faults =
    Fault.make ~seed:3 ~graph:g
      {
        Fault.default_spec with
        Fault.churn =
          [ Fault.Partition { round = 3; edges = !cut; heal = None } ];
      }
  in
  let r = Skeleton_dist.build ~faults ~seed:8 g in
  let rp = r.Skeleton_dist.repair in
  checkb "ladder reports the partition" true
    (rp.Skeleton_dist.outcome = Skeleton_dist.Partitioned 2);
  checki "two live components" 2 rp.Skeleton_dist.components;
  let verdict = Skeleton_dist.certify ~faults g r in
  checki "certifier sees both components" 2 verdict.Certify.components;
  checkb "each island certifies" true (Certify.ok verdict)

let test_churn_stuck_is_structured () =
  (* The same never-healing partition with a phase budget too small for
     the failure detector to ripen: instead of hanging or crashing with
     a backtrace, the run raises the structured Stuck exception naming
     the wedged phase and the links it was waiting on. *)
  let g = Gen.connected_gnp (Util.Prng.create ~seed:21) ~n:96 ~p:0.07 in
  let cut = ref [] in
  G.iter_neighbors g 0 (fun w _ -> cut := (0, w) :: !cut);
  let faults =
    Fault.make ~seed:3 ~graph:g
      {
        Fault.default_spec with
        Fault.churn =
          [ Fault.Partition { round = 3; edges = !cut; heal = None } ];
      }
  in
  match Skeleton_dist.build ~faults ~phase_round_limit:150 ~seed:8 g with
  | _ -> Alcotest.fail "expected Stuck"
  | exception Skeleton_dist.Stuck { phase; waiting_on; stats } ->
      checkb "phase is named" true (String.length phase > 0);
      checkb "waiting links listed" true (waiting_on <> []);
      checkb "cut links appear" true
        (List.exists (fun (a, b) -> a = 0 || b = 0) waiting_on);
      checkb "stats carried" true (stats.Distnet.Sim.rounds > 0)

let prop_churn_trace_replay_identical =
  QCheck.Test.make
    ~name:"churn: trace replay reproduces the spanner edge set" ~count:10
    QCheck.(pair (int_range 20 80) (int_bound 1000))
    (fun (n, seed) ->
      let g =
        Gen.connected_gnp
          (Util.Prng.create ~seed:(seed + 1))
          ~n
          ~p:(4. /. float_of_int n)
      in
      let plan = Plan.make ~n:(G.n g) () in
      let sampling = Sampling.draw (Util.Prng.create ~seed) ~n:(G.n g) plan in
      let e = seed mod G.m g in
      let u, v = G.edge_endpoints g e in
      let faults =
        Fault.make ~seed:(seed + 2) ~graph:g
          {
            Fault.default_spec with
            Fault.drop = 0.1;
            churn = [ Fault.Edge_down { round = 10; u; v } ];
          }
      in
      let tracer = Distnet.Trace.create () in
      let r1 = Skeleton_dist.build_with ~faults ~tracer ~plan ~sampling g in
      let r2 =
        Skeleton_dist.build_with
          ~faults:(Fault.scripted (Distnet.Trace.events tracer))
          ~plan ~sampling g
      in
      let same = ref true in
      Edge_set.iter r1.Skeleton_dist.spanner (fun e ->
          if not (Edge_set.mem r2.Skeleton_dist.spanner e) then same := false);
      Edge_set.iter r2.Skeleton_dist.spanner (fun e ->
          if not (Edge_set.mem r1.Skeleton_dist.spanner e) then same := false);
      !same && r1.Skeleton_dist.repair = r2.Skeleton_dist.repair)

let prop_skeleton_connectivity =
  QCheck.Test.make ~name:"skeleton: preserves connectivity" ~count:20
    QCheck.(pair (int_range 10 150) (int_bound 1000))
    (fun (n, seed) ->
      let r0 = Util.Prng.create ~seed in
      let g = Gen.connected_gnp r0 ~n ~p:(5. /. float_of_int n) in
      let r = Skeleton.build ~seed:(seed * 3) g in
      G.is_connected (Edge_set.to_graph r.Skeleton.spanner))

(* ------------------------------------------------------------------ *)
(* Allocation gate.  Words allocated, counted as minor + major -
   promoted, are the same on every run of a build when the count starts
   from an empty minor heap.  Without the [Gc.minor] the count drifts
   with how full the minor heap was at the start: one build read
   958,779 and then 1,141,341 words in the same process. *)

let words_allocated f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  int_of_float
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_lossfree_build_words () =
  (* 662,645 words (331 per vertex) when the gate was set; the bound is
     that count + 5%. *)
  let n = 2_000 in
  let g =
    Gen.connected_gnp (Util.Prng.create ~seed:1) ~n
      ~p:(8. /. float_of_int n)
  in
  let words =
    words_allocated (fun () -> ignore (Skeleton_dist.build ~seed:1 g))
  in
  checkb
    (Printf.sprintf "%d words for G(2000, 8/n), at most 695,777" words)
    true (words <= 695_777)

let suite =
  [
    ( "core.plan",
      [
        Alcotest.test_case "ends with kill" `Quick test_plan_ends_with_kill;
        Alcotest.test_case "density reaches n" `Quick test_plan_density_reaches_n;
        Alcotest.test_case "probabilities valid" `Quick test_plan_probabilities_valid;
        Alcotest.test_case "rounds monotone" `Quick test_plan_rounds_monotone;
        Alcotest.test_case "schedule is short" `Quick test_plan_schedule_is_short;
        Alcotest.test_case "word budget" `Quick test_plan_word_budget;
        Alcotest.test_case "tower phase" `Quick test_plan_tower_grows_like_d;
        Alcotest.test_case "rejects bad args" `Quick test_plan_rejects_bad_args;
      ] );
    ( "core.sampling",
      [
        Alcotest.test_case "bounded by plan" `Quick test_sampling_bounded_by_plan;
        Alcotest.test_case "kill call unsampled" `Quick test_sampling_last_call_never_sampled;
        Alcotest.test_case "sampled consistent" `Quick test_sampling_sampled_consistent;
        Alcotest.test_case "rate of first call" `Quick test_sampling_rate_first_call;
      ] );
    ( "core.contribution",
      [
        Alcotest.test_case "X^0 = 0" `Quick test_contribution_zero_at_t0;
        Alcotest.test_case "below paper bound (ineq 4)" `Quick test_contribution_below_paper_bound;
        Alcotest.test_case "monotone in t" `Quick test_contribution_monotone_in_t;
        Alcotest.test_case "saturates (B-S claim plausible)" `Quick
          test_contribution_saturates;
        Alcotest.test_case "base case (ineq 3)" `Quick test_contribution_base_case_formula;
      ] );
    ( "core.bounds",
      [
        Alcotest.test_case "skeleton size shape" `Quick test_bounds_skeleton_size_shape;
        Alcotest.test_case "Lemma 10 >= Lemma 9" `Quick
          test_bounds_fib_closed_forms_dominate_recurrences;
        Alcotest.test_case "Theorem 7 stages" `Quick test_bounds_fib_stage_values;
        Alcotest.test_case "lower-bound monotonicity" `Quick test_bounds_lb_monotonicity;
      ] );
    ( "core.skeleton",
      [
        Alcotest.test_case "subset of edges" `Quick test_skeleton_subset_of_edges;
        Alcotest.test_case "preserves connectivity" `Quick test_skeleton_preserves_connectivity;
        Alcotest.test_case "preserves components" `Quick test_skeleton_preserves_components;
        Alcotest.test_case "size near Lemma 6" `Quick test_skeleton_size_near_bound;
        Alcotest.test_case "distortion within Theorem 2" `Quick
          test_skeleton_distortion_within_bound;
        Alcotest.test_case "trace invariants" `Quick test_skeleton_trace_invariants;
        Alcotest.test_case "cluster trees spanned" `Quick test_skeleton_cluster_trees_spanned;
        Alcotest.test_case "D sweep" `Quick test_skeleton_d_sweep_size_increases;
        Alcotest.test_case "structured graphs" `Quick test_skeleton_on_structured_graphs;
        Alcotest.test_case "complete graph sparsifies" `Quick
          test_skeleton_complete_graph_sparsifies;
        Alcotest.test_case "tree kept whole" `Quick test_skeleton_tree_keeps_everything;
        QCheck_alcotest.to_alcotest prop_skeleton_connectivity;
      ] );
    ( "core.skeleton_dist",
      [
        Alcotest.test_case "equals sequential" `Quick test_dist_equals_sequential;
        Alcotest.test_case "equals sequential (structured)" `Quick
          test_dist_equals_sequential_structured;
        Alcotest.test_case "message length bounded" `Quick test_dist_message_length_bounded;
        Alcotest.test_case "rounds scale polylog" `Quick test_dist_rounds_scale_polylog;
        Alcotest.test_case "sends in CSR row order" `Quick test_dist_sends_in_row_order;
        QCheck_alcotest.to_alcotest prop_dist_equals_sequential;
      ] );
    ( "core.self_healing",
      [
        Alcotest.test_case "lossy = sequential" `Quick
          test_dist_lossy_equals_sequential;
        Alcotest.test_case "crash recovery certifies" `Quick
          test_dist_crash_recovery_certifies;
        Alcotest.test_case "every single crash certifies" `Quick
          test_every_single_crash_certifies;
        QCheck_alcotest.to_alcotest prop_certifier_accepts;
        QCheck_alcotest.to_alcotest prop_certifier_rejects_mutation;
      ] );
    ( "core.churn_repair",
      [
        Alcotest.test_case "edge kill repaired locally" `Quick
          test_churn_edge_kill_repaired_locally;
        Alcotest.test_case "healed partition ends patched" `Quick
          test_churn_healed_partition_ends_patched;
        Alcotest.test_case "partition never heals" `Quick
          test_churn_partition_never_heals;
        Alcotest.test_case "stuck is structured" `Quick
          test_churn_stuck_is_structured;
        QCheck_alcotest.to_alcotest prop_churn_trace_replay_identical;
      ] );
    ( "skeleton.alloc",
      [
        Alcotest.test_case "loss-free build words" `Quick
          test_lossfree_build_words;
      ] );
  ]
