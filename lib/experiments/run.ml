module Graph = Graphlib.Graph
module Gen = Graphlib.Gen
module Edge_set = Graphlib.Edge_set
module Metrics = Graphlib.Metrics
module Gadget = Graphlib.Gadget
module Sim = Distnet.Sim

let cf = Table.cell_f
let ci = Table.cell_i

let eval_spanner ~rng ~g s =
  let h = Edge_set.to_graph s in
  let sources = Stdlib.min 8 (Graph.n g) in
  Metrics.sampled rng ~g ~h ~sources

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 *)

let e1_fig1 ?(quick = true) ~seed () =
  let n = if quick then 1200 else 4000 in
  let deg = 8. in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(deg /. float_of_int n) in
  let klog =
    int_of_float (Float.ceil (Util.Tower.log2 (float_of_int n)))
  in
  let nf = float_of_int n in
  let row name s (rounds, maxw, msgs) =
    let rep = eval_spanner ~rng ~g s in
    [
      name;
      ci (Edge_set.cardinal s);
      cf (float_of_int (Edge_set.cardinal s) /. nf);
      cf rep.Metrics.max_mult;
      cf rep.Metrics.avg_mult;
      (match rounds with None -> "-" | Some r -> ci r);
      (match maxw with None -> "-" | Some w -> ci w);
      (match msgs with None -> "-" | Some m -> ci m);
    ]
  in
  let of_stats (st : Sim.stats) =
    (Some st.Sim.rounds, Some st.Sim.max_message_words, Some st.Sim.messages)
  in
  let rows = ref [] in
  let push r = rows := r :: !rows in
  let bt = Baseline.Bfs_tree.build g in
  push (row "bfs-tree (seq)" bt.Baseline.Bfs_tree.spanner (None, None, None));
  List.iter
    (fun k ->
      let r = Baseline.Baswana_sen_dist.build ~k ~seed:(seed + k) g in
      push
        (row
           (Printf.sprintf "baswana-sen k=%d" k)
           r.Baseline.Baswana_sen_dist.spanner
           (of_stats r.Baseline.Baswana_sen_dist.stats)))
    [ 2; 3; klog ];
  let gr = Baseline.Greedy.skeleton g in
  push
    (row (Printf.sprintf "greedy k=%d (seq)" gr.Baseline.Greedy.k)
       gr.Baseline.Greedy.spanner (None, None, None));
  let nb_k = 3 in
  let nb = Baseline.Neighborhood_dist.build ~k:nb_k g in
  push
    (row
       (Printf.sprintf "nbhd-collect k=%d" nb_k)
       nb.Baseline.Neighborhood_dist.spanner
       (of_stats nb.Baseline.Neighborhood_dist.stats));
  let sk = Spanner.Skeleton_dist.build ~seed:(seed + 100) g in
  push
    (row "skeleton D=4 eps=.5" sk.Spanner.Skeleton_dist.spanner
       (of_stats sk.Spanner.Skeleton_dist.stats));
  let fb = Spanner.Fibonacci_dist.build ~o:4 ~ell:2 ~t:2 ~seed:(seed + 200) g in
  push
    (row "fibonacci o=4 l=2" fb.Spanner.Fibonacci_dist.spanner
       (of_stats fb.Spanner.Fibonacci_dist.stats));
  {
    Table.id = "E1";
    title = Printf.sprintf "state of the art, measured (G(n,p), n=%d, m=%d)" n (Graph.m g);
    reproduces = "Fig. 1 (comparison table)";
    columns =
      [ "algorithm"; "size"; "size/n"; "max-stretch"; "avg-stretch"; "rounds"; "max-msg"; "messages" ];
    rows = List.rev !rows;
    notes =
      [
        "stretch sampled from 8 BFS sources; '-' = sequential algorithm";
        "nbhd-collect stands in for Dubhashi et al.: note its max-msg column";
        Printf.sprintf "greedy/baswana-sen log-k rows use k = ceil(log2 n) = %d" klog;
      ];
  }

(* ------------------------------------------------------------------ *)
(* E2: skeleton size vs D *)

let e2_size_vs_density ?(quick = true) ~seed () =
  let n = if quick then 3000 else 10_000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(16. /. float_of_int n) in
  let rows =
    List.map
      (fun d ->
        let r = Spanner.Skeleton.build ~d ~seed:(seed + d) g in
        let size = Edge_set.cardinal r.Spanner.Skeleton.spanner in
        let bound = Spanner.Bounds.skeleton_size ~n ~d in
        let dne = float_of_int d *. float_of_int n /. Float.exp 1. in
        [
          ci d;
          ci size;
          cf (float_of_int size /. float_of_int n);
          cf (dne /. float_of_int n);
          cf (bound /. float_of_int n);
          cf (float_of_int size /. bound);
          ci r.Spanner.Skeleton.aborts;
        ])
      [ 4; 6; 8; 12; 16; 24; 32 ]
  in
  {
    Table.id = "E2";
    title = Printf.sprintf "skeleton size vs density D (G(n,p), n=%d, m=%d)" n (Graph.m g);
    reproduces = "Lemma 6: E|S| = Dn/e + O(n log D)";
    columns = [ "D"; "size"; "size/n"; "Dn/e /n"; "Lemma6 /n"; "size/bound"; "aborts" ];
    rows;
    notes = [ "size/bound < 1 everywhere: the Lemma 6 constant is honest" ];
  }

(* ------------------------------------------------------------------ *)
(* E3: skeleton scaling *)

let e3_skeleton_scaling ?(quick = true) ~seed () =
  let sizes = if quick then [ 500; 1000; 2000; 4000 ] else [ 1000; 2000; 4000; 8000; 16_000 ] in
  let rows =
    List.map
      (fun n ->
        let rng = Util.Prng.create ~seed:(seed + n) in
        let g = Gen.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
        let r = Spanner.Skeleton_dist.build ~seed:(seed + n) g in
        let rep = eval_spanner ~rng ~g r.Spanner.Skeleton_dist.spanner in
        let st = r.Spanner.Skeleton_dist.stats in
        [
          ci n;
          ci (Edge_set.cardinal r.Spanner.Skeleton_dist.spanner);
          cf rep.Metrics.max_mult;
          cf (Spanner.Bounds.skeleton_distortion ~n ~d:4 ~eps:0.5);
          ci st.Sim.rounds;
          cf (Spanner.Bounds.skeleton_time ~n ~d:4 ~eps:0.5);
          ci st.Sim.max_message_words;
          ci (Spanner.Plan.make ~n ()).Spanner.Plan.word_budget;
        ])
      sizes
  in
  {
    Table.id = "E3";
    title = "distributed skeleton scaling (G(n,p), avg deg 10)";
    reproduces = "Theorem 2: time O(eps^-1 2^log*n log n), messages O(log^eps n)";
    columns =
      [ "n"; "size"; "max-stretch"; "thm2-distortion"; "rounds"; "thm2-time"; "max-msg"; "budget" ];
    rows;
    notes =
      [
        "measured distortion and rounds sit far below the worst-case bounds";
        "max-msg tracks the (log n)^eps word budget, not n";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E4: Fibonacci staged distortion *)

let e4_fib_stages ?(quick = true) ~seed () =
  let side = if quick then 40 else 80 in
  let g = Gen.king_torus ~width:side ~height:side in
  let n = Graph.n g in
  let o = 4 and ell = 2 in
  let r = Spanner.Fibonacci.build ~o ~ell ~seed g in
  let h = Edge_set.to_graph r.Spanner.Fibonacci.spanner in
  let rng = Util.Prng.create ~seed in
  let profile = Metrics.distance_profile rng ~g ~h ~sources:(Stdlib.min 10 n) in
  let stage_bound d =
    (* Corollary 1: round d up to the next ell'-power, ell' = ceil(d^(1/o)). *)
    let ell' =
      Stdlib.max 1 (int_of_float (Float.ceil (float_of_int d ** (1. /. float_of_int o))))
    in
    Spanner.Bounds.fib_c ~ell:ell' o /. float_of_int d
  in
  let targets = [ 1; 2; 3; 4; 6; 8; 12; 16; side / 2 ] in
  let rows =
    List.filter_map
      (fun d ->
        match Metrics.stretch_at_distance profile d with
        | None -> None
        | Some s -> Some [ ci d; cf s; cf (stage_bound d); cf (s /. stage_bound d) ])
      (List.sort_uniq compare targets)
  in
  {
    Table.id = "E4";
    title =
      Printf.sprintf
        "Fibonacci distortion vs distance (king torus %dx%d, m=%d, o=%d, ell=%d, size=%d)"
        side side (Graph.m g) o ell
        (Edge_set.cardinal r.Spanner.Fibonacci.spanner);
    reproduces = "Theorem 7 / Corollary 1: four-stage distortion, improving with distance";
    columns = [ "distance"; "mean-stretch"; "stage-bound"; "ratio" ];
    rows;
    notes =
      [
        "mean stretch is non-increasing in distance and far below the stage bound";
        "stage-bound = C^o_{ell'} / d with ell' = ceil(d^(1/o)) (Lemma 10)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E5: Fibonacci size vs order *)

let e5_fib_size_vs_order ?(quick = true) ~seed () =
  let n = if quick then 3000 else 8000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(16. /. float_of_int n) in
  let ell = 2 in
  let rows =
    List.map
      (fun o ->
        let r = Spanner.Fibonacci.build ~o ~ell ~seed:(seed + o) g in
        let size = Edge_set.cardinal r.Spanner.Fibonacci.spanner in
        let rep = eval_spanner ~rng ~g r.Spanner.Fibonacci.spanner in
        let bound = Spanner.Bounds.fib_size ~n ~o ~ell in
        [
          ci o;
          ci (Util.Fib.f (o + 3) - 1);
          ci size;
          cf (float_of_int size /. float_of_int n);
          cf (bound /. float_of_int n);
          cf rep.Metrics.max_mult;
          cf rep.Metrics.avg_mult;
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  {
    Table.id = "E5";
    title =
      Printf.sprintf "Fibonacci size vs order (G(n,p), n=%d, m=%d, ell=%d)" n (Graph.m g) ell;
    reproduces = "Lemma 8: size O(o n + n^{1+1/(F_{o+3}-1)} ell^phi)";
    columns = [ "o"; "F_{o+3}-1"; "size"; "size/n"; "bound/n"; "max-stretch"; "avg-stretch" ];
    rows;
    notes = [ "size falls and stretch rises with the order - the sparseness tradeoff" ];
  }

(* ------------------------------------------------------------------ *)
(* E6: Theorem 4 *)

let e6_lb_eps_beta ?(quick = true) ~seed () =
  let n = if quick then 2500 else 8000 in
  let trials = if quick then 20 else 60 in
  let zeta = 0.5 in
  let delta = 0.15 in
  let rng = Util.Prng.create ~seed in
  let rows =
    List.map
      (fun tau ->
        let s = Lowerbound.Adversary.theorem4 ~n ~delta ~zeta ~tau in
        let gd = s.Lowerbound.Adversary.gadget in
        let sum =
          Lowerbound.Adversary.run rng gd ~keep:s.Lowerbound.Adversary.keep_fraction
            ~trials
        in
        let avg_pairs =
          Lowerbound.Adversary.average_pair_distortion rng gd
            ~keep:s.Lowerbound.Adversary.keep_fraction ~pairs:trials
        in
        [
          ci tau;
          ci gd.Gadget.kappa;
          ci gd.Gadget.sigma;
          cf s.Lowerbound.Adversary.keep_fraction;
          cf sum.Lowerbound.Adversary.mean_additive;
          cf sum.Lowerbound.Adversary.predicted_additive;
          cf avg_pairs;
          cf (Spanner.Bounds.lb_eps_beta ~n ~delta ~zeta ~tau);
        ])
      [ 1; 2; 4; 8 ]
  in
  {
    Table.id = "E6";
    title = Printf.sprintf "(1+eps,beta) lower bound on G(tau,sigma,kappa), n~%d" n;
    reproduces = "Theorem 4: E[beta] >= zeta^2 n^{1-delta} / (4 (tau+6)^2) - 2";
    columns =
      [ "tau"; "kappa"; "sigma"; "keep"; "measured-beta"; "harness-pred"; "avg-pair"; "thm4-bound" ];
    rows;
    notes =
      [
        "measured additive distortion decays like 1/tau^2, as the theorem predicts";
        "avg-pair: distortion of random pairs (footnote 7 - the bound is robust)";
        "thm4-bound is the theorem's guaranteed floor (up to its -2 slack)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E7: Theorem 5 *)

let e7_lb_additive ?(quick = true) ~seed () =
  let n = if quick then 3000 else 10_000 in
  let trials = if quick then 20 else 60 in
  let delta = 0.1 in
  let rng = Util.Prng.create ~seed in
  let rows =
    List.map
      (fun beta ->
        let s = Lowerbound.Adversary.theorem5 ~n ~delta ~beta in
        let gd = s.Lowerbound.Adversary.gadget in
        let sum =
          Lowerbound.Adversary.run rng gd ~keep:s.Lowerbound.Adversary.keep_fraction
            ~trials
        in
        [
          cf beta;
          ci s.Lowerbound.Adversary.tau;
          cf (Spanner.Bounds.lb_additive_rounds ~n ~delta ~beta);
          ci gd.Gadget.kappa;
          cf sum.Lowerbound.Adversary.mean_additive;
          (if sum.Lowerbound.Adversary.mean_additive > beta then "yes" else "no");
        ])
      [ 2.; 4.; 8.; 16. ]
  in
  {
    Table.id = "E7";
    title = Printf.sprintf "additive-spanner lower bound, n~%d, size budget n^{1+%g}" n delta;
    reproduces = "Theorem 5: additive beta needs Omega(sqrt(n^{1-delta}/beta)) rounds";
    columns = [ "beta"; "tau-used"; "thm5-tau"; "kappa"; "measured-additive"; "exceeds beta?" ];
    rows;
    notes =
      [
        "at the proof's tau, the measured additive distortion exceeds beta:";
        "a tau-round algorithm cannot deliver an additive-beta spanner";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E8: Fibonacci message budget *)

let e8_fib_budget ?(quick = true) ~seed () =
  let n = if quick then 400 else 1000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
  let params = Spanner.Fib_params.make ~n ~o:3 ~ell:2 () in
  let levels = Spanner.Fib_params.draw_levels (Util.Prng.create ~seed) params in
  let seq = Spanner.Fibonacci.build_with ~params ~levels g in
  let seq_size = Edge_set.cardinal seq.Spanner.Fibonacci.spanner in
  let rows =
    List.map
      (fun t ->
        let d = Spanner.Fibonacci_dist.build_with ~params ~levels ~t g in
        let st = d.Spanner.Fibonacci_dist.stats in
        [
          ci t;
          ci d.Spanner.Fibonacci_dist.budget_words;
          ci d.Spanner.Fibonacci_dist.blocked;
          ci d.Spanner.Fibonacci_dist.failures;
          ci (Edge_set.cardinal d.Spanner.Fibonacci_dist.spanner);
          ci seq_size;
          ci st.Sim.rounds;
          ci st.Sim.max_message_words;
        ])
      (if quick then [ 1; 2; 4; 6 ] else [ 1; 2; 3; 4; 6; 8 ])
  in
  {
    Table.id = "E8";
    title =
      Printf.sprintf "Fibonacci_dist vs message budget n^{1/t} (G(n,p), n=%d, o=3, ell=2)" n;
    reproduces = "Section 4.4: Monte Carlo blocking + Las Vegas recovery";
    columns =
      [ "t"; "budget"; "blocked"; "LV-failures"; "dist-size"; "seq-size"; "rounds"; "max-msg" ];
    rows;
    notes =
      [
        "tight budgets block relays; detected failures trigger keep-all balls,";
        "inflating the spanner - exactly the paper's Monte Carlo/Las Vegas story";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E9: Lemma 6 contribution *)

let e9_contribution ?(quick = true) ~seed:_ () =
  ignore quick;
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun t ->
            let x = Spanner.Contribution.xtp ~p ~t in
            let bound = Spanner.Contribution.paper_bound ~p ~t in
            let bs_claim = float_of_int t +. (2. /. p) in
            [
              cf p;
              ci t;
              cf x;
              cf bound;
              cf (x /. bound);
              cf bs_claim;
              (if x <= bound then "yes" else "NO");
            ])
          [ 1; 10; 100; 1000 ])
      [ 0.5; 0.25; 0.1; 0.05 ]
  in
  {
    Table.id = "E9";
    title = "worst-case per-vertex contribution X^t_p (exact DP)";
    reproduces = "Lemma 6, inequality (4): X^t_p <= p^-1(ln(t+1) - zeta) + t";
    columns = [ "p"; "t"; "X^t_p"; "lemma6-bound"; "ratio"; "BS-style t+2/p"; "bound holds" ];
    rows;
    notes =
      [
        "the corrected bound holds everywhere (ratio < 1)";
        "X^t_p stays near t + Theta(1/p): Baswana-Sen's original claim is";
        "numerically plausible - the paper corrects their proof, not the value";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E10: overlay broadcast *)

let e10_overlay ?(quick = true) ~seed () =
  let n = if quick then 2000 else 6000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(12. /. float_of_int n) in
  let root = 0 in
  let run name h =
    let stats, reached = Distnet.Protocols.flood h ~root ~payload_words:4 in
    let cover = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reached in
    [
      name;
      ci (Graph.m h);
      ci stats.Sim.messages;
      ci stats.Sim.rounds;
      ci cover;
    ]
  in
  let sk = Spanner.Skeleton.build ~seed g in
  let bt = Baseline.Bfs_tree.build g in
  let rows =
    [
      run "full network" g;
      run "skeleton (D=4)" (Edge_set.to_graph sk.Spanner.Skeleton.spanner);
      run "bfs tree" (Edge_set.to_graph bt.Baseline.Bfs_tree.spanner);
    ]
  in
  {
    Table.id = "E10";
    title = Printf.sprintf "broadcast overlay cost (G(n,p), n=%d, m=%d)" n (Graph.m g);
    reproduces = "Section 1: the skeleton as a sparse substitute for the network";
    columns = [ "overlay"; "edges"; "messages"; "rounds(delay)"; "reached" ];
    rows;
    notes =
      [
        "the skeleton floods with ~1/8 the messages at a small delay cost;";
        "the BFS tree is cheaper still but distorts distances unboundedly (E1)";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E11: linear-size strategies head-to-head (contraction ablation) *)

let e11_linear_strategies ?(quick = true) ~seed () =
  let n = if quick then 2000 else 6000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(12. /. float_of_int n) in
  let klog = int_of_float (Float.ceil (Util.Tower.log2 (float_of_int n))) in
  let nf = float_of_int n in
  let row name s =
    let rep = eval_spanner ~rng ~g s in
    [
      name;
      ci (Edge_set.cardinal s);
      cf (float_of_int (Edge_set.cardinal s) /. nf);
      cf rep.Metrics.max_mult;
      cf rep.Metrics.avg_mult;
    ]
  in
  let bs = Baseline.Baswana_sen.build ~k:klog ~seed g in
  let sk = Spanner.Skeleton.build ~d:4 ~seed g in
  let gr = Baseline.Greedy.skeleton g in
  let cb = Spanner.Combined.build ~ell:2 ~seed g in
  {
    Table.id = "E11";
    title =
      Printf.sprintf "linear-size strategies & the contraction ablation (n=%d, m=%d)" n
        (Graph.m g);
    reproduces =
      "Section 2's claim that contraction is what brings the size to O(n)";
    columns = [ "strategy"; "size"; "size/n"; "max-stretch"; "avg-stretch" ];
    rows =
      [
        row (Printf.sprintf "baswana-sen k=%d (no contraction)" klog)
          bs.Baseline.Baswana_sen.spanner;
        row "skeleton D=4 (with contraction)" sk.Spanner.Skeleton.spanner;
        row (Printf.sprintf "greedy k=%d (sequential)" klog) gr.Baseline.Greedy.spanner;
        row "corollary-1 union (fib o* + skeleton)" cb.Spanner.Combined.spanner;
      ];
    notes =
      [
        "Baswana-Sen's clustering alone cannot reach linear size (its kn term);";
        "the skeleton's repeated contraction does, at comparable distortion";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E12: abort-threshold ablation *)

let e12_abort_ablation ?(quick = true) ~seed () =
  let n = if quick then 2000 else 5000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(14. /. float_of_int n) in
  let plan = Spanner.Plan.make ~n () in
  let sampling = Spanner.Sampling.draw (Util.Prng.create ~seed) ~n plan in
  let scaled scale =
    {
      plan with
      Spanner.Plan.calls =
        Array.map
          (fun (c : Spanner.Plan.call) ->
            let q =
              if scale = 0. then 0
              else if scale = infinity then max_int
              else if c.Spanner.Plan.abort_q = max_int then max_int
              else Stdlib.max 1 (int_of_float (float_of_int c.Spanner.Plan.abort_q *. scale))
            in
            { c with Spanner.Plan.abort_q = q })
          plan.Spanner.Plan.calls;
    }
  in
  let rows =
    List.map
      (fun (label, scale) ->
        let r = Spanner.Skeleton.build_with ~plan:(scaled scale) ~sampling g in
        let rep = eval_spanner ~rng ~g r.Spanner.Skeleton.spanner in
        [
          label;
          ci (Edge_set.cardinal r.Spanner.Skeleton.spanner);
          ci r.Spanner.Skeleton.aborts;
          cf rep.Metrics.max_mult;
        ])
      [
        ("0 (always abort)", 0.);
        ("x 1/50", 0.02);
        ("x 1/10", 0.1);
        ("paper (4 s_i ln n)", 1.);
        ("infinite (never)", infinity);
      ]
  in
  {
    Table.id = "E12";
    title = Printf.sprintf "abort-threshold ablation (skeleton, n=%d, m=%d)" n (Graph.m g);
    reproduces = "Theorem 2's q > 4 s_i ln n escape hatch: rare by design";
    columns = [ "threshold"; "size"; "aborts"; "max-stretch" ];
    rows;
    notes =
      [
        "at the paper's threshold the abort never fires; forcing it inflates";
        "the spanner toward m while never hurting distortion";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E13: the distance-oracle application (paper SS5) *)

let e13_oracle ?(quick = true) ~seed () =
  let n = if quick then 1200 else 4000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
  let pairs = if quick then 400 else 2000 in
  let rows =
    List.map
      (fun k ->
        let o = Oracle.Distance_oracle.build ~k ~seed g in
        let stretch = Util.Stats.create () in
        for _ = 1 to pairs do
          let u = Util.Prng.int rng n and v = Util.Prng.int rng n in
          if u <> v then begin
            let exact = (Graphlib.Bfs.distances g ~src:u).(v) in
            match Oracle.Distance_oracle.query o u v with
            | Some est when exact > 0 ->
                Util.Stats.add stretch (float_of_int est /. float_of_int exact)
            | _ -> ()
          end
        done;
        [
          ci k;
          ci (Oracle.Distance_oracle.size o);
          cf (float_of_int (Oracle.Distance_oracle.size o) /. float_of_int n);
          cf (Util.Stats.mean stretch);
          cf (Util.Stats.max stretch);
          ci ((2 * k) - 1);
        ])
      [ 1; 2; 3; 4 ]
  in
  {
    Table.id = "E13";
    title = Printf.sprintf "Thorup-Zwick distance oracles (n=%d, m=%d)" n (Graph.m g);
    reproduces = "SS5's application: space-stretch tradeoffs from the same sampling";
    columns = [ "k"; "space"; "space/n"; "avg-stretch"; "max-stretch"; "2k-1" ];
    rows;
    notes = [ "space collapses from n^2 to ~n^{1+1/k} while stretch stays << 2k-1" ];
  }

(* ------------------------------------------------------------------ *)
(* E14: Corollary 1's union *)

let e14_combined ?(quick = true) ~seed () =
  let side = if quick then 40 else 70 in
  let g = Gen.king_torus ~width:side ~height:side in
  let rng = Util.Prng.create ~seed in
  let o = 4 and ell = 2 in
  let fib = Spanner.Fibonacci.build ~o ~ell ~seed g in
  let cb = Spanner.Combined.build ~o ~ell ~seed g in
  let sk = Spanner.Skeleton.build ~d:4 ~seed:(seed + 1) g in
  let profile s =
    let h = Edge_set.to_graph s in
    Metrics.distance_profile rng ~g ~h ~sources:8
  in
  let row name s =
    let p = profile s in
    let at d =
      match Metrics.stretch_at_distance p d with Some s -> cf s | None -> "-"
    in
    [ name; ci (Edge_set.cardinal s); at 1; at 2; at 4; at 10; at (side / 2) ]
  in
  {
    Table.id = "E14";
    title =
      Printf.sprintf "Corollary 1: Fibonacci + skeleton union (king torus %dx%d)" side side;
    reproduces = "Corollary 1's distortion table (short range capped by the skeleton)";
    columns = [ "spanner"; "size"; "d=1"; "d=2"; "d=4"; "d=10"; "d=far" ];
    rows =
      [
        row "fibonacci alone" fib.Spanner.Fibonacci.spanner;
        row "skeleton alone" sk.Spanner.Skeleton.spanner;
        row "corollary-1 union" cb.Spanner.Combined.spanner;
      ];
    notes =
      [
        "the union inherits the skeleton's short-range cap and the Fibonacci";
        "spanner's long-range (1+eps) behavior, at the cost of the summed size";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E15: Theorem 6 — sublinear additive spanners *)

let e15_lb_sublinear ?(quick = true) ~seed () =
  let n = if quick then 2500 else 8000 in
  let trials = if quick then 15 else 50 in
  let rng = Util.Prng.create ~seed in
  let rows =
    List.map
      (fun (nu, xi) ->
        let s = Lowerbound.Adversary.theorem6 ~n ~nu ~xi ~c:2. in
        let gd = s.Lowerbound.Adversary.gadget in
        let sum =
          Lowerbound.Adversary.run rng gd ~keep:s.Lowerbound.Adversary.keep_fraction
            ~trials
        in
        let u, v = Gadget.observers gd in
        let d = (Graphlib.Bfs.distances gd.Gadget.graph ~src:u).(v) in
        (* the sublinear-additive promise at the observers' distance *)
        let promised = 2. *. (float_of_int d ** (1. -. nu)) in
        [
          cf nu;
          cf xi;
          ci s.Lowerbound.Adversary.tau;
          ci d;
          cf sum.Lowerbound.Adversary.mean_additive;
          cf promised;
          (if sum.Lowerbound.Adversary.mean_additive > promised then "yes" else "no");
        ])
      [ (0.5, 0.05); (0.5, 0.15); (0.34, 0.05); (0.25, 0.05) ]
  in
  {
    Table.id = "E15";
    title = Printf.sprintf "sublinear-additive lower bound (Theorem 6), n~%d" n;
    reproduces = "Theorem 6: d + O(d^{1-nu}) spanners need n^{Omega(1)} rounds";
    columns =
      [ "nu"; "xi"; "tau-used"; "obs-dist d"; "measured-add"; "promise 2d^{1-nu}"; "violated?" ];
    rows;
    notes =
      [
        "at the proof's tau, measured distortion exceeds the d + 2 d^{1-nu}";
        "promise: no tau-round algorithm delivers a sublinear-additive spanner";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E16: the size-girth frontier behind the background bounds *)

let e16_girth_frontier ?(quick = true) ~seed () =
  let n = if quick then 600 else 1500 in
  let rng = Util.Prng.create ~seed in
  (* Dense input so the greedy frontier, not the input, limits size. *)
  let g = Gen.connected_gnp rng ~n ~p:(40. /. float_of_int n) in
  let rows =
    List.map
      (fun k ->
        let r = Baseline.Greedy.build ~k g in
        let h = Edge_set.to_graph r.Baseline.Greedy.spanner in
        let girth =
          match Graphlib.Girth.girth h with Some c -> ci c | None -> "inf"
        in
        let bound = float_of_int n ** (1. +. (1. /. float_of_int k)) in
        [
          ci k;
          ci ((2 * k) - 1);
          ci (Edge_set.cardinal r.Baseline.Greedy.spanner);
          girth;
          ci ((2 * k) + 1);
          cf bound;
          cf (float_of_int (Edge_set.cardinal r.Baseline.Greedy.spanner) /. bound);
        ])
      [ 2; 3; 4; 5 ]
  in
  {
    Table.id = "E16";
    title = Printf.sprintf "size-girth frontier (greedy, G(n,p), n=%d, m=%d)" n (Graph.m g);
    reproduces =
      "the girth-conjecture background (SS1): (2k-1)-spanners of size O(n^{1+1/k})";
    columns =
      [ "k"; "stretch 2k-1"; "size"; "girth"; ">= 2k+1"; "n^{1+1/k}"; "size/bound" ];
    rows;
    notes =
      [ "girth always exceeds 2k and the size stays below the Moore-type bound" ];
  }

(* ------------------------------------------------------------------ *)
(* E17: the streaming model of SS1.4 *)

let e17_streaming ?(quick = true) ~seed () =
  let n = if quick then 250 else 800 in
  let rng = Util.Prng.create ~seed in
  (* A dense stream: every pair arrives in random order. *)
  let g = Gen.complete n in
  let edges = ref [] in
  Graph.iter_edges g (fun _ u v -> edges := (u, v) :: !edges);
  let arr = Array.of_list !edges in
  Util.Prng.shuffle rng arr;
  let stream = Array.to_list arr in
  let rows =
    List.map
      (fun k ->
        let t = Baseline.Streaming.of_stream ~n ~k stream in
        let frontier = float_of_int n ** (1. +. (1. /. float_of_int k)) in
        [
          ci k;
          ci (Baseline.Streaming.offered t);
          ci (Baseline.Streaming.size t);
          cf (float_of_int (Baseline.Streaming.size t) /. frontier);
          ci ((2 * k) - 1);
        ])
      [ 2; 3; 4 ]
  in
  {
    Table.id = "E17";
    title = Printf.sprintf "single-pass streaming spanner (K_%d, random arrival)" n;
    reproduces = "SS1.4's streaming model: O(n^{1+1/k}) memory, stretch 2k-1";
    columns = [ "k"; "stream"; "memory (edges)"; "memory/frontier"; "stretch" ];
    rows;
    notes =
      [ "held edges stay under the n^{1+1/k} frontier on the densest stream" ];
  }

(* ------------------------------------------------------------------ *)
(* E18: the analytic beta comparison of SS1.2 *)

let e18_beta_comparison ?(quick = true) ~seed:_ () =
  ignore quick;
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun t ->
            let eps = 0.5 in
            let fib = Spanner.Bounds.log10_fib_beta ~n ~eps ~t in
            let ez = Spanner.Bounds.log10_ez_beta ~n ~eps ~t in
            [
              ci n;
              ci t;
              cf fib;
              cf ez;
              cf (ez -. fib);
              (if fib < ez then "fibonacci" else "elkin-zhang");
            ])
          [ 1; 2; 4 ])
      [ 1000; 100_000; 10_000_000; 1_000_000_000 ]
  in
  {
    Table.id = "E18";
    title = "sparsest-spanner beta: Fibonacci vs Elkin-Zhang (analytic, eps=0.5)";
    reproduces =
      "SS1.2: our beta \"compares favorably\" with Elkin-Zhang's at equal message budgets";
    columns =
      [ "n"; "t"; "log10 beta (fib)"; "log10 beta (EZ)"; "gap (digits)"; "winner" ];
    rows;
    notes =
      [
        "beta = (eps^-1(log_phi log n + t))^{log_phi log n + t} vs";
        "(eps^-1 t^2 log n loglog n)^{t loglog n}: beyond the smallest n/t the";
        "Fibonacci beta wins by orders of magnitude, widening with n and t";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E19: (1+eps,beta) behavior - superclustering vs Fibonacci *)

let e19_eps_beta_behavior ?(quick = true) ~seed () =
  let side = if quick then 36 else 60 in
  let g = Gen.king_torus ~width:side ~height:side in
  let rng = Util.Prng.create ~seed in
  let profile s =
    Metrics.distance_profile rng ~g ~h:(Edge_set.to_graph s) ~sources:10
  in
  let additive p d =
    match Metrics.stretch_at_distance p d with
    | Some s -> Table.cell_f ((s -. 1.) *. float_of_int d)
    | None -> "-"
  in
  let row name s =
    let p = profile s in
    [ name; ci (Edge_set.cardinal s); additive p 1; additive p 4; additive p 8; additive p (side / 3) ]
  in
  let sc = Baseline.Supercluster.build ~eps:0.5 ~seed g in
  let fib = Spanner.Fibonacci.build ~o:4 ~ell:2 ~seed g in
  {
    Table.id = "E19";
    title =
      Printf.sprintf "(1+eps,beta) behavior: superclustering vs Fibonacci (king torus %dx%d, m=%d)"
        side side (Graph.m g);
    reproduces =
      "SS1.2/SS4: both saturate additively, but the Fibonacci spanner is far sparser";
    columns = [ "construction"; "size"; "+err d=1"; "+err d=4"; "+err d=8"; "+err far" ];
    rows =
      [
        row "superclustering (EZ-style)" sc.Baseline.Supercluster.spanner;
        row "fibonacci o=4 ell=2" fib.Spanner.Fibonacci.spanner;
      ];
    notes =
      [
        "additive error (mean over pairs at that distance) stays flat with";
        "distance for both - the (1+eps,beta) signature; the Fibonacci spanner";
        "achieves it with far fewer edges, the paper's improvement over [24]";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E20: compact routing - the SS5 closing question, measured *)

let e20_compact_routing ?(quick = true) ~seed () =
  let n = if quick then 600 else 2000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
  let r = Oracle.Compact_routing.build ~seed g in
  let pairs = if quick then 400 else 1500 in
  let stretch = Util.Stats.create () in
  let worst = ref 1. in
  for _ = 1 to pairs do
    let u = Util.Prng.int rng n and v = Util.Prng.int rng n in
    if u <> v then begin
      let exact = (Graphlib.Bfs.distances g ~src:u).(v) in
      match Oracle.Compact_routing.route r ~src:u ~dst:v with
      | Some path when exact > 0 ->
          let s = float_of_int (List.length path - 1) /. float_of_int exact in
          Util.Stats.add stretch s;
          if s > !worst then worst := s
      | _ -> ()
    end
  done;
  let avg_state = float_of_int (Oracle.Compact_routing.total_state r) /. float_of_int n in
  {
    Table.id = "E20";
    title = Printf.sprintf "compact routing tables (G(n,p), n=%d, m=%d)" n (Graph.m g);
    reproduces = "SS5's closing question: routing state vs route stretch";
    columns =
      [ "landmarks"; "avg state/node"; "full table"; "mean stretch"; "max stretch" ];
    rows =
      [
        [
          ci (List.length (Oracle.Compact_routing.landmarks r));
          cf avg_state;
          ci n;
          cf (Util.Stats.mean stretch);
          cf !worst;
        ];
      ];
    notes =
      [
        "Cowen/TZ-style: O(sqrt n)-ish state per node instead of n entries,";
        "at a measured stretch far below the provable <= 5 (<= 3 in [11])";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E21: convergence under faults — the model's loss-free assumption
   relaxed.  Reliable (ARQ-lifted) BFS and skeleton-overlay broadcast
   as the drop rate sweeps 0 -> 30%. *)

let e21_faults ?(quick = true) ~seed () =
  let n = if quick then 800 else 3000 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(10. /. float_of_int n) in
  let root = 0 in
  (* Loss-free baselines in the paper's model: what the fault tolerance
     must be measured against. *)
  let bfs_base, expected = Distnet.Protocols.bfs g ~root in
  let sk = Spanner.Skeleton.build ~d:4 ~seed g in
  let overlay = Edge_set.to_graph sk.Spanner.Skeleton.spanner in
  let flood_base, _ = Distnet.Protocols.flood overlay ~root ~payload_words:4 in
  let ratio a b = float_of_int a /. float_of_int (Stdlib.max 1 b) in
  let rows =
    List.map
      (fun drop ->
        let faults drop salt =
          if drop = 0. then Distnet.Fault.none
          else
            Distnet.Fault.make ~seed:(seed + salt)
              { Distnet.Fault.default_spec with Distnet.Fault.drop }
        in
        let bst, dist =
          Distnet.Protocols.reliable_bfs ~faults:(faults drop 31) g ~root
        in
        let fst_, reached =
          Distnet.Protocols.reliable_flood ~faults:(faults drop 67) overlay
            ~root ~payload_words:4
        in
        let all_reached = Array.for_all (fun b -> b) reached in
        [
          cf drop;
          ci bst.Sim.rounds;
          ci bst.Sim.words;
          cf (ratio bst.Sim.words bfs_base.Sim.words);
          (if dist = expected then "yes" else "NO");
          ci fst_.Sim.rounds;
          cf (ratio fst_.Sim.words flood_base.Sim.words);
          (if all_reached then "yes" else "NO");
        ])
      [ 0.; 0.05; 0.1; 0.2; 0.3 ]
  in
  {
    Table.id = "E21";
    title =
      Printf.sprintf
        "convergence under faults: reliable BFS + skeleton broadcast (n=%d, m=%d)"
        n (Graph.m g);
    reproduces =
      "beyond the paper: Section 1.1's loss-free model relaxed via ARQ";
    columns =
      [
        "drop";
        "bfs-rounds";
        "bfs-words";
        "bfs-x-words";
        "bfs-correct";
        "flood-rounds";
        "flood-x-words";
        "flood-ok";
      ];
    rows;
    notes =
      [
        Printf.sprintf
          "x-words = words vs the loss-free paper-model baseline (bfs %d, \
           skeleton flood %d words)"
          bfs_base.Sim.words flood_base.Sim.words;
        "drop 0 uses the ARQ layer too: its x-words is the pure ack/seq tax;";
        "higher drop converts losses into retransmissions, never into wrong";
        "answers - the correctness columns stay 'yes' at every rate";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E22: self-healing skeleton — recovery overhead and output quality
   under crash-stops and message loss. *)

let e22_recovery ?(quick = true) ~seed () =
  let n = if quick then 256 else 512 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
  (* One fixed random tape: the loss-free distributed run is the
     baseline, and every faulty cell reruns the same construction so
     the deltas are pure fault effects. *)
  let plan = Spanner.Plan.make ~n ~d:4 () in
  let sampling =
    Spanner.Sampling.draw (Util.Prng.create ~seed:(seed + 5)) ~n plan
  in
  let base = Spanner.Skeleton_dist.build_with ~plan ~sampling g in
  let base_size = Edge_set.cardinal base.Spanner.Skeleton_dist.spanner in
  let base_stats = base.Spanner.Skeleton_dist.stats in
  let ratio a b = float_of_int a /. float_of_int (Stdlib.max 1 b) in
  let rows =
    List.concat_map
      (fun crash_frac ->
        List.map
          (fun drop ->
            let faults =
              if crash_frac = 0. && drop = 0. then Distnet.Fault.none
              else
                Distnet.Fault.make ~seed:(seed + 31)
                  {
                    Distnet.Fault.default_spec with
                    Distnet.Fault.drop;
                    crashes =
                      Distnet.Fault.random_crashes ~seed:(seed + 87) ~n
                        ~frac:crash_frac ~max_round:1000;
                  }
            in
            let r = Spanner.Skeleton_dist.build_with ~faults ~plan ~sampling g in
            let rc = r.Spanner.Skeleton_dist.recovery in
            let verdict = Spanner.Skeleton_dist.certify ~faults g r in
            let size = Edge_set.cardinal r.Spanner.Skeleton_dist.spanner in
            let st = r.Spanner.Skeleton_dist.stats in
            [
              cf crash_frac;
              cf drop;
              ci rc.Spanner.Skeleton_dist.crashed;
              ci rc.Spanner.Skeleton_dist.orphaned;
              ci size;
              cf (ratio size base_size);
              ci rc.Spanner.Skeleton_dist.recovered_edges;
              cf (ratio st.Sim.rounds base_stats.Sim.rounds);
              cf (ratio st.Sim.words base_stats.Sim.words);
              (if Spanner.Certify.ok verdict then "yes" else "NO");
              cf verdict.Spanner.Certify.max_stretch;
            ])
          [ 0.; 0.2 ])
      [ 0.; 0.05; 0.1 ]
  in
  {
    Table.id = "E22";
    title =
      Printf.sprintf
        "self-healing skeleton: crash recovery + certification (n=%d, m=%d)" n
        (Graph.m g);
    reproduces =
      "beyond the paper: Theorem 2's construction under crash-stop faults";
    columns =
      [
        "crash";
        "drop";
        "crashed";
        "orphaned";
        "size";
        "x-size";
        "recovered";
        "x-rounds";
        "x-words";
        "certified";
        "max-stretch";
      ];
    rows;
    notes =
      [
        "same random tape everywhere: the (0, 0) cell equals the loss-free";
        "sequential output edge for edge, and every delta is a fault effect;";
        "orphan recovery keeps all incident live edges, so crashes cost size";
        "(x-size, recovered) but never stretch - 'certified' stays yes, with";
        "the stretch audited on the surviving graph G minus crashed";
      ];
  }

(* Churn guaranteed to damage the spanner: hook edges are always
   spanner edges, so take down [k] of [r]'s cluster-tree hook edges,
   picked by a [seed]ed shuffle, at [round]. *)
let hook_damage ~seed ~k ~round g (r : Spanner.Skeleton_dist.result) =
  let w = r.Spanner.Skeleton_dist.witness in
  let hooks =
    Array.to_list w.Spanner.Certify.parent_edge
    |> List.filteri (fun v _ -> w.Spanner.Certify.parent.(v) >= 0)
    |> List.sort_uniq compare |> Array.of_list
  in
  Util.Prng.shuffle (Util.Prng.create ~seed) hooks;
  List.init (Stdlib.min k (Array.length hooks)) (fun i ->
      let u, v = Graph.edge_endpoints g hooks.(i) in
      Distnet.Fault.Edge_down { round; u; v })

(* ------------------------------------------------------------------ *)
(* E23: incremental repair under topology churn — the local repair
   pass vs a from-scratch rebuild on the surviving graph, across a
   churn scenario × message-loss matrix. *)

let e23_churn ?(quick = true) ~seed () =
  let n = if quick then 96 else 192 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
  let plan = Spanner.Plan.make ~n ~d:4 () in
  let sampling =
    Spanner.Sampling.draw (Util.Prng.create ~seed:(seed + 5)) ~n plan
  in
  (* The loss-free run fixes the tape and tells us which edges are
     cluster-tree hooks. *)
  let base = Spanner.Skeleton_dist.build_with ~plan ~sampling g in
  let drop_hooks k round = hook_damage ~seed:(seed + 7) ~k ~round g base in
  (* Partition: cut the island {0 .. n/8 - 1} off, heal later. *)
  let island = n / 8 in
  let cut =
    let l = ref [] in
    Graph.iter_edges g (fun _ u v ->
        if u < island <> (v < island) then l := (u, v) :: !l);
    List.rev !l
  in
  let scenarios =
    [
      ("edge/4", drop_hooks 4 40);
      ("edge/10", drop_hooks 10 40);
      ( "part/heal",
        [ Distnet.Fault.Partition { round = 5; edges = cut; heal = Some 150 } ]
      );
    ]
  in
  let rows =
    List.concat_map
      (fun (label, churn) ->
        List.map
          (fun drop ->
            let faults =
              Distnet.Fault.make ~seed:(seed + 31) ~graph:g
                {
                  Distnet.Fault.default_spec with
                  Distnet.Fault.drop;
                  churn;
                }
            in
            let r = Spanner.Skeleton_dist.build_with ~faults ~plan ~sampling g in
            let rp = r.Spanner.Skeleton_dist.repair in
            let dead = r.Spanner.Skeleton_dist.dead_edges in
            (* From-scratch competitor: rerun the whole distributed
               construction on the surviving graph (churn's down edges
               removed), loss-free — the cost a restart would pay. *)
            let survivor =
              let b = Graph.Builder.create ~n in
              Graph.iter_edges g (fun e u v ->
                  if not (List.mem e dead) then Graph.Builder.add_edge b u v);
              Graph.Builder.build b
            in
            let rebuilt =
              Spanner.Skeleton_dist.build_with ~plan ~sampling survivor
            in
            let verdict = Spanner.Skeleton_dist.certify ~faults g r in
            let size = Edge_set.cardinal r.Spanner.Skeleton_dist.spanner in
            let rb_size =
              Edge_set.cardinal rebuilt.Spanner.Skeleton_dist.spanner
            in
            [
              label;
              cf drop;
              Format.asprintf "%a" Spanner.Skeleton_dist.pp_outcome
                rp.Spanner.Skeleton_dist.outcome;
              ci rp.Spanner.Skeleton_dist.dead_spanner_edges;
              ci rp.Spanner.Skeleton_dist.rehooked;
              ci rp.Spanner.Skeleton_dist.replaced_edges;
              ci rp.Spanner.Skeleton_dist.repair_rounds;
              ci rebuilt.Spanner.Skeleton_dist.stats.Sim.rounds;
              cf
                (float_of_int size
                /. float_of_int (Stdlib.max 1 rb_size));
              (if Spanner.Certify.ok verdict then "yes" else "NO");
            ])
          [ 0.; 0.1 ])
      scenarios
  in
  {
    Table.id = "E23";
    title =
      Printf.sprintf
        "incremental repair under churn: local patch vs rebuild (n=%d, m=%d)" n
        (Graph.m g);
    reproduces =
      "beyond the paper: Theorem 2's construction under topology churn";
    columns =
      [
        "churn";
        "drop";
        "outcome";
        "dead";
        "rehooked";
        "replaced";
        "repair-rds";
        "rebuild-rds";
        "x-size";
        "certified";
      ];
    rows;
    notes =
      [
        "edge/k drops k cluster-tree hook edges mid-run (guaranteed spanner";
        "damage); part/heal cuts the n/8 island off at round 5 and heals it";
        "at 150.  repair-rds is the incremental pass alone, rebuild-rds a";
        "loss-free from-scratch run on the surviving graph - local repair";
        "is the cheaper option whenever repair-rds < rebuild-rds.  x-size =";
        "churned size / rebuilt size; certification runs per component with";
        "down edges excluded from both sides of the stretch audit";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E24: per-phase cost breakdown — where the rounds, messages, and
   words actually go, attributed by the observability layer.  Same
   scenario families as E22 (loss + crashes) and E23 (churn). *)

let e24_phase_breakdown ?(quick = true) ~seed () =
  let n = if quick then 96 else 192 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
  let plan = Spanner.Plan.make ~n ~d:4 () in
  let sampling =
    Spanner.Sampling.draw (Util.Prng.create ~seed:(seed + 5)) ~n plan
  in
  (* As in E23: learn the cluster-tree hooks from a loss-free run so
     the churn scenario is guaranteed to damage the spanner. *)
  let base = Spanner.Skeleton_dist.build_with ~plan ~sampling g in
  let churn = hook_damage ~seed:(seed + 7) ~k:4 ~round:40 g base in
  let crash_faults =
    Distnet.Fault.make ~seed:(seed + 31)
      {
        Distnet.Fault.default_spec with
        Distnet.Fault.drop = 0.2;
        crashes =
          Distnet.Fault.random_crashes ~seed:(seed + 87) ~n ~frac:0.05
            ~max_round:300;
      }
  in
  let churn_faults =
    Distnet.Fault.make ~seed:(seed + 31) ~graph:g
      { Distnet.Fault.default_spec with Distnet.Fault.churn }
  in
  let scenarios =
    [
      ("loss-free", Distnet.Fault.none);
      ("drop20+crash", crash_faults);
      ("churn/4", churn_faults);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, faults) ->
        let metrics = Obs.Metrics.create () in
        let r =
          Spanner.Skeleton_dist.build_with ~faults ~metrics ~plan ~sampling g
        in
        let st = r.Spanner.Skeleton_dist.stats in
        let phases = Obs.Report.phase_rows (Obs.Metrics.snapshot metrics) in
        let total = Obs.Report.totals phases in
        List.map
          (fun (p : Obs.Report.phase_row) ->
            [
              label;
              p.Obs.Report.phase;
              ci p.Obs.Report.rounds;
              ci p.Obs.Report.messages;
              ci p.Obs.Report.words;
              ci p.Obs.Report.max_words;
              cf
                (100.
                *. float_of_int p.Obs.Report.rounds
                /. float_of_int (Stdlib.max 1 st.Sim.rounds));
            ])
          (phases @ [ total ]))
      scenarios
  in
  {
    Table.id = "E24";
    title =
      Printf.sprintf "per-phase cost breakdown (n=%d, m=%d)" n (Graph.m g);
    reproduces =
      "observability: Theorem 2's round/word budget attributed per phase";
    columns =
      [ "scenario"; "phase"; "rounds"; "messages"; "words"; "max-w"; "%rounds" ];
    rows;
    notes =
      [
        "per-phase counters from the metrics registry; each scenario's";
        "totals row equals the run's network stats (the attribution is";
        "exact, not sampled).  loss-free runs on the bare engine; the";
        "faulty scenarios (E22's drop+crash, E23's hook churn) pay their";
        "overhead mostly in exchange (ARQ retries) and the death/repair";
        "phases";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E25: the spanner as a live service — freeze the skeleton into a
   snapshot, answer a large query workload, measure throughput and
   tail latency, and keep serving across an atomic snapshot swap while
   churn repair rebuilds in the background.  Answers are audited
   against sampled BFS ground truth. *)

let e25_serving ?(quick = true) ~seed () =
  let n = if quick then 160 else 400 in
  let queries = if quick then 20_000 else 200_000 in
  let k = 2 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
  let base = Spanner.Skeleton_dist.build ~seed g in
  let spanner = base.Spanner.Skeleton_dist.spanner in
  (* Churn that is guaranteed to damage the spanner, as in E23/E24. *)
  let churn = hook_damage ~seed:(seed + 7) ~k:2 ~round:40 g base in
  let workload zipf =
    Serve.Workload.generate ~seed:(seed + 41) ~n
      { Serve.Workload.queries; zipf; route_frac = 0.25 }
  in
  let scenario label zipf ~churned =
    let w = workload zipf in
    let snap0 =
      Serve.Snapshot.build ~generation:0 ~k ~seed ~routing:true g spanner
    in
    let server = Serve.Server.create snap0 in
    let rebuild () =
      let faults =
        Distnet.Fault.make ~seed:(seed + 31) ~graph:g
          { Distnet.Fault.default_spec with Distnet.Fault.churn }
      in
      let rr = Spanner.Skeleton_dist.build ~faults ~seed g in
      Serve.Snapshot.build ~generation:1 ~k ~seed ~routing:true
        ~exclude:rr.Spanner.Skeleton_dist.dead_edges g
        rr.Spanner.Skeleton_dist.spanner
    in
    let rep =
      if churned then Serve.Server.run_swap server w ~rebuild
      else Serve.Server.run server w
    in
    let a =
      Serve.Server.audit ~samples:64 ~seed:(seed + 53)
        (Serve.Server.snapshot server)
        w
    in
    let lat = rep.Serve.Server.latency_sorted in
    [
      label;
      ci rep.Serve.Server.answered;
      cf
        (float_of_int rep.Serve.Server.answered
        *. 1e3
        /. float_of_int (Stdlib.max 1 rep.Serve.Server.elapsed_ns));
      cf (Util.Stats.p50_of_sorted lat);
      cf (Util.Stats.p90_of_sorted lat);
      cf (Util.Stats.p99_of_sorted lat);
      ci rep.Serve.Server.stale;
      ci rep.Serve.Server.failed;
      ci (Serve.Server.swaps server);
      cf a.Serve.Server.max_stretch;
      (if Serve.Server.audit_ok a then "yes" else "NO");
    ]
  in
  let rows =
    [
      scenario "steady/uniform" None ~churned:false;
      scenario "steady/zipf1.2" (Some 1.2) ~churned:false;
      scenario "churn+swap" None ~churned:true;
    ]
  in
  {
    Table.id = "E25";
    title =
      Printf.sprintf "query serving: throughput and tail latency (n=%d, %d \
                      queries)"
        n queries;
    reproduces =
      "the skeleton as a live distance/route service (snapshot + oracle)";
    columns =
      [
        "scenario"; "queries"; "Mq/s"; "p50ns"; "p90ns"; "p99ns"; "stale";
        "failed"; "swaps"; "x-max"; "audit";
      ];
    rows;
    notes =
      [
        "distance queries answered by the Thorup-Zwick oracle (stretch";
        "<= 2k-1), route queries by compact routing (stretch <= 5), both";
        "precomputed over the frozen spanner snapshot.  churn+swap serves";
        "one third fresh, marks the snapshot stale when churn lands, keeps";
        "serving while the skeleton rebuilds, then publishes generation 1";
        "atomically - zero failed queries across the swap.  latency and";
        "Mq/s are wall-clock measurements and vary per host; counts,";
        "staleness, and the audit verdict are deterministic in the seed";
      ];
  }

let e26_resilience_sweep ?(quick = true) ~seed:_ () =
  (* Scenario families are self-seeded: a sweep's whole point is that
     the spec text alone reproduces it. *)
  let samples = if quick then 8 else 40 in
  let row spec =
    let agg = Scenario.Sweep.run spec ~samples in
    let shrunk =
      (* Shrink the first failure (if any) and report how small the
         reproducer got — the deliberately failing family demonstrates
         the ladder end to end. *)
      match agg.Scenario.Sweep.failures with
      | [] -> "-"
      | r :: _ ->
          let s = Scenario.Sweep.shrink ~max_evals:80 r in
          Printf.sprintf "%d->%d%s"
            (Scenario.Shrink.weight r.Scenario.Sweep.plan)
            (Scenario.Shrink.weight s.Scenario.Shrink.plan)
            (if s.Scenario.Shrink.verified then "" else "?")
    in
    [
      agg.Scenario.Sweep.scenario;
      ci agg.Scenario.Sweep.samples;
      ci agg.Scenario.Sweep.intact;
      ci agg.Scenario.Sweep.patched;
      ci agg.Scenario.Sweep.degraded;
      ci agg.Scenario.Sweep.partitioned;
      ci (Scenario.Sweep.failed agg);
      ci agg.Scenario.Sweep.worst_rounds;
      ci agg.Scenario.Sweep.worst_size;
      cf agg.Scenario.Sweep.worst_stretch;
      shrunk;
    ]
  in
  let rows = List.map (fun (_, spec) -> row spec) Scenario.Spec.builtins in
  {
    Table.id = "E26";
    title =
      Printf.sprintf "resilience sweep: %d sampled scenarios per family"
        samples;
    reproduces =
      "survival of the construction under probabilistic fault scenarios";
    columns =
      [
        "scenario"; "N"; "intact"; "patched"; "degr"; "part"; "FAIL";
        "w-rounds"; "w-size"; "x-max"; "shrink";
      ];
    rows;
    notes =
      [
        "each sample compiles the scenario family (Gilbert-Elliott bursty";
        "loss, correlated crash storms, heavy-tailed churn) to a concrete";
        "fault plan, runs the distributed construction over it, certifies";
        "the output, and lands on the repair ladder; FAILed samples are";
        "delta-debugged to a minimal replayable plan (shrink = reproducer";
        "weight before->after).  tight-budget fails by design: its round";
        "budget sits below its churn tax, exercising the shrinker";
      ];
  }

(* ------------------------------------------------------------------ *)
(* E27: crash-recovery — nodes crash mid-run and rejoin with a fresh
   incarnation; the rejoin repair pass vs a from-scratch rebuild on
   the surviving graph, across a restart scenario × loss matrix. *)

let e27_crash_recovery ?(quick = true) ~seed () =
  let n = if quick then 96 else 192 in
  let rng = Util.Prng.create ~seed in
  let g = Gen.connected_gnp rng ~n ~p:(8. /. float_of_int n) in
  let plan = Spanner.Plan.make ~n ~d:4 () in
  let sampling =
    Spanner.Sampling.draw (Util.Prng.create ~seed:(seed + 5)) ~n plan
  in
  (* Deterministic node picks shared by all scenarios: the first k of
     one shuffle, so rejoin/8 crashes a superset of rejoin/3's nodes. *)
  let picks =
    let a = Array.init n (fun i -> i) in
    Util.Prng.shuffle (Util.Prng.create ~seed:(seed + 7)) a;
    a
  in
  let schedule ~crashed ~restarted =
    let crng = Util.Prng.create ~seed:(seed + 87) in
    let crashes =
      List.init crashed (fun i -> (picks.(i), 5 + Util.Prng.int crng 20))
    in
    let restarts =
      List.filteri (fun i _ -> i < restarted) crashes
      |> List.map (fun (v, r) -> (v, r + 40 + Util.Prng.int crng 60))
    in
    (crashes, restarts)
  in
  let scenarios =
    [
      ("rejoin/3", schedule ~crashed:3 ~restarted:3);
      ("rejoin/8", schedule ~crashed:8 ~restarted:8);
      ("mixed/8", schedule ~crashed:8 ~restarted:4);
    ]
  in
  let rows =
    List.concat_map
      (fun (label, (crashes, restarts)) ->
        List.map
          (fun drop ->
            let faults =
              Distnet.Fault.make ~seed:(seed + 31) ~graph:g
                {
                  Distnet.Fault.default_spec with
                  Distnet.Fault.drop;
                  crashes;
                  restarts;
                }
            in
            let r = Spanner.Skeleton_dist.build_with ~faults ~plan ~sampling g in
            let rp = r.Spanner.Skeleton_dist.repair in
            (* From-scratch competitor: rerun the whole construction,
               loss-free, on the graph without the never-rejoining
               nodes — the cost of discarding all state instead of
               repairing around the rejoin. *)
            let survivor =
              let dead = Array.make n false in
              List.iter
                (fun (v, _) ->
                  if not (List.mem_assoc v restarts) then dead.(v) <- true)
                crashes;
              let b = Graph.Builder.create ~n in
              Graph.iter_edges g (fun _ u v ->
                  if not (dead.(u) || dead.(v)) then
                    Graph.Builder.add_edge b u v);
              Graph.Builder.build b
            in
            let rebuilt =
              Spanner.Skeleton_dist.build_with ~plan ~sampling survivor
            in
            let verdict = Spanner.Skeleton_dist.certify ~faults g r in
            let size = Edge_set.cardinal r.Spanner.Skeleton_dist.spanner in
            let rb_size =
              Edge_set.cardinal rebuilt.Spanner.Skeleton_dist.spanner
            in
            [
              label;
              cf drop;
              Format.asprintf "%a" Spanner.Skeleton_dist.pp_outcome
                rp.Spanner.Skeleton_dist.outcome;
              ci (List.length crashes);
              ci rp.Spanner.Skeleton_dist.rejoined;
              ci rp.Spanner.Skeleton_dist.rehooked;
              ci rp.Spanner.Skeleton_dist.repair_rounds;
              ci rebuilt.Spanner.Skeleton_dist.stats.Sim.rounds;
              cf (float_of_int size /. float_of_int (Stdlib.max 1 rb_size));
              (if Spanner.Certify.ok verdict then "yes" else "NO");
            ])
          [ 0.; 0.1 ])
      scenarios
  in
  {
    Table.id = "E27";
    title =
      Printf.sprintf
        "crash-recovery: rejoin repair vs from-scratch rebuild (n=%d, m=%d)" n
        (Graph.m g);
    reproduces =
      "beyond the paper: Theorem 2's construction under crash-recovery";
    columns =
      [
        "restart"; "drop"; "outcome"; "crashed"; "rejoined"; "rehooked";
        "repair-rds"; "rebuild-rds"; "x-size"; "certified";
      ];
    rows;
    notes =
      [
        "rejoin/k crashes k nodes in rounds 5-25 and restarts each one";
        "40-100 rounds after its crash with a fresh incarnation; mixed/8";
        "restarts only half, leaving 4 nodes down for good.  the repair";
        "pass reattaches every reborn node (rejoined column) in";
        "repair-rds rounds; rebuild-rds is a loss-free from-scratch run";
        "on the graph without the permanently dead nodes - repair after";
        "rejoin wins whenever repair-rds < rebuild-rds.  certification";
        "audits reborn nodes in full, per component; stale in-flight";
        "messages across a restart are dropped by incarnation filtering";
      ];
  }

let table_ids =
  [
    ("E1", e1_fig1);
    ("E2", e2_size_vs_density);
    ("E3", e3_skeleton_scaling);
    ("E4", e4_fib_stages);
    ("E5", e5_fib_size_vs_order);
    ("E6", e6_lb_eps_beta);
    ("E7", e7_lb_additive);
    ("E8", e8_fib_budget);
    ("E9", e9_contribution);
    ("E10", e10_overlay);
    ("E11", e11_linear_strategies);
    ("E12", e12_abort_ablation);
    ("E13", e13_oracle);
    ("E14", e14_combined);
    ("E15", e15_lb_sublinear);
    ("E16", e16_girth_frontier);
    ("E17", e17_streaming);
    ("E18", e18_beta_comparison);
    ("E19", e19_eps_beta_behavior);
    ("E20", e20_compact_routing);
    ("E21", e21_faults);
    ("E22", e22_recovery);
    ("E23", e23_churn);
    ("E24", e24_phase_breakdown);
    ("E25", e25_serving);
    ("E26", e26_resilience_sweep);
    ("E27", e27_crash_recovery);
  ]

let all ?quick ~seed () =
  List.map (fun (_, table) -> table ?quick ~seed ()) table_ids

let by_id id = List.assoc_opt (String.uppercase_ascii id) table_ids
let ids = List.map fst table_ids
