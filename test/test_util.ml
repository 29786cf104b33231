(* Tests for the util library: Prng, Stats, Fib, Tower, Union_find,
   Heap, Bitset. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Util.Prng.create ~seed:42 and b = Util.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    checki "same stream" (Util.Prng.int a 1000) (Util.Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Util.Prng.create ~seed:7 in
  let c = Util.Prng.split a in
  let differs = ref false in
  for _ = 1 to 50 do
    if Util.Prng.int a 1_000_000 <> Util.Prng.int c 1_000_000 then differs := true
  done;
  checkb "split stream differs" true !differs

let test_prng_bernoulli_extremes () =
  let r = Util.Prng.create ~seed:1 in
  for _ = 1 to 20 do
    checkb "p=0 never" false (Util.Prng.bernoulli r 0.);
    checkb "p=1 always" true (Util.Prng.bernoulli r 1.)
  done

let test_prng_bernoulli_rate () =
  let r = Util.Prng.create ~seed:3 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Util.Prng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  checkb "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_prng_sample_without_replacement () =
  let r = Util.Prng.create ~seed:5 in
  let s = Util.Prng.sample_without_replacement r ~k:10 ~n:100 in
  checki "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "sorted output" sorted s;
  Array.iter (fun x -> checkb "in range" true (x >= 0 && x < 100)) s;
  for i = 1 to Array.length s - 1 do
    checkb "distinct" true (s.(i) <> s.(i - 1))
  done

let test_prng_sample_all () =
  let r = Util.Prng.create ~seed:5 in
  let s = Util.Prng.sample_without_replacement r ~k:10 ~n:10 in
  check (Alcotest.array Alcotest.int) "k=n is identity set"
    (Array.init 10 (fun i -> i))
    s

let test_prng_shuffle_permutes () =
  let r = Util.Prng.create ~seed:11 in
  let a = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 1.; 2.; 3.; 4. ];
  checki "count" 4 (Util.Stats.count s);
  checkf "mean" 2.5 (Util.Stats.mean s);
  checkf "total" 10. (Util.Stats.total s);
  checkf "min" 1. (Util.Stats.min s);
  checkf "max" 4. (Util.Stats.max s);
  check (Alcotest.float 1e-9) "variance" (5. /. 3.) (Util.Stats.variance s)

let test_stats_merge () =
  let a = Util.Stats.create () and b = Util.Stats.create () and whole = Util.Stats.create () in
  let xs = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  List.iteri
    (fun i x ->
      Util.Stats.add whole x;
      if i < 3 then Util.Stats.add a x else Util.Stats.add b x)
    xs;
  let merged = Util.Stats.merge a b in
  checki "count" (Util.Stats.count whole) (Util.Stats.count merged);
  check (Alcotest.float 1e-9) "mean" (Util.Stats.mean whole) (Util.Stats.mean merged);
  check (Alcotest.float 1e-9) "variance" (Util.Stats.variance whole)
    (Util.Stats.variance merged)

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  checkf "median" 3. (Util.Stats.median_of_sorted a);
  checkf "p0" 1. (Util.Stats.percentile_of_sorted a 0.);
  checkf "p100" 5. (Util.Stats.percentile_of_sorted a 1.);
  checkf "p25" 2. (Util.Stats.percentile_of_sorted a 0.25)

let test_stats_exact_percentile () =
  (* Nearest-rank: the answer is always an element of the input. *)
  checkb "empty is nan" true
    (Float.is_nan (Util.Stats.exact_percentile_of_sorted [||] 0.5));
  let single = [| 7. |] in
  checkf "single p50" 7. (Util.Stats.p50_of_sorted single);
  checkf "single p99" 7. (Util.Stats.p99_of_sorted single);
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  checkf "p50 of 1..10" 5. (Util.Stats.p50_of_sorted a);
  checkf "p90 of 1..10" 9. (Util.Stats.p90_of_sorted a);
  checkf "p99 of 1..10" 10. (Util.Stats.p99_of_sorted a);
  (* Ties: rank arithmetic is over positions, values just repeat. *)
  let tied = [| 2.; 2.; 2.; 2.; 9. |] in
  checkf "tied p50" 2. (Util.Stats.p50_of_sorted tied);
  checkf "tied p90" 9. (Util.Stats.p90_of_sorted tied);
  (* p clamps into [1, n]. *)
  checkf "p0 clamps to first" 1. (Util.Stats.exact_percentile_of_sorted a 0.);
  checkf "p1 is last" 10. (Util.Stats.exact_percentile_of_sorted a 1.)

(* ------------------------------------------------------------------ *)
(* Fib *)

let test_fib_values () =
  List.iteri
    (fun k expected -> checki (Printf.sprintf "F_%d" k) expected (Util.Fib.f k))
    [ 0; 1; 1; 2; 3; 5; 8; 13; 21; 34; 55; 89 ]

let test_fib_recurrence () =
  for k = 2 to 60 do
    checki "F_k = F_{k-1} + F_{k-2}" (Util.Fib.f (k - 1) + Util.Fib.f (k - 2)) (Util.Fib.f k)
  done

let test_fib_binet () =
  for k = 0 to 40 do
    let err = Float.abs (Util.Fib.binet k -. float_of_int (Util.Fib.f k)) in
    checkb "binet matches" true (err < 1e-6 *. Float.max 1. (float_of_int (Util.Fib.f k)))
  done

let test_fib_golden_inequality () =
  (* The one Fibonacci fact the paper's Lemma 8 uses:
     phi * F_k + 1 > F_{k+1} (for k >= 1; at k = 0 it is an equality). *)
  for k = 1 to 60 do
    checkb "phi*F_k + 1 > F_{k+1}" true
      ((Util.Fib.phi *. float_of_int (Util.Fib.f k)) +. 1. > float_of_int (Util.Fib.f (k + 1)))
  done

let test_fib_order_bound () =
  (* o <= log_phi log2 n; for n = 2^16, log2 n = 16, log_phi 16 ~ 5.76 *)
  checki "order bound 2^16" 5 (Util.Fib.order_upper_bound 65536);
  checkb "order bound >= 1" true (Util.Fib.order_upper_bound 2 >= 1)

let test_fib_first_geq () =
  checki "first F >= 10" 7 (Util.Fib.index_of_first_geq 10);
  checki "first F >= 1" 1 (Util.Fib.index_of_first_geq 1);
  checki "first F >= 0" 0 (Util.Fib.index_of_first_geq 0)

(* ------------------------------------------------------------------ *)
(* Tower *)

let test_tower_values () =
  checki "s_0 = D" 4 (Util.Tower.s ~d:4 0);
  checki "s_1 = D" 4 (Util.Tower.s ~d:4 1);
  checki "s_2 = 256" 256 (Util.Tower.s ~d:4 2);
  checkb "s_3 saturates" true (Util.Tower.s ~d:4 3 = Util.Tower.cap)

let test_tower_pow_sat () =
  checki "2^10" 1024 (Util.Tower.pow_sat 2 10);
  checki "7^0" 1 (Util.Tower.pow_sat 7 0);
  checki "0^5" 0 (Util.Tower.pow_sat 0 5);
  checkb "big saturates" true (Util.Tower.pow_sat 10 30 = Util.Tower.cap)

let test_tower_lemma1_part1 () =
  (* Lemma 1(1): L <= log* n - log* D + 1 for n = s_1^2 ... s_{L-1}^2 s_L. *)
  let d = 4 in
  let mul_sat a b =
    if a = 0 || b = 0 then 0
    else if a > Util.Tower.cap / b then Util.Tower.cap
    else Stdlib.min Util.Tower.cap (a * b)
  in
  List.iter
    (fun l ->
      (* build n exactly of the paper's form, saturating harmlessly *)
      let n = ref 1 in
      for i = 1 to l - 1 do
        let s = Util.Tower.s ~d i in
        n := mul_sat (mul_sat !n s) s
      done;
      let n = mul_sat !n (Util.Tower.s ~d l) in
      let bound = Util.Tower.log_star n - Util.Tower.log_star d + 1 in
      checkb
        (Printf.sprintf "L=%d <= log* bound (n=%d, bound=%d)" l n bound)
        true
        (l <= bound || n >= Util.Tower.cap))
    [ 1; 2; 3 ]

let test_tower_lemma1_part2 () =
  (* Lemma 1(2): log_b s_i = s_1 ... s_{i-1} log_b D, checked on every
     index where s_i is exactly representable. *)
  List.iter
    (fun d ->
      let prod = ref 1. in
      let i = ref 1 in
      let continue = ref true in
      while !continue do
        let s = Util.Tower.s ~d !i in
        if s >= Util.Tower.cap then continue := false
        else begin
          let lhs = log (float_of_int s) in
          let rhs = !prod *. log (float_of_int d) in
          checkb
            (Printf.sprintf "d=%d i=%d: log s_i = prod * log D" d !i)
            true
            (Float.abs (lhs -. rhs) < 1e-9 *. Float.max 1. rhs);
          prod := !prod *. float_of_int s;
          incr i
        end
      done)
    [ 2; 3; 4; 6 ]

let test_tower_lemma1_part3 () =
  (* Lemma 1(3): s_i >= 2^{i+1} s_1 ... s_{i-1}, checked where exact. *)
  let d = 4 in
  let prod = ref 1 in
  for i = 1 to 3 do
    let si = Util.Tower.s ~d i in
    if si < Util.Tower.cap then
      checkb
        (Printf.sprintf "s_%d >= 2^%d * prod" i (i + 1))
        true
        (si >= Util.Tower.pow_sat 2 (i + 1) * !prod / 2
        && (si >= (1 lsl (i + 1)) * !prod || si = Util.Tower.cap));
    prod := Stdlib.min Util.Tower.cap (!prod * si)
  done

let test_tower_rounds_for () =
  let d = 4 in
  (* n <= s_1 = 4 needs 1 round; n <= s_1^2 s_2 = 4096 needs 2. *)
  checki "tiny" 1 (Util.Tower.rounds_for ~d ~n:4);
  checki "mid" 2 (Util.Tower.rounds_for ~d ~n:4096);
  checki "mid+" 3 (Util.Tower.rounds_for ~d ~n:5000);
  checkb "huge still finite" true (Util.Tower.rounds_for ~d ~n:1_000_000_000 <= 4)

let test_tower_log_star () =
  checki "log* 1" 0 (Util.Tower.log_star 1);
  checki "log* 2" 1 (Util.Tower.log_star 2);
  checki "log* 4" 2 (Util.Tower.log_star 4);
  checki "log* 16" 3 (Util.Tower.log_star 16);
  checki "log* 65536" 4 (Util.Tower.log_star 65536)

let test_tower_zeta () =
  check (Alcotest.float 1e-3) "zeta ~ 0.325" 0.325 Util.Tower.zeta

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_uf_basic () =
  let u = Util.Union_find.create 10 in
  checki "initial sets" 10 (Util.Union_find.count u);
  checkb "union works" true (Util.Union_find.union u 0 1);
  checkb "re-union is noop" false (Util.Union_find.union u 0 1);
  checkb "same" true (Util.Union_find.same u 0 1);
  checkb "not same" false (Util.Union_find.same u 0 2);
  checki "sets after union" 9 (Util.Union_find.count u);
  checki "size" 2 (Util.Union_find.size_of u 1)

let test_uf_chain () =
  let u = Util.Union_find.create 100 in
  for i = 0 to 98 do
    ignore (Util.Union_find.union u i (i + 1))
  done;
  checki "single set" 1 (Util.Union_find.count u);
  checki "size 100" 100 (Util.Union_find.size_of u 50);
  checkb "ends connected" true (Util.Union_find.same u 0 99)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Util.Bitset.create 100 in
  checki "cap" 100 (Util.Bitset.capacity b);
  checki "empty" 0 (Util.Bitset.cardinal b);
  Util.Bitset.set b 0;
  Util.Bitset.set b 63;
  Util.Bitset.set b 64;
  Util.Bitset.set b 99;
  Util.Bitset.set b 99;
  checki "cardinal" 4 (Util.Bitset.cardinal b);
  checkb "mem 63" true (Util.Bitset.mem b 63);
  checkb "not mem 1" false (Util.Bitset.mem b 1);
  Util.Bitset.clear b 63;
  checkb "cleared" false (Util.Bitset.mem b 63);
  checki "cardinal after clear" 3 (Util.Bitset.cardinal b);
  check (Alcotest.list Alcotest.int) "to_list" [ 0; 64; 99 ] (Util.Bitset.to_list b);
  Util.Bitset.reset b;
  checki "reset" 0 (Util.Bitset.cardinal b)

let test_bitset_iter_order () =
  let b = Util.Bitset.create 10 in
  List.iter (Util.Bitset.set b) [ 7; 1; 4 ];
  let seen = ref [] in
  Util.Bitset.iter b (fun i -> seen := i :: !seen);
  check (Alcotest.list Alcotest.int) "ascending" [ 1; 4; 7 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_uf_union_count =
  QCheck.Test.make ~name:"union_find: count decreases exactly on merges" ~count:100
    QCheck.(pair (int_bound 30) (list (pair (int_bound 30) (int_bound 30))))
    (fun (n, ops) ->
      let n = n + 2 in
      let u = Util.Union_find.create n in
      let merges = ref 0 in
      List.iter
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          if Util.Union_find.union u a b then incr merges)
        ops;
      Util.Union_find.count u = n - !merges)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"stats: min <= mean <= max" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Util.Stats.create () in
      List.iter (Util.Stats.add s) xs;
      Util.Stats.min s <= Util.Stats.mean s +. 1e-9
      && Util.Stats.mean s <= Util.Stats.max s +. 1e-9)

let prop_sample_without_replacement_distinct =
  QCheck.Test.make ~name:"prng: sample_without_replacement distinct & in-range" ~count:100
    QCheck.(pair (int_bound 50) (int_bound 200))
    (fun (k, n) ->
      let r = Util.Prng.create ~seed:(k + (n * 1000)) in
      let s = Util.Prng.sample_without_replacement r ~k ~n in
      let l = Array.to_list s in
      List.length l = Stdlib.min k n
      && List.for_all (fun x -> x >= 0 && x < n) l
      && List.length (List.sort_uniq compare l) = List.length l)

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_categorical_probabilities () =
  let s = Util.Dist.categorical ~weights:[| 1.; 3.; 0.; 4. |] in
  checki "support" 4 (Util.Dist.support s);
  checkf "p0" 0.125 (Util.Dist.probability s 0);
  checkf "p1" 0.375 (Util.Dist.probability s 1);
  checkf "p2" 0. (Util.Dist.probability s 2);
  checkf "p3" 0.5 (Util.Dist.probability s 3)

let test_dist_categorical_invalid () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "empty" true (raises (fun () -> Util.Dist.categorical ~weights:[||]));
  checkb "negative" true
    (raises (fun () -> Util.Dist.categorical ~weights:[| 1.; -2. |]));
  checkb "zero sum" true
    (raises (fun () -> Util.Dist.categorical ~weights:[| 0.; 0. |]));
  checkb "zipf n=0" true (raises (fun () -> Util.Dist.zipf ~n:0 ~s:1.));
  checkb "zipf s<0" true (raises (fun () -> Util.Dist.zipf ~n:5 ~s:(-1.)))

let test_dist_zero_weight_never_drawn () =
  let s = Util.Dist.categorical ~weights:[| 1.; 0.; 1. |] in
  let rng = Util.Prng.create ~seed:11 in
  for _ = 1 to 2000 do
    checkb "zero-weight outcome never drawn" true (Util.Dist.sample s rng <> 1)
  done

let test_dist_deterministic () =
  let s = Util.Dist.zipf ~n:64 ~s:1.2 in
  let draw seed =
    let rng = Util.Prng.create ~seed in
    Array.init 500 (fun _ -> Util.Dist.sample s rng)
  in
  check (Alcotest.array Alcotest.int) "same seed, same draws" (draw 9) (draw 9);
  checkb "different seed differs" true (draw 9 <> draw 10)

let test_dist_zipf_uniform_at_s0 () =
  let n = 10 in
  let s = Util.Dist.zipf ~n ~s:0. in
  for i = 0 to n - 1 do
    checkf "uniform" 0.1 (Util.Dist.probability s i)
  done

let test_dist_zipf_tail_shape () =
  (* P(i) ∝ (i+1)^-s: probabilities decay by exactly (i+1/i+2)^s, and
     empirical head frequency matches the analytic mass. *)
  let n = 50 and sexp = 1.5 in
  let s = Util.Dist.zipf ~n ~s:sexp in
  for i = 0 to n - 2 do
    let ratio = Util.Dist.probability s i /. Util.Dist.probability s (i + 1) in
    let expected =
      (float_of_int (i + 2) /. float_of_int (i + 1)) ** sexp
    in
    checkb "monotone decay at the analytic rate" true
      (Float.abs (ratio -. expected) < 1e-9)
  done;
  let rng = Util.Prng.create ~seed:3 in
  let trials = 20_000 in
  let head = ref 0 in
  for _ = 1 to trials do
    let x = Util.Dist.sample s rng in
    checkb "in support" true (x >= 0 && x < n);
    if x = 0 then incr head
  done;
  let rate = float_of_int !head /. float_of_int trials in
  let p0 = Util.Dist.probability s 0 in
  checkb
    (Printf.sprintf "head rate %.3f near analytic %.3f" rate p0)
    true
    (Float.abs (rate -. p0) < 0.02)

let prop_dist_sample_in_support =
  QCheck.Test.make ~name:"dist: zipf samples stay in [0,n)" ~count:50
    QCheck.(pair (int_range 1 40) (int_range 0 30))
    (fun (n, s10) ->
      let s = Util.Dist.zipf ~n ~s:(float_of_int s10 /. 10.) in
      let rng = Util.Prng.create ~seed:(n + s10) in
      let ok = ref true in
      for _ = 1 to 200 do
        let x = Util.Dist.sample s rng in
        if x < 0 || x >= n then ok := false
      done;
      !ok)

let suite =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
        Alcotest.test_case "sample without replacement" `Quick
          test_prng_sample_without_replacement;
        Alcotest.test_case "sample k=n" `Quick test_prng_sample_all;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        QCheck_alcotest.to_alcotest prop_sample_without_replacement_distinct;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "basic" `Quick test_stats_basic;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "exact percentile" `Quick test_stats_exact_percentile;
        QCheck_alcotest.to_alcotest prop_stats_mean_bounds;
      ] );
    ( "util.fib",
      [
        Alcotest.test_case "values" `Quick test_fib_values;
        Alcotest.test_case "recurrence" `Quick test_fib_recurrence;
        Alcotest.test_case "binet" `Quick test_fib_binet;
        Alcotest.test_case "golden inequality (Lemma 8)" `Quick test_fib_golden_inequality;
        Alcotest.test_case "order bound" `Quick test_fib_order_bound;
        Alcotest.test_case "first geq" `Quick test_fib_first_geq;
      ] );
    ( "util.tower",
      [
        Alcotest.test_case "values" `Quick test_tower_values;
        Alcotest.test_case "pow_sat" `Quick test_tower_pow_sat;
        Alcotest.test_case "Lemma 1(1)" `Quick test_tower_lemma1_part1;
        Alcotest.test_case "Lemma 1(2)" `Quick test_tower_lemma1_part2;
        Alcotest.test_case "Lemma 1(3)" `Quick test_tower_lemma1_part3;
        Alcotest.test_case "rounds_for" `Quick test_tower_rounds_for;
        Alcotest.test_case "log_star" `Quick test_tower_log_star;
        Alcotest.test_case "zeta" `Quick test_tower_zeta;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "chain" `Quick test_uf_chain;
        QCheck_alcotest.to_alcotest prop_uf_union_count;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
      ] );
    ( "util.dist",
      [
        Alcotest.test_case "categorical probabilities" `Quick
          test_dist_categorical_probabilities;
        Alcotest.test_case "invalid arguments" `Quick test_dist_categorical_invalid;
        Alcotest.test_case "zero weight never drawn" `Quick
          test_dist_zero_weight_never_drawn;
        Alcotest.test_case "deterministic in the seed" `Quick test_dist_deterministic;
        Alcotest.test_case "zipf s=0 is uniform" `Quick test_dist_zipf_uniform_at_s0;
        Alcotest.test_case "zipf tail shape" `Quick test_dist_zipf_tail_shape;
        QCheck_alcotest.to_alcotest prop_dist_sample_in_support;
      ] );
  ]
