module Metrics = Obs.Metrics

type t = {
  mutable current : Snapshot.t;
  mutable epoch : int;
  mutable swaps : int;
  metrics : Metrics.t;
  (* Hot-path instrument cache, refreshed when the generation moves:
     the batch loop must not pay a find-or-create per query. *)
  mutable cached_gen : int;
  mutable c_fresh : Metrics.counter;
  mutable c_stale : Metrics.counter;
  mutable h_latency : Metrics.histogram;
  c_failed : Metrics.counter;
  c_swaps : Metrics.counter;
}

let instruments metrics gen =
  let g = [ ("generation", string_of_int gen) ] in
  ( Metrics.counter metrics "serve_answers"
      ~labels:(("freshness", "fresh") :: g),
    Metrics.counter metrics "serve_answers"
      ~labels:(("freshness", "stale") :: g),
    Metrics.histogram metrics "serve_latency_ns" ~labels:g )

let create ?(metrics = Metrics.disabled) snapshot =
  let gen = Snapshot.generation snapshot in
  let c_fresh, c_stale, h_latency = instruments metrics gen in
  {
    current = snapshot;
    epoch = gen;
    swaps = 0;
    metrics;
    cached_gen = gen;
    c_fresh;
    c_stale;
    h_latency;
    c_failed = Metrics.counter metrics "serve_failed";
    c_swaps = Metrics.counter metrics "serve_swaps";
  }

let snapshot t = t.current
let generation t = Snapshot.generation t.current
let epoch t = t.epoch
let swaps t = t.swaps

let refresh_cache t =
  let gen = Snapshot.generation t.current in
  if gen <> t.cached_gen then begin
    let c_fresh, c_stale, h_latency = instruments t.metrics gen in
    t.cached_gen <- gen;
    t.c_fresh <- c_fresh;
    t.c_stale <- c_stale;
    t.h_latency <- h_latency
  end

let mark_dirty t = t.epoch <- t.epoch + 1

let publish t snapshot =
  let gen = Snapshot.generation snapshot in
  if gen <= Snapshot.generation t.current then
    invalid_arg
      (Printf.sprintf "Server.publish: generation %d not above current %d" gen
         (Snapshot.generation t.current));
  (* The swap itself: one assignment.  Readers holding the old
     snapshot keep a consistent immutable structure until they
     drain. *)
  t.current <- snapshot;
  t.swaps <- t.swaps + 1;
  if t.epoch < gen then t.epoch <- gen;
  Metrics.incr t.c_swaps;
  refresh_cache t

type report = {
  answered : int;
  failed : int;
  stale : int;
  elapsed_ns : int;
  latency_sorted : float array;
  by_generation : (int * int * int) list;
}

(* LSD radix sort of ints ascending, [radix_bits] a pass over [x - min]:
   a batch of latencies under 2 µs is one pass, under 4 ms two. *)
let radix_bits = 11

let radix_sort (a : int array) =
  let len = Array.length a in
  if len > 1 then begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to len - 1 do
      let x = a.(i) in
      if x < !lo then lo := x else if x > !hi then hi := x
    done;
    let lo = !lo and hi = !hi in
    let mask = (1 lsl radix_bits) - 1 in
    let count = Array.make (mask + 1) 0 in
    let src = ref a and dst = ref (Array.make len 0) and shift = ref 0 in
    while (hi - lo) lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to len - 1 do
        let b = ((s.(i) - lo) lsr sh) land mask in
        count.(b) <- count.(b) + 1
      done;
      let at = ref 0 in
      for b = 0 to mask do
        let c = count.(b) in
        count.(b) <- !at;
        at := !at + c
      done;
      for i = 0 to len - 1 do
        let x = s.(i) in
        let b = ((x - lo) lsr sh) land mask in
        d.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + radix_bits
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end

(* [latency_sorted] from whole nanosecond counts, which it sorts. *)
let sorted_latencies ns =
  radix_sort ns;
  let out = Array.make (Array.length ns) 0. in
  Array.iteri (fun i x -> out.(i) <- float_of_int x) ns;
  out

let run ?(first = 0) ?count t queries =
  let count =
    match count with
    | Some c -> c
    | None -> Array.length queries - first
  in
  if first < 0 || count < 0 || first + count > Array.length queries then
    invalid_arg "Server.run: batch outside the workload";
  refresh_cache t;
  (* Nothing publishes inside a batch, so the batch reads the snapshot,
     its generation and its freshness once. *)
  let snap = t.current in
  let gen = Snapshot.generation snap in
  let stale = gen < t.epoch in
  let ns = Array.make count 0 in
  let failed = ref 0 in
  (* One region per batch, not per query — a per-query enter/leave
     would dwarf the nanosecond-scale lookups it measures. *)
  let prof = Obs.Prof.current () in
  Obs.Prof.enter prof "serve_answer";
  let batch_start = Monotonic_clock.now () in
  for i = 0 to count - 1 do
    let q = queries.(first + i) in
    let t0 = Monotonic_clock.now () in
    let value =
      if q.Workload.route then Snapshot.route_hops snap q.Workload.src q.Workload.dst
      else Snapshot.distance snap q.Workload.src q.Workload.dst
    in
    let t1 = Monotonic_clock.now () in
    let d = Int64.to_int (Int64.sub t1 t0) in
    ns.(i) <- d;
    Metrics.observe t.h_latency d;
    if value < 0 then incr failed
  done;
  let batch_stop = Monotonic_clock.now () in
  Obs.Prof.leave prof;
  Metrics.add (if stale then t.c_stale else t.c_fresh) count;
  Metrics.add t.c_failed !failed;
  let stale_count = if stale then count else 0 in
  {
    answered = count;
    failed = !failed;
    stale = stale_count;
    elapsed_ns = Int64.to_int (Int64.sub batch_stop batch_start);
    latency_sorted = sorted_latencies ns;
    by_generation =
      (if count = 0 then [] else [ (gen, count - stale_count, stale_count) ]);
  }

(* Per-generation tallies summed, ascending by generation. *)
let rec sum_generations = function
  | (g, f, s) :: (g', f', s') :: rest when g = g' ->
      sum_generations ((g, f + f', s + s') :: rest)
  | x :: rest -> x :: sum_generations rest
  | [] -> []

let merge reports =
  let answered = List.fold_left (fun a r -> a + r.answered) 0 reports in
  let ns = Array.make answered 0 in
  let off = ref 0 in
  List.iter
    (fun r ->
      let l = r.latency_sorted in
      for i = 0 to Array.length l - 1 do
        ns.(!off + i) <- int_of_float l.(i)
      done;
      off := !off + Array.length l)
    reports;
  {
    answered;
    failed = List.fold_left (fun a r -> a + r.failed) 0 reports;
    stale = List.fold_left (fun a r -> a + r.stale) 0 reports;
    elapsed_ns = List.fold_left (fun a r -> a + r.elapsed_ns) 0 reports;
    latency_sorted = sorted_latencies ns;
    by_generation =
      sum_generations
        (List.sort compare (List.concat_map (fun r -> r.by_generation) reports));
  }

let run_swap t queries ~rebuild =
  let third = Array.length queries / 3 in
  let fresh = run ~first:0 ~count:third t queries in
  mark_dirty t;
  let stale = run ~first:third ~count:third t queries in
  publish t (rebuild ());
  let rest = run ~first:(2 * third) t queries in
  merge [ fresh; stale; rest ]

let pp_report ppf r =
  Format.fprintf ppf "served %d queries, %d failed, %d stale@." r.answered
    r.failed r.stale;
  Format.fprintf ppf "generations:";
  List.iter
    (fun (g, fresh, stale) ->
      Format.fprintf ppf " gen%d=%d" g (fresh + stale);
      if stale > 0 then Format.fprintf ppf " (stale %d)" stale)
    r.by_generation;
  Format.fprintf ppf "@."

(* ------------------------------------------------------------------ *)
(* Answer audit *)

type audit = {
  sampled : int;
  failures : int;
  max_stretch : float;
  dist_bound : float;
}

let audit_ok a = a.failures = 0

let audit ?(samples = 64) ?(seed = 1) snapshot queries =
  let total = Array.length queries in
  let g = Snapshot.graph snapshot in
  let dist_bound = float_of_int ((2 * Snapshot.oracle_k snapshot) - 1) in
  if total = 0 then { sampled = 0; failures = 0; max_stretch = 1.; dist_bound }
  else begin
    let rng = Util.Prng.create ~seed in
    let picks =
      Util.Prng.sample_without_replacement rng ~k:samples ~n:total
    in
    (* Group by source so each BFS serves every sampled query from
       that source. *)
    let by_src : (int, Workload.query list) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun i ->
        let q = queries.(i) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_src q.Workload.src) in
        Hashtbl.replace by_src q.Workload.src (q :: prev))
      picks;
    let srcs = Hashtbl.fold (fun s _ acc -> s :: acc) by_src [] |> List.sort compare in
    let sampled = ref 0 and failures = ref 0 and max_stretch = ref 1. in
    List.iter
      (fun src ->
        let exact = Graphlib.Bfs.distances g ~src in
        List.iter
          (fun (q : Workload.query) ->
            incr sampled;
            let d = exact.(q.Workload.dst) in
            let answer =
              if q.Workload.route then
                Snapshot.route_hops snapshot q.Workload.src q.Workload.dst
              else Snapshot.distance snapshot q.Workload.src q.Workload.dst
            in
            if d < 0 then begin
              (* Disconnected in the snapshot: the answer must say so. *)
              if answer >= 0 then incr failures
            end
            else if answer < 0 then incr failures
            else begin
              if d > 0 then begin
                let st = float_of_int answer /. float_of_int d in
                if st > !max_stretch then max_stretch := st;
                let bound = if q.Workload.route then 5. else dist_bound in
                if answer < d || st > bound then incr failures
              end
              else if answer <> 0 then incr failures
            end)
          (Hashtbl.find by_src src))
      srcs;
    { sampled = !sampled; failures = !failures; max_stretch = !max_stretch; dist_bound }
  end

let pp_audit ppf a =
  Format.fprintf ppf
    "audit: %d sampled answers vs BFS ground truth, %d violations (max \
     stretch %.2f, bound %.1f): %s"
    a.sampled a.failures a.max_stretch a.dist_bound
    (if audit_ok a then "PASS" else "FAIL")
