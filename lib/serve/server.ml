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

(* Sort latencies ascending in place.  [Array.sort compare] on a float
   array boxes both floats of every comparison; the entries are whole
   nanosecond counts, so sorting them as ints gives the same array. *)
let sort_ns (a : float array) =
  let ns = Array.init (Array.length a) (fun i -> int_of_float a.(i)) in
  Array.stable_sort Int.compare ns;
  Array.iteri (fun i x -> a.(i) <- float_of_int x) ns

let run ?(first = 0) ?count t queries =
  let count =
    match count with
    | Some c -> c
    | None -> Array.length queries - first
  in
  if first < 0 || count < 0 || first + count > Array.length queries then
    invalid_arg "Server.run: batch outside the workload";
  refresh_cache t;
  let latency = Array.make count 0. in
  let failed = ref 0 and stale_count = ref 0 in
  let tally : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 4 in
  (* One region per batch, not per query — a per-query enter/leave
     would dwarf the nanosecond-scale lookups it measures. *)
  let prof = Obs.Prof.current () in
  Obs.Prof.enter prof "serve_answer";
  let batch_start = Monotonic_clock.now () in
  for i = 0 to count - 1 do
    let q = queries.(first + i) in
    let snap = t.current in
    let t0 = Monotonic_clock.now () in
    let value =
      if q.Workload.route then Snapshot.route_hops snap q.Workload.src q.Workload.dst
      else Snapshot.distance snap q.Workload.src q.Workload.dst
    in
    let t1 = Monotonic_clock.now () in
    let ns = Int64.to_int (Int64.sub t1 t0) in
    latency.(i) <- float_of_int ns;
    Metrics.observe t.h_latency ns;
    let gen = Snapshot.generation snap in
    let stale = gen < t.epoch in
    if stale then begin
      incr stale_count;
      Metrics.incr t.c_stale
    end
    else Metrics.incr t.c_fresh;
    if value < 0 then begin
      incr failed;
      Metrics.incr t.c_failed
    end;
    let fresh_r, stale_r =
      match Hashtbl.find_opt tally gen with
      | Some cell -> cell
      | None ->
          let cell = (ref 0, ref 0) in
          Hashtbl.add tally gen cell;
          cell
    in
    if stale then incr stale_r else incr fresh_r
  done;
  let batch_stop = Monotonic_clock.now () in
  Obs.Prof.leave prof;
  sort_ns latency;
  let by_generation =
    Hashtbl.fold (fun g (f, s) acc -> (g, !f, !s) :: acc) tally []
    |> List.sort compare
  in
  {
    answered = count;
    failed = !failed;
    stale = !stale_count;
    elapsed_ns = Int64.to_int (Int64.sub batch_stop batch_start);
    latency_sorted = latency;
    by_generation;
  }

let merge reports =
  let answered = List.fold_left (fun a r -> a + r.answered) 0 reports in
  let latency = Array.make answered 0. in
  let off = ref 0 in
  List.iter
    (fun r ->
      Array.blit r.latency_sorted 0 latency !off (Array.length r.latency_sorted);
      off := !off + Array.length r.latency_sorted)
    reports;
  sort_ns latency;
  let tally : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      List.iter
        (fun (g, f, s) ->
          let fresh_r, stale_r =
            match Hashtbl.find_opt tally g with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0) in
                Hashtbl.add tally g cell;
                cell
          in
          fresh_r := !fresh_r + f;
          stale_r := !stale_r + s)
        r.by_generation)
    reports;
  {
    answered;
    failed = List.fold_left (fun a r -> a + r.failed) 0 reports;
    stale = List.fold_left (fun a r -> a + r.stale) 0 reports;
    elapsed_ns = List.fold_left (fun a r -> a + r.elapsed_ns) 0 reports;
    latency_sorted = latency;
    by_generation =
      Hashtbl.fold (fun g (f, s) acc -> (g, !f, !s) :: acc) tally []
      |> List.sort compare;
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
