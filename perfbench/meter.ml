(* Clocks, allocation counters and the benchmark's own span recorder.

   Every measurement here is taken from outside the libraries: a span
   wraps one call to a public function, and its cost is the wall time
   and the words the GC counted while the call ran. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far by this domain: exact minor allocations
   ([Gc.minor_words] reads the allocation pointer) plus direct major
   allocations (major words minus the promoted ones, which the minor
   count already holds).  Deterministic for deterministic code. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type cost = { wall_s : float; words : float }

let measure f =
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, { wall_s = float_of_int (t1 - t0) *. 1e-9; words = alloc_words () -. w0 })

let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      Util.Stats.median_of_sorted a

(* Nearest-rank percentiles, of a sorted array or an unsorted list; 0
   when there is no sample. *)
let percentile_sorted a p =
  if Array.length a = 0 then 0. else Util.Stats.exact_percentile_of_sorted a p

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile_sorted a p

(* {1 Spans}

   A span records one call: name, start, end, the enclosing span, the
   workload, and the words allocated during the call.  Spans stay in
   memory until the run ends.  [off] records nothing, so untraced runs
   pay one closure call per wrapped call, a handful per op. *)

type span = {
  id : int;
  parent : int;  (** [-1] at top level *)
  name : string;
  start_ns : int;
  end_ns : int;
  words : float;
}

type spans = {
  on : bool;
  workload : string;
  mutable recorded : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
}

let off = { on = false; workload = ""; recorded = []; stack = []; next_id = 0 }
let recorder workload = { off with on = true; workload }

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = alloc_words () in
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.recorded <-
        { id; parent; name; start_ns; end_ns; words = alloc_words () -. w0 }
        :: t.recorded
    in
    Fun.protect ~finally:finish f
  end

let recorded t = List.rev t.recorded

(* Total seconds and words of the spans called [name]. *)
let total t name =
  List.fold_left
    (fun (s, w) sp ->
      if sp.name = name then
        (s +. (float_of_int (sp.end_ns - sp.start_ns) *. 1e-9), w +. sp.words)
      else (s, w))
    (0., 0.) t.recorded

(* Chrome trace event format: one complete ("X") event per span, in
   microseconds from the earliest span, one thread per recorder so
   set-up, ops and probes sit on separate tracks; loadable in
   chrome://tracing or Perfetto. *)
let write_chrome recorders file =
  let all = List.concat_map recorded recorders in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int all in
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun tid t ->
      List.iter
        (fun s ->
          if not !first then output_string oc ",";
          first := false;
          Printf.fprintf oc
            "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"workload\":\"%s\",\"alloc_words\":%.0f}}"
            (String.escaped s.name) tid
            (float_of_int (s.start_ns - t0) /. 1e3)
            (float_of_int (s.end_ns - s.start_ns) /. 1e3)
            s.id s.parent (String.escaped t.workload) s.words)
        (recorded t))
    recorders;
  output_string oc "\n]}\n";
  close_out oc
