(* The one contract of every text format: a file with one mutated line
   either loads or raises [Util.Lines.Parse_error] naming that line —
   the four run logs (trace, metrics, spans, profile), [Obs.Jsonl]'s
   [Parse_error] being the same exception, and the five word formats
   (edge list, workload, snapshot, scenario spec, plan). *)

type input = {
  lines : string array;
  load : string -> unit;
  header : bool;
      (** line 1 declares counts or a checksum the other lines are
          checked against: a mutated line may be named there, and a
          mutated header at any line, since every later check is
          against the mutated declaration *)
  tail : bool;
      (** a line or a count that never came is named at the line
          after the last *)
}

(* The four logs of one small faulty skeleton build, and the word
   formats of its graph, spanner and a builtin scenario. *)
let inputs =
  lazy
    (let g = Graphlib.Gen.connected_gnp (Util.Prng.create ~seed:5) ~n:16 ~p:0.3 in
     let faults =
       Distnet.Fault.make ~seed:36
         {
           Distnet.Fault.default_spec with
           Distnet.Fault.drop = 0.2;
           dup = 0.05;
           delay = 0.1;
           max_delay = 2;
         }
     in
     let tracer = Distnet.Trace.create ()
     and metrics = Obs.Metrics.create ()
     and spans = Obs.Span.create ()
     and prof = Obs.Prof.create () in
     Obs.Prof.set_current prof;
     let r =
       Fun.protect
         ~finally:(fun () -> Obs.Prof.set_current Obs.Prof.disabled)
         (fun () ->
           Spanner.Skeleton_dist.build ~faults ~tracer ~metrics ~spans ~seed:5 g)
     in
     let input ?(header = false) ?(tail = false) save load =
       let file = Filename.temp_file "text" ".txt" in
       save file;
       let lines = In_channel.with_open_text file In_channel.input_all in
       Sys.remove file;
       let lines = String.split_on_char '\n' (String.trim lines) in
       let lines = Array.of_list lines in
       { lines; load = (fun f -> ignore (load f)); header; tail }
     in
     let meta = [ {|{"kind":"meta","algo":"skeleton","n":16,"rounds":1}|} ] in
     let mixed = Option.get (Scenario.Spec.builtin "mixed") in
     [|
       input (Distnet.Trace.save ~stats:r.Spanner.Skeleton_dist.stats tracer)
         Distnet.Trace.load;
       input (Obs.Metrics.save ~extra:meta metrics) Obs.Metrics.load;
       input (Obs.Span.save ~extra:meta spans) Obs.Span.load;
       input (Obs.Prof.save ~extra:meta prof) Obs.Prof.load;
       input ~header:true ~tail:true (Graphlib.Io.write g) Graphlib.Io.read;
       input
         (Serve.Workload.save
            (Serve.Workload.generate ~seed:5 ~n:16
               { queries = 30; zipf = Some 1.1; route_frac = 0.3 }))
         (Serve.Workload.load ~n:16);
       input ~header:true
         (Serve.Snapshot.save
            (Serve.Snapshot.build ~seed:5 ~routing:true g
               r.Spanner.Skeleton_dist.spanner))
         (fun f -> Serve.Snapshot.load f);
       input ~tail:true (Scenario.Spec.save mixed) Scenario.Spec.load;
       input ~tail:true
         (Scenario.Compile.save (Scenario.Compile.compile mixed ~sample:0))
         Scenario.Compile.load;
     |])

(* The maximal digit runs of [s], as (start, length). *)
let digit_runs s =
  let runs = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      match c with
      | '0' .. '9' -> if !start < 0 then start := i
      | _ ->
          if !start >= 0 then runs := (!start, i - !start) :: !runs;
          start := -1)
    (s ^ " ");
  List.rev !runs

(* The top-level fields of a one-line object, split at the commas
   outside strings, objects and arrays. *)
let fields line =
  let body = String.sub line 1 (String.length line - 2) in
  let parts = ref [] and depth = ref 0 and quoted = ref false and start = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '"' -> quoted := not !quoted
      | ('{' | '[') when not !quoted -> incr depth
      | ('}' | ']') when not !quoted -> decr depth
      | ',' when (not !quoted) && !depth = 0 ->
          parts := String.sub body !start (i - !start) :: !parts;
          start := i + 1
      | _ -> ())
    body;
  List.rev (String.sub body !start (String.length body - !start) :: !parts)

(* Mutation [m] of [lines] at line [i], with [k] choosing the spot. *)
let mutate m lines i k =
  let line = lines.(i) in
  let with_line l = Array.mapi (fun j x -> if j = i then l else x) lines in
  match m with
  | 0 -> with_line (String.sub line 0 (k mod String.length line))
  | 1 -> (
      match digit_runs line with
      | [] -> lines
      | runs ->
          let s, n = List.nth runs (k mod List.length runs) in
          with_line
            (String.sub line 0 s ^ "99999999999999999999"
            ^ String.sub line (s + n) (String.length line - s - n)))
  | 2 when line.[0] = '{' ->
      let fs = fields line in
      let drop = k mod List.length fs in
      with_line
        ("{" ^ String.concat "," (List.filteri (fun j _ -> j <> drop) fs) ^ "}")
  | 2 ->
      let ws = String.split_on_char ' ' line in
      let drop = k mod List.length ws in
      with_line (String.concat " " (List.filteri (fun j _ -> j <> drop) ws))
  | _ ->
      let garbage = String.sub "garbage: {not] a, record" 0 (1 + (k mod 24)) in
      Array.concat
        [ Array.sub lines 0 i; [| garbage |];
          Array.sub lines i (Array.length lines - i) ]

let prop_one_error =
  QCheck.Test.make ~count:500
    ~name:"a mutated log loads or names its line"
    QCheck.(
      quad (int_bound 1_000) (int_bound 3) (int_bound 100_000)
        (int_bound 1_000))
    (fun (which, m, i, k) ->
      let inputs = Lazy.force inputs in
      let { lines; load; header; tail } =
        inputs.(which mod Array.length inputs)
      in
      let i = i mod Array.length lines in
      let mutated = mutate m lines i k in
      let file = Filename.temp_file "text" ".txt" in
      Out_channel.with_open_text file (fun oc ->
          Array.iter
            (fun l -> Out_channel.output_string oc (l ^ "\n"))
            mutated);
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          match load file with
          | () -> true
          | exception Obs.Jsonl.Parse_error e ->
              (e.file = file
              && (e.line = i + 1
                 || (header && (e.line = 1 || i = 0))
                 || (tail && e.line = Array.length mutated + 1)))
              || QCheck.Test.fail_reportf "%s: line %d: %s (mutated line %d)"
                   e.file e.line e.msg (i + 1)))

let suite =
  [ ("obs.jsonl", [ QCheck_alcotest.to_alcotest prop_one_error ]) ]
