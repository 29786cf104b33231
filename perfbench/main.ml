(* perfbench: the repository's end-to-end and per-layer benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --benchmark-json

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
   every end-to-end metric (--trace 0) or every per-layer metric
   (--trace 1).  A traced run also writes its spans as a Chrome trace
   to --trace-file (default .perfbench/WORKLOAD.trace.json). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-file FILE]\n\
    \       main.exe --benchmark-json";
  exit 2

let json_result (r : Bench.result) =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) r.Bench.metrics in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.Bench.consistent && finite) r.Bench.attempted r.Bench.failed;
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
        (if Float.is_finite v then v else 0.)
        (Catalog.unit_of name))
    r.Bench.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let run ~workload ~seed ~seconds ~trace ~trace_file =
  let go w =
    if trace then begin
      let file =
        match trace_file with
        | Some f -> f
        | None ->
            (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
            Filename.concat ".perfbench" (workload ^ ".trace.json")
      in
      Bench.traced ~name:workload ~seed ~trace_file:file w
    end
    else Bench.untraced w ~seed ~seconds
  in
  let size = Workloads.full in
  match workload with
  | "build-lossfree" -> go (Workloads.lossfree size)
  | "sweep-faults" -> go (Workloads.sweep size)
  | "serve-churn" -> go (Workloads.serve size)
  | other ->
      Printf.eprintf "perfbench: unknown workload %s (one of: %s)\n" other
        (String.concat ", " (List.map fst Catalog.workloads));
      exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  let trace_file = ref None and catalog = ref false in
  let int r s = match int_of_string_opt s with Some v -> r := v | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int seed v; parse rest
    | "--seconds" :: v :: rest -> int seconds v; parse rest
    | "--trace" :: v :: rest -> int trace v; parse rest
    | "--trace-file" :: v :: rest -> trace_file := Some v; parse rest
    | "--benchmark-json" :: rest -> catalog := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !catalog then print_string (Catalog.benchmark_json ())
  else begin
    if !workload = "" || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
    let r =
      run ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
        ~trace_file:!trace_file
    in
    print_endline (json_result r)
  end
