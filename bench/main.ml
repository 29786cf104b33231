(* Benchmark + experiment-table harness.

   `dune exec bench/main.exe` prints every experiment table (E1..E10,
   quick sizes) and then runs one Bechamel timing benchmark per
   experiment (the core computation each table exercises).

   Flags:  --full          full-size tables (slow)
           --tables-only   skip the Bechamel pass
           --bench-only    skip the tables
           --json          machine-readable timings only (implies --bench-only)
           --seed N        change the experiment seed (default 1)
           --only Ei       run a single table
           --baseline F    compare timings and minor words against a saved
                           --json file (or a repo BENCH_*.json); exit 1 on
                           regression
           --tolerance X   relative slowdown allowed before a bench counts
                           as regressed (default 0.25 = 25%), judged on the
                           median of three timings for a bench past it;
                           minor words are held to a fixed +2%
           --profile       attach the Obs.Prof sink per bench and print each
                           bench's top allocation sites

   Subcommand:  bench history [--current FILE] [--tolerance X]
           read every checked-in BENCH_*.json (plus FILE, typically a fresh
           --json capture) and print the per-bench perf trajectory. *)

module Graph = Graphlib.Graph
module Gen = Graphlib.Gen

let seed = ref 1
let quick = ref true
let tables = ref true
let benches = ref true
let json = ref false
let only = ref None
let baseline = ref None
let tolerance = ref 0.25
let profile = ref false

(* A bad argument is one [bench:] line ([bench history:] under
   [history]) and exit 2, before any bench runs or table prints. *)
let fail cmd fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline (cmd ^ ": " ^ msg);
      exit 2)
    fmt

let usage_error fmt = fail "bench" fmt

let number parse ~what flag v =
  match parse v with
  | Some x -> x
  | None -> usage_error "%s %s is not %s" flag v what

let int_arg = number int_of_string_opt ~what:"an integer"
let float_arg = number float_of_string_opt ~what:"a number"

let parse_args args =
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
        quick := false;
        go rest
    | "--tables-only" :: rest ->
        benches := false;
        go rest
    | "--bench-only" :: rest ->
        tables := false;
        go rest
    | "--json" :: rest ->
        json := true;
        tables := false;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        go rest
    | "--only" :: id :: rest ->
        only := Some id;
        go rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        go rest
    | "--tolerance" :: v :: rest ->
        tolerance := float_arg "--tolerance" v;
        go rest
    | "--profile" :: rest ->
        profile := true;
        go rest
    | [ ("--seed" | "--only" | "--baseline" | "--tolerance") as flag ] ->
        usage_error "%s needs a value" flag
    | arg :: _ -> usage_error "unknown argument %s" arg
  in
  go args

(* Bench bodies may print (experiment drivers share code with the
   tables); under --json their stray stdout would corrupt the JSON
   artifact, so the whole measuring pass runs with stdout pointed at
   /dev/null. *)
let silence_stdout f =
  flush stdout;
  Format.pp_print_flush Format.std_formatter ();
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.pp_print_flush Format.std_formatter ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* ------------------------------------------------------------------ *)
(* Bechamel: one Test.make per experiment table. *)

let bench_tests () =
  let open Bechamel in
  let rng = Util.Prng.create ~seed:!seed in
  let g_mid = Gen.connected_gnp rng ~n:600 ~p:0.02 in
  let g_small = Gen.connected_gnp rng ~n:250 ~p:0.05 in
  let torus = Gen.king_torus ~width:20 ~height:20 in
  let gadget = Graphlib.Gadget.create ~tau:2 ~sigma:5 ~kappa:6 in
  (* Each entry keeps the raw thunk next to the Bechamel test: the GC
     pass and --profile run the body directly, outside the timer. *)
  let t name f = (name, f, Test.make ~name (Staged.stage f)) in
  (* The serving bench's snapshot and workload are built once, outside
     the timed region: the bench times the query hot path alone. *)
  let serve_spanner =
    (Spanner.Skeleton_dist.build ~seed:!seed g_small).Spanner.Skeleton_dist.spanner
  in
  let serve_snap =
    Serve.Snapshot.build ~k:2 ~seed:!seed ~routing:true g_small serve_spanner
  in
  let serve_w =
    Serve.Workload.generate ~seed:(!seed + 41) ~n:(Graph.n g_small)
      { Serve.Workload.queries = 10_000; zipf = Some 1.2; route_frac = 0.25 }
  in
  (* The sweep bench times one sample end to end (compile is outside:
     it is cheap and deterministic, the run is the cost). *)
  let sweep_plan =
    let spec =
      match Scenario.Spec.builtin "mixed" with
      | Some s -> s
      | None -> assert false
    in
    Scenario.Compile.compile spec ~sample:!seed
  in
  (* The size ladder: a loss-free build, then its certificate, on
     connected G(n, 8/n).  The graph is made outside the timed region. *)
  let ladder n =
    let g =
      Gen.connected_gnp (Util.Prng.create ~seed:!seed) ~n
        ~p:(8. /. float_of_int n)
    in
    fun () ->
      let r = Spanner.Skeleton_dist.build ~seed:!seed g in
      ignore (Spanner.Skeleton_dist.certify ~faults:Distnet.Fault.none g r)
  in
  [
    t "e1.skeleton_dist" (fun () ->
        ignore (Spanner.Skeleton_dist.build ~seed:!seed g_small));
    t "e2.skeleton_seq" (fun () -> ignore (Spanner.Skeleton.build ~seed:!seed g_mid));
    t "e3.plan+sampling" (fun () ->
        let plan = Spanner.Plan.make ~n:(Graph.n g_mid) () in
        ignore
          (Spanner.Sampling.draw (Util.Prng.create ~seed:!seed) ~n:(Graph.n g_mid) plan));
    t "e4.fibonacci_seq" (fun () ->
        ignore (Spanner.Fibonacci.build ~o:3 ~ell:2 ~seed:!seed torus));
    t "e5.fibonacci_seq_gnp" (fun () ->
        ignore (Spanner.Fibonacci.build ~o:4 ~ell:2 ~seed:!seed g_mid));
    t "e6.adversary" (fun () ->
        ignore
          (Lowerbound.Adversary.run_once (Util.Prng.create ~seed:!seed) gadget ~keep:0.5));
    t "e7.gadget_build" (fun () -> ignore (Graphlib.Gadget.create ~tau:3 ~sigma:4 ~kappa:5));
    t "e8.fibonacci_dist" (fun () ->
        ignore (Spanner.Fibonacci_dist.build ~o:2 ~ell:2 ~t:2 ~seed:!seed g_small));
    t "e9.contribution_dp" (fun () -> ignore (Spanner.Contribution.xtp ~p:0.1 ~t:200));
    t "e10.flood" (fun () ->
        ignore (Distnet.Protocols.flood g_mid ~root:0 ~payload_words:4));
    t "e21.reliable_bfs_drop20" (fun () ->
        let faults =
          Distnet.Fault.make ~seed:!seed
            { Distnet.Fault.default_spec with Distnet.Fault.drop = 0.2 }
        in
        ignore (Distnet.Protocols.reliable_bfs ~faults g_small ~root:0));
    t "e22.skeleton_crash_recovery" (fun () ->
        let faults =
          Distnet.Fault.make ~seed:!seed
            {
              Distnet.Fault.default_spec with
              Distnet.Fault.drop = 0.2;
              crashes = [ (3, 40); (11, 120); (17, 300) ];
            }
        in
        let r = Spanner.Skeleton_dist.build ~faults ~seed:!seed g_small in
        ignore (Spanner.Skeleton_dist.certify ~faults g_small r));
    t "e23.skeleton_churn_repair" (fun () ->
        let u, v =
          (* any edge of the graph works; edge 0 is stable for a fixed seed *)
          let e = Graph.edge g_small 0 in
          (e.Graph.u, e.Graph.v)
        in
        let faults =
          Distnet.Fault.make ~seed:!seed ~graph:g_small
            {
              Distnet.Fault.default_spec with
              Distnet.Fault.churn =
                [ Distnet.Fault.Edge_down { round = 30; u; v } ];
            }
        in
        ignore (Spanner.Skeleton_dist.build ~faults ~seed:!seed g_small));
    t "e11.combined" (fun () ->
        ignore (Spanner.Combined.build ~ell:2 ~seed:!seed g_small));
    t "e12.skeleton_traced" (fun () ->
        ignore (Spanner.Skeleton.build ~trace:true ~seed:!seed g_small));
    t "e13.oracle_build" (fun () ->
        ignore (Oracle.Distance_oracle.build ~k:3 ~seed:!seed g_small));
    t "e14.fib_on_torus" (fun () ->
        ignore (Spanner.Fibonacci.build ~o:4 ~ell:2 ~seed:!seed torus));
    t "baseline.baswana_sen" (fun () ->
        ignore (Baseline.Baswana_sen.build ~k:3 ~seed:!seed g_mid));
    t "baseline.baswana_sen_weighted" (fun () ->
        let wg = Graphlib.Weighted.random (Util.Prng.create ~seed:!seed) g_mid ~lo:1. ~hi:8. in
        ignore (Baseline.Baswana_sen_weighted.build ~k:3 ~seed:!seed wg));
    t "baseline.greedy" (fun () -> ignore (Baseline.Greedy.build ~k:3 g_small));
    t "e25.serve_queries" (fun () ->
        ignore (Serve.Server.run (Serve.Server.create serve_snap) serve_w));
    t "e25.snapshot_build" (fun () ->
        ignore
          (Serve.Snapshot.build ~k:2 ~seed:!seed ~routing:true g_small
             serve_spanner));
    t "e26.scenario_sweep" (fun () ->
        ignore (Scenario.Sweep.run_plan sweep_plan));
    t "ladder.n1e3" (ladder 1_000);
    t "ladder.n1e4" (ladder 10_000);
  ]

(* ------------------------------------------------------------------ *)
(* Baseline comparison (--baseline FILE).

   A baseline is any earlier `--json` output, or one of the repo's
   saved BENCH_*.json snapshots (a bare array of the same objects).
   The parser scans the whole file for "name" entries and reads one
   numeric field from each entry's object, so both shapes — and
   whitespace/pretty-printing differences — are accepted without a
   JSON dependency.

   Two gates run against it: wall time ([ns_per_run]) at --tolerance,
   where a bench past it is timed twice more and judged on the median of
   the three, and allocation ([minor_words]) at the fixed
   [words_tolerance], on the one count.  Word
   counts are exact for a build (see [gc_measure]), so their gate can
   be tight where the clock's must absorb a shared runner's noise: a
   change that reintroduces per-round work fails it even when the
   timings hide it. *)

let words_tolerance = 0.02

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_baseline ?(field = "ns_per_run") file =
  let s = read_file file in
  let len = String.length s in
  let rec skip_ws i =
    if i < len && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r')
    then skip_ws (i + 1)
    else i
  in
  let find from needle =
    let nl = String.length needle in
    let rec at i =
      if i + nl > len then None
      else if String.sub s i nl = needle then Some (i + nl)
      else at (i + 1)
    in
    at from
  in
  let key = Printf.sprintf "%S" field in
  let rec go acc i =
    match find i {|"name"|} with
    | None -> List.rev acc
    | Some j -> (
        let j = skip_ws j in
        if j >= len || s.[j] <> ':' then go acc j
        else
          let j = skip_ws (j + 1) in
          if j >= len || s.[j] <> '"' then go acc j
          else
            match String.index_from_opt s (j + 1) '"' with
            | None -> List.rev acc
            | Some q -> (
                let name = String.sub s (j + 1) (q - j - 1) in
                (* Only this entry's object: a field found past the next
                   "name" belongs to another bench. *)
                let next = Option.value (find q {|"name"|}) ~default:len in
                match find q key with
                | Some k when k < next ->
                    let k = skip_ws k in
                    let k = if k < len && s.[k] = ':' then skip_ws (k + 1) else k in
                    let stop = ref k in
                    while
                      !stop < len
                      &&
                      match s.[!stop] with
                      | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
                      | _ -> false
                    do
                      incr stop
                    done;
                    (* a "null" estimate parses as no digits -> None *)
                    let v =
                      if !stop > k then
                        float_of_string_opt (String.sub s k (!stop - k))
                      else None
                    in
                    go ((name, v) :: acc) !stop
                | _ -> go ((name, None) :: acc) q))
  in
  go [] 0

(* One gate: print each bench's [field] against the baseline's, and
   return how many benches were compared and how many went beyond
   [tol].  With [retime], a bench beyond [tol] is measured twice more
   and judged on the median of its three values: one timing on a
   shared runner can swing past +50% on code that did not change. *)
let gate ?retime ppf ~file ~what ~field ~tol current =
  let base = parse_baseline ~field file in
  Format.fprintf ppf "@.== %s vs %s (%s, tolerance +%.0f%%)@." what file field
    (100. *. tol);
  Format.fprintf ppf "  %-30s %12s %12s %9s@." "bench" "baseline" "current"
    "delta";
  let compared, regressed =
    List.fold_left
      (fun (compared, regressed) (name, cur) ->
        match (List.assoc_opt name base, cur) with
        | (None | Some None), _ -> (compared, regressed)
        | Some (Some b), None ->
            Format.fprintf ppf "  %-30s %12.0f %12s %9s@." name b "-" "-";
            (compared, regressed)
        | Some (Some b), Some c ->
            let over c = (c -. b) /. b > tol in
            let c, again =
              match retime with
              | Some retime when over c ->
                  let all = List.sort compare (c :: List.filter_map retime [ name; name ]) in
                  (List.nth all (List.length all / 2), all)
              | _ -> (c, [])
            in
            Format.fprintf ppf "  %-30s %12.0f %12.0f %+8.1f%%%s%s@." name b c
              (100. *. ((c -. b) /. b))
              (if over c then "  REGRESSED" else "")
              (if again = [] then ""
               else
                 Printf.sprintf "  (median of %s)"
                   (String.concat ", " (List.map (Printf.sprintf "%.0f") again)));
            (compared + 1, if over c then regressed + 1 else regressed))
      (0, 0) current
  in
  if regressed > 0 then
    Format.fprintf ppf "  %d of %d bench(es) regressed beyond +%.0f%%@."
      regressed compared (100. *. tol);
  (compared, regressed)

let compare_baseline ~file ~retime rows =
  (* Under --json the comparison goes to stderr so stdout stays valid
     JSON; the exit code carries the verdict either way. *)
  let ppf = if !json then Format.err_formatter else Format.std_formatter in
  let timed, slow =
    gate ~retime ppf ~file ~what:"wall time" ~field:"ns_per_run" ~tol:!tolerance
      (List.map (fun (name, ns, _) -> (name, ns)) rows)
  in
  let weighed, heavy =
    gate ppf ~file ~what:"allocation" ~field:"minor_words" ~tol:words_tolerance
      (List.map (fun (name, _, w) -> (name, Some (float_of_int w))) rows)
  in
  if timed = 0 then begin
    Format.fprintf ppf "  no bench in this run has a baseline entry@.";
    exit 2
  end;
  if slow + heavy > 0 then exit 1
  else
    Format.fprintf ppf "  no regressions (%d bench(es) timed, %d weighed)@."
      timed weighed

(* One extra, untimed execution of the bench body measuring GC cost:
   minor/major words allocated and major collections.  Word counts are
   exact (the runtime counts every allocation), so unlike ns_per_run
   these columns are stable run to run on one build. *)
let gc_measure f =
  let mw0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  f ();
  let s1 = Gc.quick_stat () in
  let mw1 = Gc.minor_words () in
  ( int_of_float (mw1 -. mw0),
    int_of_float (s1.Gc.major_words -. s0.Gc.major_words),
    s1.Gc.major_collections - s0.Gc.major_collections )

let run_benches () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  if not !json then
    Format.printf "@.== Bechamel timings (monotonic clock, one bench per experiment)@.";
  (* --only Ei narrows the bench pass to that experiment's benches
     (names are "e<i>.<what>"). *)
  let selected =
    let all = bench_tests () in
    match !only with
    | None -> all
    | Some id ->
        let prefix = String.lowercase_ascii id ^ "." in
        let plen = String.length prefix in
        List.filter
          (fun (name, _, _) ->
            String.length name >= plen && String.sub name 0 plen = prefix)
          all
  in
  (* One Bechamel timing of one bench: its OLS estimate of ns per run. *)
  let time test =
    let results =
      Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.fold
      (fun _ result _ ->
        match Analyze.OLS.estimates result with Some [ est ] -> Some est | _ -> None)
      ols None
  in
  let measure () =
    List.map
      (fun (name, f, test) ->
        let est = time test in
        let gc = gc_measure f in
        let prof_rows =
          if not !profile then []
          else begin
            let sink = Obs.Prof.create () in
            Obs.Prof.set_current sink;
            f ();
            Obs.Prof.set_current Obs.Prof.disabled;
            Obs.Prof.rows sink
          end
        in
        (name, est, gc, prof_rows))
      selected
  in
  (* Under --json the measuring pass is silenced: bench bodies share
     code with the experiment drivers and may print, and the artifact
     must stay parseable JSON. *)
  let timings = if !json then silence_stdout measure else measure () in
  (if !json then begin
     (* Machine-readable per-experiment timings: a header identifying
        the run (seed, quick/full mode) plus one object per bench,
        suitable for the BENCH_*.json perf trajectory. *)
     Format.printf {|{"seed": %d, "workload_seed": %d, "mode": %S, "timings": [@.|}
       !seed (!seed + 41)
       (if !quick then "quick" else "full");
     List.iteri
       (fun i (name, est, (minor, major, majors), _) ->
         let sep = if i = List.length timings - 1 then "" else "," in
         let ns =
           match est with
           | Some est -> Printf.sprintf "%.1f" est
           | None -> "null"
         in
         Format.printf
           {|  {"name": %S, "ns_per_run": %s, "minor_words": %d, "major_words": %d, "majors": %d}%s@.|}
           name ns minor major majors sep)
       timings;
     Format.printf "]}@."
   end
   else begin
     List.iter
       (fun (name, est, (minor, major, majors), _) ->
         match est with
         | Some est ->
             Format.printf "%-28s %12.0f ns/run %12d minor %10d major %4d majors@."
               name est minor major majors
         | None ->
             Format.printf "%-28s (no estimate) %12d minor %10d major %4d majors@."
               name minor major majors)
       timings;
     if !profile then begin
       Format.printf "@.== per-bench profiles (top allocation sites, self minor words)@.";
       List.iter
         (fun (name, _, _, rows) ->
           match Obs.Report.top_sites rows with
           | [] -> Format.printf "%-28s (no regions hit)@." name
           | sites ->
               Format.printf "%-28s" name;
               List.iteri
                 (fun i (r : Obs.Prof.row) ->
                   if i < 3 then
                     Format.printf " %s=%d" r.Obs.Prof.name
                       r.Obs.Prof.self_minor_words)
                 sites;
               Format.printf "@.")
         timings
     end
   end);
  let retime name =
    let again () =
      Option.bind
        (List.find_opt (fun (n, _, _) -> n = name) selected)
        (fun (_, _, test) -> time test)
    in
    if !json then silence_stdout again else again ()
  in
  (List.map (fun (name, est, (minor, _, _), _) -> (name, est, minor)) timings, retime)

(* ------------------------------------------------------------------ *)
(* bench history: the per-bench perf trajectory over every checked-in
   BENCH_*.json snapshot, plus (optionally) a fresh --json capture.
   Columns appear in filename order — the snapshots are named after the
   experiment generation that recorded them (e26, e27, ...), so
   lexicographic order is chronological order. *)

let history args =
  let current = ref None in
  let rec go = function
    | [] -> ()
    | "--current" :: file :: rest ->
        current := Some file;
        go rest
    | "--tolerance" :: v :: rest ->
        tolerance := float_arg "--tolerance" v;
        go rest
    | [ ("--current" | "--tolerance") as flag ] ->
        fail "bench history" "%s needs a value" flag
    | arg :: _ -> fail "bench history" "unknown argument %s" arg
  in
  go args;
  let snapshots =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  let label file = Filename.chop_suffix (Filename.basename file) ".json" in
  let columns =
    List.map (fun f -> (label f, parse_baseline f)) snapshots
    @
    match !current with
    | Some f -> (
        match parse_baseline f with
        | entries -> [ ("current", entries) ]
        | exception Sys_error msg -> fail "bench history" "%s" msg)
    | None -> []
  in
  if List.length columns < 1 then begin
    Printf.eprintf
      "bench history: no BENCH_*.json in the current directory (and no \
       --current file)\n";
    exit 2
  end;
  (* Row order: first appearance across columns, oldest column first,
     so the table is stable as benches are added over time. *)
  let names = ref [] in
  List.iter
    (fun (_, entries) ->
      List.iter
        (fun (name, _) ->
          if not (List.mem name !names) then names := name :: !names)
        entries)
    columns;
  let names = List.rev !names in
  Format.printf "== bench history (%d snapshot(s), tolerance +%.0f%%)@."
    (List.length columns)
    (100. *. !tolerance);
  Format.printf "%-30s" "bench";
  List.iter (fun (l, _) -> Format.printf " %12s" l) columns;
  Format.printf " %9s@." "delta";
  List.iter
    (fun name ->
      Format.printf "%-30s" name;
      (* Walk the columns, remembering the last two present values so
         the delta column compares the newest snapshot to the one
         before it. *)
      let prev = ref None and last = ref None in
      List.iter
        (fun (_, entries) ->
          match List.assoc_opt name entries with
          | Some (Some v) ->
              prev := !last;
              last := Some v;
              Format.printf " %12.0f" v
          | _ -> Format.printf " %12s" "-")
        columns;
      (match (!prev, !last) with
      | Some p, Some l when p > 0. ->
          let delta = (l -. p) /. p in
          Format.printf " %+8.1f%%%s" (100. *. delta)
            (if delta > !tolerance then "  REGRESSED" else "")
      | _ -> Format.printf " %9s" "-");
      Format.printf "@.")
    names

let () =
  (match Array.to_list Sys.argv with
  | _ :: "history" :: rest ->
      history rest;
      exit 0
  | _ :: rest -> parse_args rest
  | [] -> ());
  (* A baseline that cannot be read, or holds no timings, fails before
     the benches run rather than after. *)
  Option.iter
    (fun file ->
      match parse_baseline file with
      | [] -> usage_error "no timings found in baseline %s" file
      | _ -> ()
      | exception Sys_error msg -> usage_error "%s" msg)
    !baseline;
  (* Validate --only up front, whatever passes run: an unknown id must
     fail loudly (exit 2), not silently bench nothing under --json. *)
  (match !only with
  | Some id when Experiments.Run.by_id id = None ->
      Printf.eprintf "unknown experiment %s (have: %s)\n" id
        (String.concat ", " Experiments.Run.ids);
      exit 2
  | _ -> ());
  if !tables then begin
    match !only with
    | Some id -> (
        match Experiments.Run.by_id id with
        | Some f ->
            Experiments.Table.print Format.std_formatter (f ~quick:!quick ~seed:!seed ())
        | None -> assert false)
    | None ->
        List.iter
          (Experiments.Table.print Format.std_formatter)
          (Experiments.Run.all ~quick:!quick ~seed:!seed ())
  end;
  if !benches then begin
    let timings, retime = run_benches () in
    match !baseline with
    | Some file -> compare_baseline ~file ~retime timings
    | None -> ()
  end
