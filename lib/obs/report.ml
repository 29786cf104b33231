type phase_row = {
  phase : string;
  rounds : int;
  messages : int;
  words : int;
  max_words : int;
}

let empty_row phase = { phase; rounds = 0; messages = 0; words = 0; max_words = 0 }

let phase_rows samples =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let row phase =
    match Hashtbl.find_opt tbl phase with
    | Some r -> r
    | None ->
        order := phase :: !order;
        let r = ref (empty_row phase) in
        Hashtbl.replace tbl phase r;
        r
  in
  List.iter
    (fun (s : Metrics.sample) ->
      match List.assoc_opt "phase" s.labels with
      | None -> ()
      | Some phase -> (
          let v =
            match s.value with
            | Metrics.Counter v | Metrics.Gauge v -> v
            | Metrics.Histogram h -> h.sum
          in
          match s.name with
          | "phase_rounds" ->
              let r = row phase in
              r := { !r with rounds = !r.rounds + v }
          | "phase_messages" ->
              let r = row phase in
              r := { !r with messages = !r.messages + v }
          | "phase_words" ->
              let r = row phase in
              r := { !r with words = !r.words + v }
          | "phase_max_message_words" ->
              let r = row phase in
              r := { !r with max_words = Stdlib.max !r.max_words v }
          | _ -> ()))
    samples;
  List.rev_map (fun phase -> !(Hashtbl.find tbl phase)) !order

let totals rows =
  List.fold_left
    (fun acc r ->
      {
        acc with
        rounds = acc.rounds + r.rounds;
        messages = acc.messages + r.messages;
        words = acc.words + r.words;
        max_words = Stdlib.max acc.max_words r.max_words;
      })
    (empty_row "total") rows

let pp_phase_table ppf samples =
  match phase_rows samples with
  | [] -> Format.fprintf ppf "(no phase metrics recorded)@."
  | rows ->
      let line { phase; rounds; messages; words; max_words } =
        Format.fprintf ppf "%-22s %8d %10d %10d %10d@." phase rounds messages
          words max_words
      in
      Format.fprintf ppf "%-22s %8s %10s %10s %10s@." "phase" "rounds"
        "messages" "words" "max_words";
      List.iter line rows;
      line (totals rows)

type serve_row = {
  generation : int;
  fresh : int;
  stale : int;
  latency : Metrics.hist_snapshot option;
}

let serve_rows samples =
  let tbl = Hashtbl.create 4 in
  let row gen =
    match Hashtbl.find_opt tbl gen with
    | Some r -> r
    | None ->
        let r = ref { generation = gen; fresh = 0; stale = 0; latency = None } in
        Hashtbl.replace tbl gen r;
        r
  in
  List.iter
    (fun (s : Metrics.sample) ->
      match List.assoc_opt "generation" s.labels with
      | None -> ()
      | Some gen -> (
          match int_of_string_opt gen with
          | None -> ()
          | Some gen -> (
              match (s.name, s.value) with
              | "serve_answers", (Metrics.Counter v | Metrics.Gauge v) -> (
                  let r = row gen in
                  match List.assoc_opt "freshness" s.labels with
                  | Some "stale" -> r := { !r with stale = !r.stale + v }
                  | _ -> r := { !r with fresh = !r.fresh + v })
              | "serve_latency_ns", Metrics.Histogram h ->
                  let r = row gen in
                  r := { !r with latency = Some h }
              | _ -> ())))
    samples;
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare a.generation b.generation)

let hist_percentile (h : Metrics.hist_snapshot) p =
  if h.count = 0 then nan
  else if Array.length h.samples > 0 then
    Util.Stats.exact_percentile_of_sorted h.samples p
  else begin
    (* Nearest-rank over the bucket counts; report the bucket's upper
       bound (the tightest value the serialized form can certify). *)
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int h.count)))
    in
    let rec scan i seen =
      if i >= Array.length h.buckets then float_of_int h.hmax
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then
          if i = Metrics.num_buckets - 1 then float_of_int h.hmax
          else float_of_int (Metrics.bucket_upper i)
        else scan (i + 1) seen
    in
    scan 0 0
  end

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Format.fprintf ppf "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let pp_num ppf v =
  if Float.is_nan v then Format.fprintf ppf "-"
  else if Float.is_integer v then Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.2f" v

let pp_serve_table ppf samples =
  match serve_rows samples with
  | [] -> Format.fprintf ppf "(no serve metrics recorded)@."
  | rows ->
      let scalar name =
        List.fold_left
          (fun acc (s : Metrics.sample) ->
            match s.value with
            | (Metrics.Counter v | Metrics.Gauge v) when s.name = name ->
                acc + v
            | _ -> acc)
          0 samples
      in
      Format.fprintf ppf "%-10s %10s %10s %10s %10s %10s@." "generation"
        "answers" "stale" "p50_ns" "p90_ns" "p99_ns";
      let num v =
        if Float.is_nan v then "-"
        else if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.2f" v
      in
      List.iter
        (fun r ->
          let pct p =
            match r.latency with
            | Some h -> hist_percentile h p
            | None -> nan
          in
          Format.fprintf ppf "%-10d %10d %10d %10s %10s %10s@." r.generation
            (r.fresh + r.stale) r.stale
            (num (pct 0.5)) (num (pct 0.9)) (num (pct 0.99)))
        rows;
      Format.fprintf ppf "failed=%d swaps=%d@." (scalar "serve_failed")
        (scalar "serve_swaps")

(* ------------------------------------------------------------------ *)
(* Profile tables *)

let ms ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e6)

let top_sites rows =
  List.filter (fun (r : Prof.row) -> r.Prof.kind = Prof.Region) rows
  |> List.sort (fun (a : Prof.row) (b : Prof.row) ->
         match compare b.Prof.self_minor_words a.Prof.self_minor_words with
         | 0 -> compare a.Prof.name b.Prof.name
         | c -> c)

let pp_profile_table ?(top = 3) ppf
    ((rows : Prof.row list), (rounds : Prof.round_sample list)) =
  let phases = List.filter (fun (r : Prof.row) -> r.Prof.kind = Prof.Phase) rows in
  let regions = List.filter (fun (r : Prof.row) -> r.Prof.kind = Prof.Region) rows in
  if rows = [] then Format.fprintf ppf "(no profile rows recorded)@."
  else begin
    if phases <> [] then begin
      Format.fprintf ppf "%-22s %8s %10s %12s %12s %7s %7s@." "phase" "count"
        "wall_ms" "minor_words" "major_words" "minors" "majors";
      let tot = ref (0, 0., 0, 0, 0, 0) in
      List.iter
        (fun (r : Prof.row) ->
          let c, w, mi, ma, mc, jc = !tot in
          tot :=
            ( c + r.Prof.count,
              w +. float_of_int r.Prof.wall_ns,
              mi + r.Prof.minor_words,
              ma + r.Prof.major_words,
              mc + r.Prof.minors,
              jc + r.Prof.majors );
          Format.fprintf ppf "%-22s %8d %10s %12d %12d %7d %7d@." r.Prof.name
            r.Prof.count (ms r.Prof.wall_ns) r.Prof.minor_words
            r.Prof.major_words r.Prof.minors r.Prof.majors)
        phases;
      let c, w, mi, ma, mc, jc = !tot in
      Format.fprintf ppf "%-22s %8d %10s %12d %12d %7d %7d@." "total" c
        (ms (int_of_float w)) mi ma mc jc
    end;
    if regions <> [] then begin
      if phases <> [] then Format.fprintf ppf "@.";
      Format.fprintf ppf "%-22s %8s %10s %10s %12s %12s %7s@." "region" "count"
        "total_ms" "self_ms" "minor_words" "self_minor" "majors";
      List.iter
        (fun (r : Prof.row) ->
          Format.fprintf ppf "%-22s %8d %10s %10s %12d %12d %7d@." r.Prof.name
            r.Prof.count (ms r.Prof.wall_ns) (ms r.Prof.self_ns)
            r.Prof.minor_words r.Prof.self_minor_words r.Prof.majors)
        regions;
      let sites = top_sites regions in
      Format.fprintf ppf "@.top %d allocation sites (self minor words):@."
        (Stdlib.min top (List.length sites));
      List.iteri
        (fun i (r : Prof.row) ->
          if i < top then
            Format.fprintf ppf "  %d. %-20s %12d words@." (i + 1) r.Prof.name
              r.Prof.self_minor_words)
        sites
    end;
    match rounds with
    | [] -> ()
    | _ ->
        let n = List.length rounds in
        let last = List.nth rounds (n - 1) in
        let peak =
          List.fold_left
            (fun acc (s : Prof.round_sample) ->
              Stdlib.max acc s.Prof.r_minor_words)
            0 rounds
        in
        Format.fprintf ppf
          "@.%d round samples, final heap %d words, peak %d minor words/round@."
          n last.Prof.heap_words peak
  end

let pp_summary ppf samples =
  List.iter
    (fun (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter v ->
          Format.fprintf ppf "%s%a = %d@." s.name pp_labels s.labels v
      | Metrics.Gauge v ->
          Format.fprintf ppf "%s%a = %d (gauge)@." s.name pp_labels s.labels v
      | Metrics.Histogram h ->
          if h.count = 0 then
            Format.fprintf ppf "%s%a: count=0@." s.name pp_labels s.labels
          else
            Format.fprintf ppf
              "%s%a: count=%d sum=%d min=%d max=%d p50=%a p90=%a p99=%a@."
              s.name pp_labels s.labels h.count h.sum h.hmin h.hmax pp_num
              (hist_percentile h 0.5) pp_num (hist_percentile h 0.9) pp_num
              (hist_percentile h 0.99))
    samples
