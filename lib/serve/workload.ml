type query = { src : int; dst : int; route : bool }
type spec = { queries : int; zipf : float option; route_frac : float }

let default_spec = { queries = 1000; zipf = None; route_frac = 0. }

let generate ~seed ~n spec =
  if n <= 0 then invalid_arg "Workload.generate: n must be positive";
  if spec.queries < 0 then invalid_arg "Workload.generate: negative queries";
  if spec.route_frac < 0. || spec.route_frac > 1. then
    invalid_arg "Workload.generate: route_frac outside [0,1]";
  let rng = Util.Prng.create ~seed in
  let draw_src =
    match spec.zipf with
    | None -> fun () -> Util.Prng.int rng n
    | Some s ->
        let sampler = Util.Dist.zipf ~n ~s in
        (* Spread the popularity ranks over the vertex set: rank r is
           vertex [rank_of.(r)], fixed by the workload seed. *)
        let rank_of = Array.init n (fun i -> i) in
        Util.Prng.shuffle rng rank_of;
        fun () -> rank_of.(Util.Dist.sample sampler rng)
  in
  Array.init spec.queries (fun _ ->
      let src = draw_src () in
      let dst = Util.Prng.int rng n in
      let route = Util.Prng.bernoulli rng spec.route_frac in
      { src; dst; route })

let save queries path =
  Util.Lines.save path
    ~header:[ Printf.sprintf "#workload queries=%d" (Array.length queries) ]
    (fun put ->
      Array.iter
        (fun q ->
          let kind = if q.route then 'r' else 'd' in
          put (Printf.sprintf "%c %d %d" kind q.src q.dst))
        queries)

let load ~n path =
  let module Lines = Util.Lines in
  let acc = ref [] in
  let query (l : Lines.line) =
    match l.words with
    | [ kind; u; v ] -> (
        let route =
          match kind with
          | "d" -> false
          | "r" -> true
          | _ -> Lines.error l (Printf.sprintf "bad query kind %S" kind)
        in
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some src, Some dst ->
            if src < 0 || src >= n || dst < 0 || dst >= n then
              Lines.error l (Printf.sprintf "vertex out of range (n=%d)" n);
            acc := { src; dst; route } :: !acc
        | _ -> Lines.error l "bad query line")
    | _ -> Lines.error l "bad query line"
  in
  ignore (Lines.words path query);
  Array.of_list (List.rev !acc)

let route_count queries =
  Array.fold_left (fun acc q -> if q.route then acc + 1 else acc) 0 queries
