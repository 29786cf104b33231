(* Labeled metrics registry.  See metrics.mli for the design rules
   (no-op sink, deterministic snapshots, fixed log-scale buckets). *)

type labels = (string * string) list

(* Canonical label form: key-sorted, last binding of a duplicate key
   winning — so ["a","1"; "a","2"] and ["a","2"] are the same series. *)
let canon (labels : labels) : labels =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dedup = function
    | (k, _) :: ((k', _) :: _ as rest) when k = k' -> dedup rest
    | kv :: rest -> kv :: dedup rest
    | [] -> []
  in
  dedup sorted

let label_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* ------------------------------------------------------------------ *)
(* Buckets: power-of-two scale. *)

let num_buckets = 31

let bucket_index v =
  if v <= 1 then 0
  else begin
    (* smallest i with v <= 2^i, capped at the unbounded last bucket *)
    let rec go i bound =
      if v <= bound || i = num_buckets - 1 then i else go (i + 1) (2 * bound)
    in
    go 1 2
  end

let bucket_upper i =
  if i < 0 || i >= num_buckets then invalid_arg "Metrics.bucket_upper"
  else if i = num_buckets - 1 then max_int
  else 1 lsl i

(* ------------------------------------------------------------------ *)
(* Cells. *)

type cell = { mutable v : int }

type hist = {
  mutable count : int;
  mutable sum : int;
  mutable hmin : int;
  mutable hmax : int;
  hbuckets : int array;
  mutable rev_samples : int list;
}

type counter = CNoop | C of cell
type gauge = GNoop | G of cell
type histogram = HNoop | H of hist
type instrument = I_counter of cell | I_gauge of cell | I_hist of hist

type reg = {
  tbl : (string, instrument) Hashtbl.t;
  (* creation order, newest first; snapshot reverses *)
  mutable rev_order : (string * labels * instrument) list;
}

type t = Disabled | Reg of reg

let disabled = Disabled
let create () = Reg { tbl = Hashtbl.create 64; rev_order = [] }
let enabled = function Disabled -> false | Reg _ -> true

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_hist _ -> "histogram"

let intern r ~name ~labels ~make ~select ~want =
  let labels = canon labels in
  let key = name ^ "\x00" ^ label_key labels in
  match Hashtbl.find_opt r.tbl key with
  | Some i -> (
      match select i with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s{%s} already registered as a %s, not a %s"
               name (label_key labels) (kind_name i) want))
  | None ->
      let i = make () in
      Hashtbl.replace r.tbl key i;
      r.rev_order <- (name, labels, i) :: r.rev_order;
      (match select i with Some x -> x | None -> assert false)

let counter t ?(labels = []) name =
  match t with
  | Disabled -> CNoop
  | Reg r ->
      C
        (intern r ~name ~labels ~want:"counter"
           ~make:(fun () -> I_counter { v = 0 })
           ~select:(function I_counter c -> Some c | _ -> None))

let incr = function CNoop -> () | C c -> c.v <- c.v + 1
let add c k = match c with CNoop -> () | C c -> c.v <- c.v + k
let counter_value = function CNoop -> 0 | C c -> c.v

let gauge t ?(labels = []) name =
  match t with
  | Disabled -> GNoop
  | Reg r ->
      G
        (intern r ~name ~labels ~want:"gauge"
           ~make:(fun () -> I_gauge { v = 0 })
           ~select:(function I_gauge c -> Some c | _ -> None))

let set g k = match g with GNoop -> () | G c -> c.v <- k
let set_max g k = match g with GNoop -> () | G c -> if k > c.v then c.v <- k
let gauge_value = function GNoop -> 0 | G c -> c.v

let histogram t ?(labels = []) name =
  match t with
  | Disabled -> HNoop
  | Reg r ->
      H
        (intern r ~name ~labels ~want:"histogram"
           ~make:(fun () ->
             I_hist
               {
                 count = 0;
                 sum = 0;
                 hmin = max_int;
                 hmax = min_int;
                 hbuckets = Array.make num_buckets 0;
                 rev_samples = [];
               })
           ~select:(function I_hist h -> Some h | _ -> None))

let observe h v =
  match h with
  | HNoop -> ()
  | H h ->
      h.count <- h.count + 1;
      h.sum <- h.sum + v;
      if v < h.hmin then h.hmin <- v;
      if v > h.hmax then h.hmax <- v;
      let b = bucket_index v in
      h.hbuckets.(b) <- h.hbuckets.(b) + 1;
      h.rev_samples <- v :: h.rev_samples

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

type hist_snapshot = {
  count : int;
  sum : int;
  hmin : int;
  hmax : int;
  buckets : int array;
  samples : float array;
}

type value = Counter of int | Gauge of int | Histogram of hist_snapshot
type sample = { name : string; labels : labels; value : value }

let snap_hist (h : hist) =
  let samples =
    Array.of_list (List.rev_map float_of_int h.rev_samples)
  in
  Array.sort compare samples;
  {
    count = h.count;
    sum = h.sum;
    hmin = (if h.count = 0 then 0 else h.hmin);
    hmax = (if h.count = 0 then 0 else h.hmax);
    buckets = Array.copy h.hbuckets;
    samples;
  }

let snapshot = function
  | Disabled -> []
  | Reg r ->
      List.rev_map
        (fun (name, labels, i) ->
          let value =
            match i with
            | I_counter c -> Counter c.v
            | I_gauge c -> Gauge c.v
            | I_hist h -> Histogram (snap_hist h)
          in
          { name; labels; value })
        r.rev_order

let find samples ?labels name =
  let labels = Option.map canon labels in
  List.find_opt
    (fun s ->
      s.name = name
      && match labels with None -> true | Some l -> s.labels = l)
    samples

(* ------------------------------------------------------------------ *)
(* JSON lines (see Jsonl) *)

let labels_to_json labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf {|%S:%S|} k v) labels)
  ^ "}"

let to_json s =
  let head =
    Printf.sprintf {|{"kind":"metric","type":"%s","name":%S,"labels":%s|}
      (match s.value with
      | Counter _ -> "counter"
      | Gauge _ -> "gauge"
      | Histogram _ -> "histogram")
      s.name
      (labels_to_json s.labels)
  in
  match s.value with
  | Counter v | Gauge v -> Printf.sprintf {|%s,"value":%d}|} head v
  | Histogram h ->
      (* Trim trailing zero buckets: the bucket scale is fixed, so the
         array length carries no information past the last hit. *)
      let last = ref (-1) in
      Array.iteri (fun i c -> if c > 0 then last := i) h.buckets;
      let buckets =
        Array.to_list (Array.sub h.buckets 0 (!last + 1))
        |> List.map string_of_int |> String.concat ","
      in
      Printf.sprintf {|%s,"count":%d,"sum":%d,"min":%d,"max":%d,"buckets":[%s]}|}
        head h.count h.sum h.hmin h.hmax buckets

let save ?(extra = []) t file =
  Util.Lines.save file ~header:extra (fun put ->
      List.iter (fun s -> put (to_json s)) (snapshot t))

let load file =
  let rev = ref [] in
  Jsonl.iter file (fun l ->
      if l.kind = "metric" then begin
        let int = Jsonl.int l in
        let value =
          match Jsonl.str l "type" with
          | "counter" -> Counter (int "value")
          | "gauge" -> Gauge (int "value")
          | "histogram" ->
              let buckets = Array.make num_buckets 0 in
              List.iteri
                (fun i c -> if i < num_buckets then buckets.(i) <- c)
                (Jsonl.ints l "buckets");
              Histogram
                {
                  count = int "count";
                  sum = int "sum";
                  hmin = int "min";
                  hmax = int "max";
                  buckets;
                  samples = [||];
                }
          | other -> Jsonl.fail l (Printf.sprintf "unknown type %S" other)
        in
        rev :=
          { name = Jsonl.str l "name"; labels = Jsonl.pairs l "labels"; value }
          :: !rev
      end);
  List.rev !rev
