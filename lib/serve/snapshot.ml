module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

type t = {
  generation : int;
  k : int;
  seed : int;
  graph : Graph.t;  (** the spanner, re-indexed as its own CSR graph *)
  oracle : Oracle.Distance_oracle.t;
  routing : Oracle.Compact_routing.t option;
}

let of_graph ?(generation = 0) ?(k = 2) ?(seed = 1) ?(routing = false) g =
  if k < 1 then invalid_arg "Snapshot.of_graph: k must be >= 1";
  {
    generation;
    k;
    seed;
    graph = g;
    oracle = Oracle.Distance_oracle.build ~k ~seed g;
    routing = (if routing then Some (Oracle.Compact_routing.build ~seed g) else None);
  }

let build ?generation ?k ?seed ?routing ?(exclude = []) g spanner =
  let dead = Hashtbl.create (List.length exclude + 1) in
  List.iter (fun e -> Hashtbl.replace dead e ()) exclude;
  (* Collect surviving spanner edges in ascending edge-id order so the
     frozen graph's vertex adjacency (and thus every query structure)
     is deterministic in the input. *)
  let ids = ref [] in
  Edge_set.iter spanner (fun e -> if not (Hashtbl.mem dead e) then ids := e :: !ids);
  let ids = List.sort compare !ids in
  let b = Graph.Builder.create ~n:(Graph.n g) in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      Graph.Builder.add_edge b u v)
    ids;
  of_graph ?generation ?k ?seed ?routing (Graph.Builder.build b)

let distance t u v = Oracle.Distance_oracle.query_est t.oracle u v

let route_hops t u v =
  match t.routing with
  | Some r -> Oracle.Compact_routing.route_hops r ~src:u ~dst:v
  | None -> -1

let has_routing t = t.routing <> None
let generation t = t.generation
let n t = Graph.n t.graph
let edges t = Graph.m t.graph
let oracle_k t = t.k
let oracle_entries t = Oracle.Distance_oracle.size t.oracle
let graph t = t.graph

let pp ppf t =
  Format.fprintf ppf "gen=%d edges=%d oracle k=%d entries=%d routing=%s"
    t.generation (edges t) t.k (oracle_entries t)
    (if has_routing t then "on" else "off")

(* Persistence: one header comment with the build parameters plus a
   checksum over the body, then the standard edge-list body.  Io skips
   '#' lines, so the body also reads as a plain graph file.  The
   checksum makes partial writes and bit-rot loud at load time; the
   write itself goes through a temp file + rename so a crashed save
   never leaves a half-written snapshot under the real name. *)

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let save t path =
  let body = Buffer.create 4096 in
  Graphlib.Io.to_buffer t.graph body;
  let body = Buffer.contents body in
  let header =
    Printf.sprintf "#snapshot gen=%d k=%d seed=%d routing=%d sum=0x%08x bytes=%d\n"
      t.generation t.k t.seed
      (if has_routing t then 1 else 0)
      (adler32 body) (String.length body)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_string oc body;
      close_out oc);
  Sys.rename tmp path

let load ?generation path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail fmt = Printf.ksprintf (Util.Lines.fail ~file:path ~line:1) fmt in
  if text = "" then fail "empty snapshot file";
  let header, body =
    match String.index_opt text '\n' with
    | Some i ->
        let rest = String.length text - i - 1 in
        (String.sub text 0 i, String.sub text (i + 1) rest)
    | None -> (text, "")
  in
  let h = Util.Lines.line ~file:path ~num:1 header in
  if not (String.starts_with ~prefix:"#snapshot" h.text) then
    Util.Lines.error h "not a snapshot file";
  let int k = Util.Lines.field h k int_of_string_opt in
  let gen = int "gen" in
  let k = int "k" in
  let seed = int "seed" in
  let routing = int "routing" <> 0 in
  let sum = int "sum" in
  let bytes = int "bytes" in
  if k < 1 then Util.Lines.error h (Printf.sprintf "oracle k=%d < 1" k);
  let got = String.length body in
  if got < bytes then fail "truncated snapshot: %d of %d body bytes" got bytes;
  if got > bytes then
    fail "snapshot body longer than declared: %d of %d body bytes" got bytes;
  if adler32 body <> sum then
    fail "snapshot checksum mismatch: stored 0x%08x, computed 0x%08x" sum
      (adler32 body);
  of_graph
    ~generation:(Option.value ~default:gen generation)
    ~k ~seed ~routing
    (Graphlib.Io.of_string ~file:path ~first:2 body)
