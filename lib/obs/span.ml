(* Causal span log.  Same shape as Metrics: a [t] is either the shared
   no-op sink or a growable registry; every recording operation starts
   with one tag check so the disabled path is free and runs without
   span recording stay byte-identical. *)

type kind = Message | Phase | Call | Cluster | Arq | Retransmit

let kind_name = function
  | Message -> "message"
  | Phase -> "phase"
  | Call -> "call"
  | Cluster -> "cluster"
  | Arq -> "arq"
  | Retransmit -> "retransmit"

let kind_of_name = function
  | "message" -> Some Message
  | "phase" -> Some Phase
  | "call" -> Some Call
  | "cluster" -> Some Cluster
  | "arq" -> Some Arq
  | "retransmit" -> Some Retransmit
  | _ -> None

type status = Open | Delivered | Dropped of string

type record = {
  id : int;
  kind : kind;
  name : string;
  parent : int;
  src : int;
  dst : int;
  words : int;
  start_round : int;
  mutable stop_round : int;
  mutable ls : int;
  mutable ld : int;
  mutable status : status;
}

(* Spans are resolved by id at delivery time, so the registry is a
   growable array rather than a list. *)
type reg = {
  mutable arr : record array;
  mutable len : int;
  mutable clocks : int array;  (* Lamport clock per node id *)
}

type t = Disabled | Reg of reg

let disabled = Disabled

let dummy =
  { id = -1; kind = Message; name = ""; parent = -1; src = -1; dst = -1;
    words = 0; start_round = 0; stop_round = -1; ls = 0; ld = 0;
    status = Open }

let create () = Reg { arr = Array.make 64 dummy; len = 0; clocks = Array.make 16 0 }

let enabled = function Disabled -> false | Reg _ -> true

let add r s =
  if r.len = Array.length r.arr then begin
    let arr = Array.make (2 * r.len) dummy in
    Array.blit r.arr 0 arr 0 r.len;
    r.arr <- arr
  end;
  r.arr.(r.len) <- s;
  r.len <- r.len + 1;
  s.id

let clock r v =
  if v >= Array.length r.clocks then begin
    let n = max (v + 1) (2 * Array.length r.clocks) in
    let clocks = Array.make n 0 in
    Array.blit r.clocks 0 clocks 0 (Array.length r.clocks);
    r.clocks <- clocks
  end;
  r.clocks.(v)

let tick r v =
  let l = clock r v + 1 in
  r.clocks.(v) <- l;
  l

let merge r v ls =
  let l = max (clock r v) ls + 1 in
  r.clocks.(v) <- l;
  l

let message t ~round ~src ~dst ~words =
  match t with
  | Disabled -> -1
  | Reg r ->
      let ls = if src >= 0 then tick r src else 0 in
      add r
        { id = r.len; kind = Message; name = ""; parent = -1; src; dst; words;
          start_round = round; stop_round = -1; ls; ld = 0; status = Open }

let get r id = if id >= 0 && id < r.len then Some r.arr.(id) else None

let deliver t ~round id =
  match t with
  | Disabled -> ()
  | Reg r -> (
      match get r id with
      | Some s when s.status = Open ->
          s.status <- Delivered;
          s.stop_round <- round;
          if s.dst >= 0 then s.ld <- merge r s.dst s.ls
      | _ -> ())

let drop t ~round ~reason id =
  match t with
  | Disabled -> ()
  | Reg r -> (
      match get r id with
      | Some s when s.status = Open ->
          s.status <- Dropped reason;
          s.stop_round <- round
      | _ -> ())

let open_span t ?(parent = -1) ?(src = -1) ?(dst = -1) kind ~name ~round =
  match t with
  | Disabled -> -1
  | Reg r ->
      add r
        { id = r.len; kind; name; parent; src; dst; words = 0;
          start_round = round; stop_round = -1; ls = 0; ld = 0; status = Open }

let close t ~round id =
  match t with
  | Disabled -> ()
  | Reg r -> (
      match get r id with
      | Some s when s.status = Open ->
          s.status <- Delivered;
          s.stop_round <- round
      | _ -> ())

let span t ?(parent = -1) ?(src = -1) ?(dst = -1) kind ~name ~start_round
    ~stop_round =
  match t with
  | Disabled -> -1
  | Reg r ->
      add r
        { id = r.len; kind; name; parent; src; dst; words = 0; start_round;
          stop_round; ls = 0; ld = 0; status = Delivered }

let count = function Disabled -> 0 | Reg r -> r.len

let records = function
  | Disabled -> []
  | Reg r -> List.init r.len (fun i -> r.arr.(i))

(* ------------------------------------------------------------------ *)
(* JSON lines (see Jsonl)                                              *)

let to_json s =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf {|{"kind":"span","id":%d,"sk":"%s"|} s.id
       (kind_name s.kind));
  if s.name <> "" then Buffer.add_string b (Printf.sprintf {|,"name":%S|} s.name);
  if s.parent >= 0 then
    Buffer.add_string b (Printf.sprintf {|,"parent":%d|} s.parent);
  Buffer.add_string b
    (Printf.sprintf {|,"src":%d,"dst":%d,"words":%d,"start":%d,"stop":%d|}
       s.src s.dst s.words s.start_round s.stop_round);
  if s.ls <> 0 || s.ld <> 0 then
    Buffer.add_string b (Printf.sprintf {|,"ls":%d,"ld":%d|} s.ls s.ld);
  (match s.status with
  | Open -> Buffer.add_string b {|,"status":"open"|}
  | Delivered -> Buffer.add_string b {|,"status":"delivered"|}
  | Dropped reason ->
      Buffer.add_string b
        (Printf.sprintf {|,"status":"dropped","reason":%S|} reason));
  Buffer.add_char b '}';
  Buffer.contents b

let save ?(extra = []) t file =
  Util.Lines.save file ~header:extra (fun put ->
      match t with
      | Disabled -> ()
      | Reg r ->
          for i = 0 to r.len - 1 do
            put (to_json r.arr.(i))
          done)

let iter_file file f =
  Jsonl.iter file (fun l ->
      if l.kind = "span" then begin
        let int = Jsonl.int l in
        let opt name default = Option.value ~default (Jsonl.int_opt l name) in
        let kind =
          let n = Jsonl.str l "sk" in
          match kind_of_name n with
          | Some k -> k
          | None -> Jsonl.fail l (Printf.sprintf "unknown span kind %S" n)
        in
        let status =
          match Jsonl.str l "status" with
          | "open" -> Open
          | "delivered" -> Delivered
          | "dropped" -> Dropped (Jsonl.str l "reason")
          | s -> Jsonl.fail l (Printf.sprintf "unknown status %S" s)
        in
        f
          { id = int "id"; kind;
            name = Option.value ~default:"" (Jsonl.str_opt l "name");
            parent = opt "parent" (-1); src = int "src"; dst = int "dst";
            words = int "words"; start_round = int "start";
            stop_round = int "stop"; ls = opt "ls" 0; ld = opt "ld" 0; status }
      end)

let load file =
  let acc = ref [] in
  iter_file file (fun s -> acc := s :: !acc);
  List.rev !acc
