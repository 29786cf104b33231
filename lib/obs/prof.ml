(* Allocation & time profiling sink.  See prof.mli for the design
   rules (ambient no-op sink, deterministic structure with advisory
   values, phase rows joining the metrics phase table). *)

type kind = Phase | Region

type row = {
  kind : kind;
  name : string;
  count : int;
  wall_ns : int;
  self_ns : int;
  minor_words : int;
  self_minor_words : int;
  major_words : int;
  self_major_words : int;
  minors : int;
  majors : int;
}

type round_sample = {
  round : int;
  heap_words : int;
  r_minor_words : int;
  r_minors : int;
}

(* One accumulating cell per (kind, name).  Words are kept as floats
   internally — [Gc.quick_stat] counts words in a float and the counts
   are exact integers up to 2^53 — and rounded once at snapshot. *)
type cell = {
  c_kind : kind;
  c_name : string;
  mutable c_count : int;
  mutable c_wall : int;
  mutable c_self_wall : int;
  mutable c_minor : float;
  mutable c_self_minor : float;
  mutable c_major : float;
  mutable c_self_major : float;
  mutable c_minors : int;
  mutable c_majors : int;
}

(* A point sample of the machine: monotonic clock + GC counters. *)
type mark = {
  m_wall : int64;
  m_minor : float;
  m_major : float;
  m_minors : int;
  m_majors : int;
  m_heap : int;
}

let take_mark () =
  let s = Gc.quick_stat () in
  {
    m_wall = Monotonic_clock.now ();
    (* [quick_stat]'s minor_words only advances at minor collections;
       [Gc.minor_words] reads the allocation pointer, so deltas are
       exact to the word. *)
    m_minor = Gc.minor_words ();
    m_major = s.Gc.major_words;
    m_minors = s.Gc.minor_collections;
    m_majors = s.Gc.major_collections;
    m_heap = s.Gc.heap_words;
  }

(* An open region frame.  Child accumulators collect the inclusive
   cost of directly nested regions so [leave] can charge the parent's
   self column with the difference. *)
type frame = {
  f_cell : cell;
  f_start : mark;
  mutable f_child_wall : int;
  mutable f_child_minor : float;
  mutable f_child_major : float;
}

type reg = {
  tbl : (string, cell) Hashtbl.t;
  mutable rev_order : cell list;
  mutable stack : frame list;
  mutable last_phase : mark;
  mutable last_round : mark;
  mutable rev_rounds : round_sample list;
}

type t = Disabled | Reg of reg

let disabled = Disabled
let enabled = function Disabled -> false | Reg _ -> true

let create () =
  let m = take_mark () in
  Reg
    {
      tbl = Hashtbl.create 32;
      rev_order = [];
      stack = [];
      last_phase = m;
      last_round = m;
      rev_rounds = [];
    }

(* The ambient sink: hot paths (engine deliver loop, ARQ sweep, query
   answering) read it instead of threading one more argument through
   every layer.  Default is the no-op sink, so flag-free runs never
   sample a clock. *)
let current_sink = ref Disabled
let set_current t = current_sink := t
let current () = !current_sink

let kind_tag = function Phase -> "phase" | Region -> "region"

let cell r kind name =
  let key = kind_tag kind ^ "\x00" ^ name in
  match Hashtbl.find_opt r.tbl key with
  | Some c -> c
  | None ->
      let c =
        {
          c_kind = kind;
          c_name = name;
          c_count = 0;
          c_wall = 0;
          c_self_wall = 0;
          c_minor = 0.;
          c_self_minor = 0.;
          c_major = 0.;
          c_self_major = 0.;
          c_minors = 0;
          c_majors = 0;
        }
      in
      Hashtbl.replace r.tbl key c;
      r.rev_order <- c :: r.rev_order;
      c

let enter t name =
  match t with
  | Disabled -> ()
  | Reg r ->
      let c = cell r Region name in
      r.stack <-
        {
          f_cell = c;
          f_start = take_mark ();
          f_child_wall = 0;
          f_child_minor = 0.;
          f_child_major = 0.;
        }
        :: r.stack

let leave t =
  match t with
  | Disabled -> ()
  | Reg r -> (
      match r.stack with
      | [] -> ()
      | f :: rest ->
          r.stack <- rest;
          let now = take_mark () in
          let wall = Int64.to_int (Int64.sub now.m_wall f.f_start.m_wall) in
          let minor = now.m_minor -. f.f_start.m_minor in
          let major = now.m_major -. f.f_start.m_major in
          let c = f.f_cell in
          c.c_count <- c.c_count + 1;
          c.c_wall <- c.c_wall + wall;
          c.c_self_wall <- c.c_self_wall + (wall - f.f_child_wall);
          c.c_minor <- c.c_minor +. minor;
          c.c_self_minor <- c.c_self_minor +. (minor -. f.f_child_minor);
          c.c_major <- c.c_major +. major;
          c.c_self_major <- c.c_self_major +. (major -. f.f_child_major);
          c.c_minors <- c.c_minors + (now.m_minors - f.f_start.m_minors);
          c.c_majors <- c.c_majors + (now.m_majors - f.f_start.m_majors);
          (match rest with
          | parent :: _ ->
              parent.f_child_wall <- parent.f_child_wall + wall;
              parent.f_child_minor <- parent.f_child_minor +. minor;
              parent.f_child_major <- parent.f_child_major +. major
          | [] -> ()))

let region t name f =
  match t with
  | Disabled -> f ()
  | Reg _ ->
      enter t name;
      Fun.protect ~finally:(fun () -> leave t) f

let phase t name =
  match t with
  | Disabled -> ()
  | Reg r ->
      let now = take_mark () in
      let prev = r.last_phase in
      r.last_phase <- now;
      let c = cell r Phase name in
      let wall = Int64.to_int (Int64.sub now.m_wall prev.m_wall) in
      let minor = now.m_minor -. prev.m_minor in
      let major = now.m_major -. prev.m_major in
      c.c_count <- c.c_count + 1;
      c.c_wall <- c.c_wall + wall;
      c.c_self_wall <- c.c_self_wall + wall;
      c.c_minor <- c.c_minor +. minor;
      c.c_self_minor <- c.c_self_minor +. minor;
      c.c_major <- c.c_major +. major;
      c.c_self_major <- c.c_self_major +. major;
      c.c_minors <- c.c_minors + (now.m_minors - prev.m_minors);
      c.c_majors <- c.c_majors + (now.m_majors - prev.m_majors)

let round_mark t ~round =
  match t with
  | Disabled -> ()
  | Reg r ->
      let now = take_mark () in
      let prev = r.last_round in
      r.last_round <- now;
      r.rev_rounds <-
        {
          round;
          heap_words = now.m_heap;
          r_minor_words = int_of_float (now.m_minor -. prev.m_minor);
          r_minors = now.m_minors - prev.m_minors;
        }
        :: r.rev_rounds

let row_of_cell c =
  {
    kind = c.c_kind;
    name = c.c_name;
    count = c.c_count;
    wall_ns = c.c_wall;
    self_ns = c.c_self_wall;
    minor_words = int_of_float c.c_minor;
    self_minor_words = int_of_float c.c_self_minor;
    major_words = int_of_float c.c_major;
    self_major_words = int_of_float c.c_self_major;
    minors = c.c_minors;
    majors = c.c_majors;
  }

let rows = function
  | Disabled -> []
  | Reg r -> List.rev_map row_of_cell r.rev_order

let round_samples = function
  | Disabled -> []
  | Reg r -> List.rev r.rev_rounds

(* ------------------------------------------------------------------ *)
(* JSON lines (see Jsonl) *)

let row_to_json r =
  Printf.sprintf
    {|{"kind":"prof","rk":"%s","name":%S,"count":%d,"wall_ns":%d,"self_ns":%d,"minor":%d,"self_minor":%d,"major":%d,"self_major":%d,"minors":%d,"majors":%d}|}
    (kind_tag r.kind) r.name r.count r.wall_ns r.self_ns r.minor_words
    r.self_minor_words r.major_words r.self_major_words r.minors r.majors

let round_to_json (s : round_sample) =
  Printf.sprintf {|{"kind":"prof_round","round":%d,"heap":%d,"minor":%d,"minors":%d}|}
    s.round s.heap_words s.r_minor_words s.r_minors

let save ?(extra = []) t file =
  Util.Lines.save file ~header:extra (fun put ->
      List.iter (fun r -> put (row_to_json r)) (rows t);
      List.iter (fun s -> put (round_to_json s)) (round_samples t))

type item = Row of row | Round of round_sample

let iter_file file f =
  Jsonl.iter file (fun l ->
      let int = Jsonl.int l in
      match l.kind with
      | "prof" ->
          let kind =
            match Jsonl.str l "rk" with
            | "phase" -> Phase
            | "region" -> Region
            | other -> Jsonl.fail l (Printf.sprintf "unknown row kind %S" other)
          in
          f
            (Row
               {
                 kind;
                 name = Jsonl.str l "name";
                 count = int "count";
                 wall_ns = int "wall_ns";
                 self_ns = int "self_ns";
                 minor_words = int "minor";
                 self_minor_words = int "self_minor";
                 major_words = int "major";
                 self_major_words = int "self_major";
                 minors = int "minors";
                 majors = int "majors";
               })
      | "prof_round" ->
          f
            (Round
               {
                 round = int "round";
                 heap_words = int "heap";
                 r_minor_words = int "minor";
                 r_minors = int "minors";
               })
      | _ -> ())

let load file =
  let rev_rows = ref [] and rev_rounds = ref [] in
  iter_file file (function
    | Row r -> rev_rows := r :: !rev_rows
    | Round s -> rev_rounds := s :: !rev_rounds);
  (List.rev !rev_rows, List.rev !rev_rounds)
