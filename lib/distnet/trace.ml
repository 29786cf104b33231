type stats = {
  rounds : int;
  messages : int;
  words : int;
  max_message_words : int;
}

let diff_stats a b =
  let field name fa fb acc = if fa <> fb then (name, fa, fb) :: acc else acc in
  []
  |> field "max_message_words" a.max_message_words b.max_message_words
  |> field "words" a.words b.words
  |> field "messages" a.messages b.messages
  |> field "rounds" a.rounds b.rounds

type reason = Loss | Src_crashed | Dst_crashed | Link_down | Not_joined | Stale

type kind =
  | Send
  | Deliver
  | Drop of reason
  | Dup
  | Delay of int
  | Crash
  | Restart
  | Edge_down
  | Edge_up
  | Partition
  | Heal
  | Join

type event = { round : int; kind : kind; src : int; dst : int; words : int }

let reason_name = function
  | Loss -> "loss"
  | Src_crashed -> "src-crashed"
  | Dst_crashed -> "dst-crashed"
  | Link_down -> "link-down"
  | Not_joined -> "not-joined"
  | Stale -> "stale-incarnation"

let kind_name = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Drop _ -> "drop"
  | Dup -> "dup"
  | Delay _ -> "delay"
  | Crash -> "crash"
  | Restart -> "restart"
  | Edge_down -> "edge_down"
  | Edge_up -> "edge_up"
  | Partition -> "partition"
  | Heal -> "heal"
  | Join -> "join"

type t = { mutable rev_events : event list; mutable length : int }

let create () = { rev_events = []; length = 0 }

let record t e =
  t.rev_events <- e :: t.rev_events;
  t.length <- t.length + 1

let events t = List.rev t.rev_events
let length t = t.length

(* ------------------------------------------------------------------ *)
(* JSON lines (see Obs.Jsonl) *)

let event_to_json e =
  let extra =
    match e.kind with
    | Drop r -> Printf.sprintf {|,"reason":"%s"|} (reason_name r)
    | Delay k -> Printf.sprintf {|,"delay":%d|} k
    | _ -> ""
  in
  Printf.sprintf {|{"round":%d,"kind":"%s","src":%d,"dst":%d,"words":%d%s}|}
    e.round (kind_name e.kind) e.src e.dst e.words extra

let stats_to_json s =
  Printf.sprintf
    {|{"kind":"stats","rounds":%d,"messages":%d,"words":%d,"max_message_words":%d}|}
    s.rounds s.messages s.words s.max_message_words

let save ?stats t file =
  Util.Lines.save file ~header:[] (fun put ->
      List.iter (fun e -> put (event_to_json e)) (events t);
      Option.iter (fun s -> put (stats_to_json s)) stats)

let kind_of_line (l : Obs.Jsonl.line) =
  match l.kind with
  | "send" -> Send
  | "deliver" -> Deliver
  | "drop" -> (
      let r = Obs.Jsonl.str l "reason" in
      match
        List.find_opt
          (fun x -> reason_name x = r)
          [ Loss; Src_crashed; Dst_crashed; Link_down; Not_joined; Stale ]
      with
      | Some x -> Drop x
      | None -> Obs.Jsonl.fail l (Printf.sprintf "unknown drop reason %S" r))
  | "dup" -> Dup
  | "delay" -> Delay (Obs.Jsonl.int l "delay")
  | "crash" -> Crash
  | "restart" -> Restart
  | "edge_down" -> Edge_down
  | "edge_up" -> Edge_up
  | "partition" -> Partition
  | "heal" -> Heal
  | "join" -> Join
  | other -> Obs.Jsonl.fail l (Printf.sprintf "unknown kind %S" other)

let iter_file file f =
  let stats = ref None in
  Obs.Jsonl.iter file (fun l ->
      let int = Obs.Jsonl.int l in
      if l.kind = "stats" then
        stats :=
          Some
            {
              rounds = int "rounds";
              messages = int "messages";
              words = int "words";
              max_message_words = int "max_message_words";
            }
      else
        let kind = kind_of_line l in
        f
          {
            round = int "round";
            kind;
            src = int "src";
            dst = int "dst";
            words = int "words";
          });
  !stats

let load file =
  let rev_events = ref [] in
  let stats = iter_file file (fun e -> rev_events := e :: !rev_events) in
  (List.rev !rev_events, stats)
