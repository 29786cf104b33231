type t = {
  start : int array;  (** row [v] is [start.(v) .. start.(v+1) - 1] *)
  entries : int array;
      (** [key lsl 32 lor value]: a probe reads one word, and the rows
          take half the cache lines that split keys and values would.
          Slots from [start.(n)] on are slack left by repeated keys. *)
}

(* The write stream, in chunks of [chunk] (row, packed pair) writes.
   A chunk is 256 words, small enough for the minor heap, so the scratch
   of a small build dies young instead of growing the major heap. *)
let chunk = 128

type writes = {
  mutable full : int array list;  (** full chunks, newest first *)
  mutable cur : int array;  (** [cur.(2i)] the row, [cur.(2i+1)] the pair *)
  mutable fill : int;
  mutable len : int;
}

let writes () = { full = []; cur = Array.make (2 * chunk) 0; fill = 0; len = 0 }

let add w r k v =
  if w.fill = chunk then begin
    w.full <- w.cur :: w.full;
    w.cur <- Array.make (2 * chunk) 0;
    w.fill <- 0
  end;
  w.cur.(2 * w.fill) <- r;
  w.cur.((2 * w.fill) + 1) <- (k lsl 32) lor v;
  w.fill <- w.fill + 1;
  w.len <- w.len + 1

(* [f row pair] over the writes, in the order they were made. *)
let iter w f =
  let run c len =
    for i = 0 to len - 1 do
      f c.(2 * i) c.((2 * i) + 1)
    done
  in
  List.iter (fun c -> run c chunk) (List.rev w.full);
  run w.cur w.fill

let key e = e lsr 32

let build ~n w =
  if n > 1 lsl 30 then invalid_arg "Rows.build: more than 2^30 vertices";
  let start = Array.make (n + 1) 0 in
  iter w (fun r _ -> start.(r + 1) <- start.(r + 1) + 1);
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  (* Scatter by row, each row in write order. *)
  let entries = Array.make w.len 0 and next = Array.sub start 0 n in
  iter w (fun r e ->
      entries.(next.(r)) <- e;
      next.(r) <- next.(r) + 1);
  (* Sort each row by key with a stable insertion sort (rows arrive as
     a few ascending runs: the oracle writes in key order), then keep
     the last write of each key, compacting the rows leftwards. *)
  let at = ref 0 in
  for v = 0 to n - 1 do
    let lo = start.(v) and hi = start.(v + 1) in
    for i = lo + 1 to hi - 1 do
      let e = entries.(i) in
      let j = ref (i - 1) in
      while !j >= lo && key entries.(!j) > key e do
        entries.(!j + 1) <- entries.(!j);
        decr j
      done;
      entries.(!j + 1) <- e
    done;
    start.(v) <- !at;
    for i = lo to hi - 1 do
      if i = hi - 1 || key entries.(i) <> key entries.(i + 1) then begin
        entries.(!at) <- entries.(i);
        incr at
      end
    done
  done;
  start.(n) <- !at;
  { start; entries }

let rec search (entries : int array) k lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let e = entries.(mid) in
    if key e = k then e land 0xFFFF_FFFF
    else if key e < k then search entries k (mid + 1) hi
    else search entries k lo mid

let find t row k = search t.entries k t.start.(row) t.start.(row + 1)

let length t = t.start.(Array.length t.start - 1)
