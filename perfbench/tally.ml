(* Named observations collected while an op runs: every value noted
   under a name is kept, and the per-layer table reads them back as a
   sum, a maximum, or a percentile.  [off] keeps nothing, so untraced
   runs allocate nothing for it. *)

type t = { on : bool; tbl : (string, float list) Hashtbl.t }

let off = { on = false; tbl = Hashtbl.create 1 }
let create () = { on = true; tbl = Hashtbl.create 64 }

let note t name v =
  if t.on then
    Hashtbl.replace t.tbl name (v :: Option.value ~default:[] (Hashtbl.find_opt t.tbl name))

let notei t name v = note t name (float_of_int v)
let values t name = Option.value ~default:[] (Hashtbl.find_opt t.tbl name)
let sum t name = List.fold_left ( +. ) 0. (values t name)
let max t name = List.fold_left Float.max 0. (values t name)
