let initial_buckets = 16
let grow ~buckets ~count = if count > 2 * buckets then 2 * buckets else buckets
let bucket ~buckets keys x = Hashtbl.hash keys.(x) land (buckets - 1)

(* [y] is visited after [x], whose bucket is [bx] and stamp [sx]. *)
let after ~buckets ~keys ~stamps y bx sx =
  let by = bucket ~buckets keys y in
  by > bx || (by = bx && stamps.(y) < sx)

let sort ~buckets ~keys ~stamps ix len =
  for i = 1 to len - 1 do
    let x = ix.(i) in
    let bx = bucket ~buckets keys x and sx = stamps.(x) in
    let j = ref (i - 1) in
    while !j >= 0 && after ~buckets ~keys ~stamps ix.(!j) bx sx do
      ix.(!j + 1) <- ix.(!j);
      decr j
    done;
    ix.(!j + 1) <- x
  done
