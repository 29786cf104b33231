let cap = 1 lsl 60

let mul_sat a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b

let pow_sat b e =
  if b < 0 || e < 0 then invalid_arg "Tower.pow_sat: negative argument";
  (* Square-and-multiply with saturation at [cap]. *)
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul_sat acc base else acc in
      if e lsr 1 = 0 then acc else go acc (mul_sat base base) (e lsr 1)
  in
  go 1 b e

let s ~d i =
  if d < 2 then invalid_arg "Tower.s: d must be >= 2";
  if i < 0 then invalid_arg "Tower.s: negative index";
  if i <= 1 then d
  else
    let rec loop prev j = if j > i then prev else loop (pow_sat prev prev) (j + 1) in
    loop d 2

let rounds_for ~d ~n =
  if n <= 1 then 1
  else
    let rec loop l acc =
      (* acc = s_1^2 * ... * s_{l-1}^2, saturating *)
      let sl = s ~d l in
      if mul_sat acc sl >= n then l else loop (l + 1) (mul_sat acc (mul_sat sl sl))
    in
    loop 1 1

let log2 x = log x /. log 2.

let log_star n =
  let rec loop x k = if x <= 1. then k else loop (log2 x) (k + 1) in
  if n <= 1 then 0 else loop (float_of_int n) 0

let zeta = log 2. -. (1. /. Float.exp 1.)
