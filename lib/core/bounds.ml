let e = Float.exp 1.

let skeleton_size ~n ~d =
  let nf = float_of_int n and df = float_of_int d in
  nf
  *. ((df /. e) +. 1. -. (2. /. e)
     +. ((1. +. (1. /. df)) *. (log (df +. 2.) -. Util.Tower.zeta +. 1.))
     +. ((log df +. 0.2) /. df))

let log_d ~d x = log x /. log (float_of_int d)

let skeleton_distortion ~n ~d ~eps =
  let stars = Util.Tower.log_star n - Util.Tower.log_star d in
  (1. /. eps)
  *. (2. ** float_of_int (stars + 7))
  *. log_d ~d (float_of_int (Stdlib.max 2 n))

let skeleton_time ~n ~d ~eps =
  let stars = Util.Tower.log_star n - Util.Tower.log_star d in
  let t =
    (1. /. eps)
    *. (2. ** float_of_int stars)
    *. log_d ~d (float_of_int (Stdlib.max 2 n))
  in
  t +. Util.Tower.log2 (float_of_int (Stdlib.max 2 n))

(* Lemma 10 constants for ell >= 3. *)
let c'_ell ell =
  let l = float_of_int ell in
  1. +. (((2. *. l) +. 1.) /. ((l +. 1.) *. (l -. 2.)))

let c_ell ell =
  let l = float_of_int ell in
  3. +. (((6. *. l) -. 2.) /. (l *. (l -. 2.)))

let fib_i ~ell i =
  let fi = float_of_int i in
  match ell with
  | 1 -> (2. ** (fi +. 2.)) /. 3.
  | 2 -> ((fi +. (2. /. 3.)) *. (2. ** fi)) +. (1. /. 3.)
  | _ ->
      if ell < 1 then invalid_arg "Bounds.fib_i: ell must be >= 1"
      else c'_ell ell *. (float_of_int ell ** fi)

let fib_c ~ell i =
  let fi = float_of_int i in
  match ell with
  | 1 -> 2. ** (fi +. 1.)
  | 2 -> 3. *. (fi +. 1.) *. (2. ** fi)
  | _ ->
      if ell < 1 then invalid_arg "Bounds.fib_c: ell must be >= 1"
      else begin
        let l = float_of_int ell in
        let first = c_ell ell *. (l ** fi) in
        let second = (l ** fi) +. (2. *. c'_ell ell *. fi *. (l ** (fi -. 1.))) in
        Stdlib.min first second
      end

let rec fib_i_rec ~ell i =
  let l = float_of_int ell in
  match i with
  | 0 -> 1.
  | 1 -> l +. 1.
  | _ ->
      (2. *. fib_i_rec ~ell (i - 2))
      +. fib_i_rec ~ell (i - 1)
      +. (l ** float_of_int i)
      +. ((l -. 1.) *. (l ** float_of_int (i - 2)))

let rec fib_c_rec ~ell i =
  let l = float_of_int ell in
  match i with
  | 0 -> 1.
  | 1 -> l +. 2.
  | _ ->
      let prev = fib_c_rec ~ell (i - 1) in
      Stdlib.max (l *. prev)
        (((l -. 1.) *. prev)
        +. (2. *. (fib_i_rec ~ell (i - 2) +. fib_i_rec ~ell (i - 1)))
        +. (l ** float_of_int (i - 1)))

let fib_size ~n ~o ~ell =
  let nf = float_of_int n in
  let fo3 = float_of_int (Util.Fib.f (o + 3)) in
  (float_of_int o *. nf)
  +. ((nf ** (1. +. (1. /. (fo3 -. 1.)))) *. (float_of_int ell ** Util.Fib.phi))

let fib_distortion_stage ~o ~ell =
  match ell with
  | 1 -> 2. ** float_of_int (o + 1)
  | 2 -> 3. *. float_of_int (o + 1)
  | _ ->
      if ell < 1 then invalid_arg "Bounds.fib_distortion_stage"
      else c_ell ell

let log10_fib_beta ~n ~eps ~t =
  let lg = Util.Tower.log2 (float_of_int (Stdlib.max 4 n)) in
  let expo = Util.Fib.log_phi lg +. float_of_int t in
  expo *. Float.log10 (expo /. eps)

let log10_ez_beta ~n ~eps ~t =
  let lg = Util.Tower.log2 (float_of_int (Stdlib.max 4 n)) in
  let lglg = Util.Tower.log2 (Stdlib.max 2. lg) in
  let base = float_of_int (t * t) *. lg *. lglg /. eps in
  float_of_int t *. lglg *. Float.log10 base

let lb_additive_rounds ~n ~delta ~beta =
  let nf = float_of_int n in
  sqrt ((nf ** (1. -. delta)) /. (4. *. beta)) -. 6.

let lb_eps_beta ~n ~delta ~zeta ~tau =
  let nf = float_of_int n in
  (zeta *. zeta *. (nf ** (1. -. delta)) /. (4. *. float_of_int ((tau + 6) * (tau + 6))))
  -. 2.
