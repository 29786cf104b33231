type phase = Tower | Amplify | Final | Kill

type call = {
  index : int;
  round : int;
  iter : int;
  p : float;
  density_after : float;
  abort_q : int;
  phase : phase;
}

type t = {
  n : int;
  d : int;
  eps : float;
  word_budget : int;
  calls : call array;
  num_rounds : int;
}

let abort_threshold ~n ~p =
  if p <= 0. then max_int
  else
    let raw = 4. /. p *. log (float_of_int (Stdlib.max 2 n)) in
    if raw >= float_of_int max_int then max_int
    else int_of_float (Float.ceil raw)

let make ~n ?(d = 4) ?(eps = 0.5) () =
  if d < 2 then invalid_arg "Plan.make: d must be >= 2";
  if eps <= 0. || eps > 1. then invalid_arg "Plan.make: eps must be in (0, 1]";
  if n < 0 then invalid_arg "Plan.make: negative n";
  let log_n = Stdlib.max 1. (Util.Tower.log2 (float_of_int (Stdlib.max 2 n))) in
  let w = log_n ** eps in
  let word_budget = Stdlib.max 1 (int_of_float (Float.round w)) in
  (* Probabilities below need 1/w < 1; clamp the amplification base. *)
  let w_eff = Stdlib.max 2. w in
  let threshold = w *. Util.Tower.log2 (Stdlib.max 2. w) in
  let threshold = Stdlib.max 1. threshold in
  let calls = ref [] in
  let index = ref 0 in
  let density = ref 1. in
  let push ~round ~iter ~p ~phase =
    density :=
      (if p > 0. then !density /. p
       else Stdlib.max !density (float_of_int (Stdlib.max 1 n)));
    calls :=
      {
        index = !index;
        round;
        iter;
        p;
        density_after = !density;
        abort_q = abort_threshold ~n ~p;
        phase;
      }
      :: !calls;
    incr index
  in
  (* Tower phase. *)
  let round = ref 0 in
  (try
     (* Round 0: a single call at probability 1/D. *)
     push ~round:0 ~iter:0 ~p:(1. /. float_of_int d) ~phase:Tower;
     if !density > threshold then raise Exit;
     let i = ref 1 in
     while true do
       incr round;
       let s = Util.Tower.s ~d !i in
       let p = 1. /. float_of_int s in
       let iterations = if s >= Util.Tower.cap then 1 else s + 1 in
       for j = 0 to iterations - 1 do
         if !density <= threshold then push ~round:!round ~iter:j ~p ~phase:Tower
       done;
       if !density > threshold then raise Exit;
       incr i
     done
   with Exit -> ());
  (* Amplify phase: push the nominal density to at least log n. *)
  let p_slow = 1. /. w_eff in
  if !density < log_n then begin
    incr round;
    let iter = ref 0 in
    while !density < log_n do
      push ~round:!round ~iter:!iter ~p:p_slow ~phase:Amplify;
      incr iter
    done
  end;
  (* Final phase: push the nominal density to n, then kill. *)
  incr round;
  let iter = ref 0 in
  while !density < float_of_int (Stdlib.max 1 n) do
    push ~round:!round ~iter:!iter ~p:p_slow ~phase:Final;
    incr iter
  done;
  push ~round:!round ~iter:!iter ~p:0. ~phase:Kill;
  let calls = Array.of_list (List.rev !calls) in
  { n; d; eps; word_budget; calls; num_rounds = !round + 1 }

let last_call t = t.calls.(Array.length t.calls - 1)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>plan n=%d D=%d eps=%.2f budget=%d words, %d calls in %d rounds@," t.n
    t.d t.eps t.word_budget (Array.length t.calls) t.num_rounds;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  call %d: round %d iter %d p=%.4f density=%.1f %s@,"
        c.index c.round c.iter c.p c.density_after
        (match c.phase with
        | Tower -> "tower"
        | Amplify -> "amplify"
        | Final -> "final"
        | Kill -> "kill"))
    t.calls;
  Format.fprintf ppf "@]"
