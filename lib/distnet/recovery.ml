module Checkpoints = struct
  type 'st t = { slots : 'st option array; mutable commits : int }

  let create ~n = { slots = Array.make (Stdlib.max 1 n) None; commits = 0 }

  let commit t v st =
    t.slots.(v) <- Some st;
    t.commits <- t.commits + 1

  let restore t v = t.slots.(v)
  let commits t = t.commits
end

module Detector = struct
  type status = Up | Suspected | Announced

  type t = { status : status array; mutable nsuspected : int }

  let create ~n = { status = Array.make (Stdlib.max 1 n) Up; nsuspected = 0 }

  let suspect t v =
    match t.status.(v) with
    | Up ->
        t.status.(v) <- Suspected;
        t.nsuspected <- t.nsuspected + 1
    | Suspected | Announced -> ()

  (* A death notice is authoritative: the node completed its protocol
     duties before leaving, so it supersedes a transport suspicion
     (which may have been raised by a message sent after the notice). *)
  let note_death t v =
    (match t.status.(v) with
    | Suspected -> t.nsuspected <- t.nsuspected - 1
    | Up | Announced -> ());
    t.status.(v) <- Announced

  (* Crash-recovery: hearing from a suspected node again means it
     restarted — the suspicion belonged to its previous incarnation.
     An announced death is NOT revoked: the node completed its duties
     and left the algorithm; its reborn incarnation re-enters through
     repair, not by resurrecting its old role. *)
  let unsuspect t v =
    match t.status.(v) with
    | Suspected ->
        t.status.(v) <- Up;
        t.nsuspected <- t.nsuspected - 1
    | Up | Announced -> ()

  let is_down t v = t.status.(v) <> Up
  let is_suspected t v = t.status.(v) = Suspected

  let suspected t =
    let acc = ref [] in
    for v = Array.length t.status - 1 downto 0 do
      if t.status.(v) = Suspected then acc := v :: !acc
    done;
    !acc

  let suspected_count t = t.nsuspected
end
