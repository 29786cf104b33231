module Detector = struct
  type status = Up | Suspected | Announced
  type t = status array

  let create ~n = Array.make (Stdlib.max 1 n) Up
  let suspect t v = if t.(v) = Up then t.(v) <- Suspected

  (* A death notice is authoritative: the node completed its protocol
     duties before leaving, so it supersedes a transport suspicion
     (which may have been raised by a message sent after the notice). *)
  let note_death t v = t.(v) <- Announced

  (* Crash-recovery: hearing from a suspected node again means it
     restarted — the suspicion belonged to its previous incarnation.
     An announced death is NOT revoked: the node completed its duties
     and left the algorithm; its reborn incarnation re-enters through
     repair, not by resurrecting its old role. *)
  let unsuspect t v = if t.(v) = Suspected then t.(v) <- Up
  let is_suspected t v = t.(v) = Suspected
end
