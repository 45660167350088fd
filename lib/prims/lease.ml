(* Slot leases: the one map from callers to slot indices for the
   static-process algorithms — MCS, CLH, the bakery and the epoch
   readers. Their protocols index per-slot registers, so a caller needs
   a slot for exactly as long as it is inside the protocol, from lock to
   unlock. A lease table is a fixed array of flags, 0 free and 1 leased:
   a lease is one CAS on a free flag, scanned from the caller's hint so
   a thread keeps landing on the same slot; a release is one store.

   The slot count therefore bounds {e concurrent} contenders, as the
   bakery's n-process bound intends, not the number of threads that
   ever touch a lock. When every slot is leased, [lease] waits through
   [R.await] and [try_lease] reports failure. Leasing is bookkeeping
   outside each protocol — the protocol code sees only a slot index —
   and the functor runs on {!Detrt} recorded registers too, so DPOR
   explores slot reuse on the same code production runs. *)

let slots = 64

module Make (R : Regs.CAS) = struct
  type t = R.t array

  let create n = Array.init n (fun _ -> R.make 0)

  (* The first flag won from [hint] onwards, or -1 when all are taken. *)
  let scan t ~hint =
    let n = Array.length t in
    let rec go i =
      if i = n then -1
      else
        let s = (hint + i) mod n in
        if R.cas t.(s) 0 1 then s else go (i + 1)
    in
    go 0

  let try_lease t ~hint =
    let s = scan t ~hint in
    if s < 0 then None else Some s

  let rec lease t ~hint =
    let s = scan t ~hint in
    if s >= 0 then s
    else begin
      R.await ~watch:t (fun () -> Array.exists (fun f -> R.get f = 0) t);
      lease t ~hint
    end

  let release t s = R.set t.(s) 0

  (* A slot-indexed lock whose callers hold a lease from lock to unlock.
     The slot rides in [holder]: the holder writes it after acquiring and
     reads it before releasing, so the lock itself orders every access.
     The lease goes back only after the unlock — a slot re-leased while
     its owner is still inside the protocol would be in use twice. *)
  let guard t ~lock ~try_lock ~unlock =
    let holder = ref 0 in
    ( (fun ~hint ->
        let s = lease t ~hint in
        lock s;
        holder := s),
      (fun ~hint ->
        let s = scan t ~hint in
        if s < 0 then false
        else if try_lock s then begin
          holder := s;
          true
        end
        else begin
          release t s;
          false
        end),
      fun () ->
        let s = !holder in
        unlock s;
        release t s )
end

(* The production instance over SC atomics, hinted by thread id. *)
module Shared = Make (Regs.Shared)

let self_hint () = Thread.id (Thread.self ())

let guard_self ~lock ~try_lock ~unlock =
  let lk, try_lk, unlk =
    Shared.guard (Shared.create slots) ~lock ~try_lock ~unlock
  in
  ( (fun () -> lk ~hint:(self_hint ())),
    (fun () -> try_lk ~hint:(self_hint ())),
    unlk )
