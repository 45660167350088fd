module Backoff = Sync_prims.Backoff

(* Vyukov-style bounded MPMC ring: every slot carries its own sequence
   number. For slot [i] (0-based position [pos], [i = pos mod cap]):

   - [seq = pos]       the slot is free for the enqueue at [pos];
   - [seq = pos + 1]   the slot holds the element for the dequeue at
                       [pos];
   - advancing a lap adds [cap].

   Producers and consumers claim positions with a CAS on [enq]/[deq]
   and then operate on their slot privately — no shared lock, and a
   put and a get touch different atomics unless the ring is empty or
   full. Payload writes are plain stores published by the atomic seq
   store (atomics are the synchronization points of the OCaml memory
   model).

   Like {!Ring}, this is a *self-checking* resource: the slot protocol
   doubles as the integrity check. In a correct bounded-buffer run a
   put is only admitted when its slot's previous element has been
   consumed (the mechanism's own counting guarantees it), so a put
   that finds its slot still occupied — or a get that finds its slot
   still empty — means the synchronizer admitted an overfull put or an
   empty get, and the ring raises [Ill_synchronized] instead of
   blocking.

   OCaml 5.1 has no [Atomic.make_contended], so "cache-line padding"
   is best-effort: each hot atomic is allocated interleaved with a
   dead one-line block that stays reachable from the record, keeping
   the cells on distinct lines at least until the GC moves them. *)

type t = {
  cap : int;
  work : int;
  seqs : int Atomic.t array; (* per-slot sequence numbers *)
  data : int array; (* payloads; guarded by the slot protocol *)
  enq : int Atomic.t; (* next enqueue position *)
  deq : int Atomic.t; (* next dequeue position *)
  pads : int array array; (* keeps the padding blocks live; never read *)
}

(* 15 words + header ≈ 128 bytes between consecutive hot cells. *)
let pad_words = 15

let create ?(work = 50) cap =
  assert (cap >= 1);
  let pads = ref [] in
  let padded v =
    let a = Atomic.make v in
    pads := Array.make pad_words 0 :: !pads;
    a
  in
  let enq = padded 0 in
  let deq = padded 0 in
  let seqs = Array.init cap padded in
  { cap; work; seqs; data = Array.make cap 0; enq; deq;
    pads = Array.of_list !pads }

let capacity t = t.cap

let fail what = raise (Busywork.Ill_synchronized ("fastring: " ^ what))

(* A slot that is not ready (dif < 0) is not automatically a contract
   violation: with several producers (or consumers) in flight, position
   claiming and slot publishing are separate steps, so our slot's peer
   may simply not have published/recycled yet. The opposite position
   counter disambiguates: if by positions the buffer really is full
   (resp. empty), the synchronizer over-admitted and we raise;
   otherwise we wait for the in-flight peer. *)

let put t v =
  let b = Backoff.create () in
  let rec claim () =
    let pos = Atomic.get t.enq in
    let slot = t.seqs.(pos mod t.cap) in
    let dif = Atomic.get slot - pos in
    if dif = 0 then
      (* With cap = 1 the slot protocol is ambiguous here: seq = pos
         both for "free for this lap" and "still holds last lap's
         element" (the states coincide exactly when cap divides 1), so
         check fullness by positions instead. *)
      if t.cap = 1 && pos - Atomic.get t.deq >= t.cap then
        fail "put on full buffer"
      else if Atomic.compare_and_set t.enq pos (pos + 1) then (pos, slot)
      else begin
        Backoff.once b;
        claim ()
      end
    else if dif < 0 then
      if Atomic.get t.enq <> pos then claim () (* raced; re-read *)
      else if pos - Atomic.get t.deq >= t.cap then
        (* The slot still holds the element from a full lap ago: the
           synchronizer admitted a put with the buffer full. *)
        fail "put on full buffer"
      else begin
        (* A consumer claimed the slot's last-lap element but has not
           recycled it yet; wait for it. *)
        Backoff.once b;
        claim ()
      end
    else begin
      (* Another producer claimed [pos] between our reads; catch up. *)
      Backoff.once b;
      claim ()
    end
  in
  let pos, slot = claim () in
  Busywork.spin t.work;
  t.data.(pos mod t.cap) <- v;
  Atomic.set slot (pos + 1)

let get t =
  let b = Backoff.create () in
  let rec claim () =
    let pos = Atomic.get t.deq in
    let slot = t.seqs.(pos mod t.cap) in
    let dif = Atomic.get slot - (pos + 1) in
    if dif = 0 then
      if Atomic.compare_and_set t.deq pos (pos + 1) then (pos, slot)
      else begin
        Backoff.once b;
        claim ()
      end
    else if dif < 0 then
      if Atomic.get t.deq <> pos then claim () (* raced; re-read *)
      else if pos >= Atomic.get t.enq then
        (* No element was ever admitted at the head: the synchronizer
           admitted a get on an empty buffer. *)
        fail "get on empty buffer"
      else begin
        (* A producer claimed the head position but has not published
           its element yet; wait for it. *)
        Backoff.once b;
        claim ()
      end
    else begin
      Backoff.once b;
      claim ()
    end
  in
  let pos, slot = claim () in
  Busywork.spin t.work;
  let v = t.data.(pos mod t.cap) in
  Atomic.set slot (pos + t.cap);
  v

let occupancy t = Atomic.get t.enq - Atomic.get t.deq
