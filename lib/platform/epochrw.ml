(* Epoch-based read-mostly readers-writers lock (E23). The serializing
   design (one counter under a mutex) makes every reader entry a write
   to one shared cache line; here each reader publishes its presence in
   a private padded slot, so uncontended read entry/exit is two stores
   to the reader's own line, plus the CAS and store that lease and
   return the slot, and read throughput scales with domains.

   Per-slot protocol word: a monotonically increasing epoch counter,
   odd while the slot's thread is inside a read section, even when
   idle. Writers serialize on [wm], raise the [wr] intent flag, then
   wait out the grace period: for every slot sampled odd, wait until
   its counter moves (the reader left — values only grow, so the wait
   cannot be fooled by a later section of the same slot). SC atomics
   give the usual disjunction: a reader's publish and [wr] check versus
   the writer's [wr] store and slot scan cannot both miss, so either
   the writer observes the reader and waits, or the reader observes
   [wr], retreats (bumping back to even), and backs off until the
   writer is done.

   Non-reentrant on the read side (the parity trick breaks on nesting).
   A reader leases its slot ({!Sync_prims.Lease}) for the one section,
   outside the protocol, so the slot count bounds concurrent readers,
   not reader threads; a slot's counter keeps growing across the
   readers that lease it, so the grace-period wait stays sound.
   Readers never block writers indefinitely only by finishing their
   sections; new
   readers are barred while a writer is in progress, but between
   back-to-back writers readers may slip in — no priority claim beyond
   exclusion is made. *)

module Lease = Sync_prims.Lease

type t = {
  slots : int Atomic.t array;
  pads : int array array;
  wr : int Atomic.t;
  wm : Stdlib.Mutex.t;
  leases : Lease.Shared.t;
}

let pad_words = Sync_prims.Queuelock.pad_words

let create () =
  let slots = Lease.slots in
  let pads = Array.make (slots + 1) [||] in
  let mk i =
    let r = Atomic.make 0 in
    pads.(i) <- Array.make pad_words 0;
    r
  in
  let wr = mk slots in
  { slots = Array.init slots (fun i -> mk i);
    pads;
    wr;
    wm = Stdlib.Mutex.create ();
    leases = Lease.Shared.create slots }

let read_lock t =
  let s = Lease.Shared.lease t.leases ~hint:(Lease.self_hint ()) in
  let slot = t.slots.(s) in
  let rec enter () =
    let e = Atomic.get slot in
    Atomic.set slot (e + 1);
    (* Published (odd). SC order: if the writer's [wr] store precedes
       this check, we retreat; otherwise our publish precedes its scan
       and it waits for us. *)
    if Atomic.get t.wr = 1 then begin
      Atomic.set slot (e + 2);
      let b = Sync_prims.Backoff.create () in
      while Atomic.get t.wr = 1 do
        Sync_prims.Backoff.once b
      done;
      enter ()
    end
  in
  enter ();
  s

let read_unlock t s =
  let slot = t.slots.(s) in
  Atomic.set slot (Atomic.get slot + 1);
  Lease.Shared.release t.leases s

let write_lock t =
  Stdlib.Mutex.lock t.wm;
  Atomic.set t.wr 1;
  (* Grace period: every slot observed mid-section must move on before
     the writer may touch the resource. Each wait is on that slot's
     own line; settled slots cost one read. *)
  Array.iter
    (fun slot ->
      let v = Atomic.get slot in
      if v land 1 = 1 then begin
        let b = Sync_prims.Backoff.create () in
        while Atomic.get slot = v do
          Sync_prims.Backoff.once b
        done
      end)
    t.slots

let write_unlock t =
  Atomic.set t.wr 0;
  Stdlib.Mutex.unlock t.wm

let with_read t f =
  let s = read_lock t in
  Fun.protect ~finally:(fun () -> read_unlock t s) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f

(* Introspection for tests: how many slots are currently mid-section,
   and whether a writer holds the intent flag. *)
let readers t =
  Array.fold_left
    (fun acc slot -> if Atomic.get slot land 1 = 1 then acc + 1 else acc)
    0 t.slots

let writer_active t = Atomic.get t.wr = 1
