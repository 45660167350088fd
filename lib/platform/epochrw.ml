(* Epoch-based read-mostly readers-writers lock (E23). The serializing
   design (one counter under a mutex) makes every reader entry a write
   to one shared cache line; here each reader publishes its presence in
   a private padded slot, so uncontended read entry/exit is two stores
   to the reader's own line and read throughput scales with domains.

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

   Non-reentrant on the read side (the parity trick breaks on nesting);
   at most [slots] distinct reader threads per lock, assigned through
   the same out-of-protocol registry as the queue locks. Readers never
   block writers indefinitely only by finishing their sections; new
   readers are barred while a writer is in progress, but between
   back-to-back writers readers may slip in — no priority claim beyond
   exclusion is made. *)

type t = {
  slots : int Atomic.t array;
  pads : int array array;
  wr : int Atomic.t;
  wm : Stdlib.Mutex.t;
  reg_m : Stdlib.Mutex.t;
  tbl : (int, int) Hashtbl.t;
  mutable next_slot : int;
}

let pad_words = Sync_prims.Queuelock.pad_words

let create ?(slots = 64) () =
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
    reg_m = Stdlib.Mutex.create ();
    tbl = Hashtbl.create 16;
    next_slot = 0 }

let slot_of_self t =
  let tid = Thread.id (Thread.self ()) in
  Stdlib.Mutex.lock t.reg_m;
  let s =
    match Hashtbl.find_opt t.tbl tid with
    | Some s -> s
    | None ->
      let n = Array.length t.slots in
      if t.next_slot >= n then begin
        Stdlib.Mutex.unlock t.reg_m;
        failwith
          (Printf.sprintf
             "Epochrw: more than %d distinct reader threads on one lock" n)
      end;
      let s = t.next_slot in
      t.next_slot <- s + 1;
      Hashtbl.add t.tbl tid s;
      s
  in
  Stdlib.Mutex.unlock t.reg_m;
  s

let read_lock t =
  let s = slot_of_self t in
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
  enter ()

let read_unlock t =
  let slot = t.slots.(slot_of_self t) in
  Atomic.set slot (Atomic.get slot + 1)

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
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

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
