module Probe = Sync_trace.Probe
module Prims = Sync_prims.Prims
module Queuelock = Sync_prims.Queuelock
module Tier = Sync_prims.Tier
module Backoff = Sync_prims.Backoff

type ops = {
  lock : unit -> unit;
  try_lock : unit -> bool;
  unlock : unit -> unit;
  tier : Tier.t;
}

type impl = Det of Detrt.mutex | Lock of ops

type t = {
  impl : impl;
  (* Watchdog resource id; -1 when the watchdog was off at creation.
     Det mutexes carry their own id inside Detrt. *)
  rid : int;
  name : string;
  (* Timestamp of the last successful acquire by the current holder; 0
     when tracing is off. Written only under the lock, so plain mutable
     is safe. Condition.wait resets it when the waiter re-acquires. *)
  mutable acquired_at : int;
  cur : ops Atomic.t option;
}

(* The retierable universe: the tiers a swappable site can move
   between. Det is a different world and Prim is a deliberate class
   restriction, so neither participates. *)
type tier = [ `Sys | `Fast | `Queue of Queuelock.kind ]

let tier_name = function
  | `Sys -> "sys"
  | `Fast -> "fast"
  | `Queue k -> "queue-" ^ Queuelock.kind_name k

let all_tiers : tier list =
  `Sys :: `Fast :: List.map (fun k -> `Queue k) Queuelock.all

(* Stable small integers for the Flip probe argument, so a timeline can
   decode which tier a site flipped to without string events. *)
let tier_index = function
  | `Sys -> 0
  | `Fast -> 1
  | `Queue Queuelock.MCS -> 2
  | `Queue Queuelock.CLH -> 3
  | `Queue Queuelock.Ticket -> 4

let tier_of_index = function
  | 0 -> Some `Sys
  | 1 -> Some `Fast
  | 2 -> Some (`Queue Queuelock.MCS)
  | 3 -> Some (`Queue Queuelock.CLH)
  | 4 -> Some (`Queue Queuelock.Ticket)
  | _ -> None

(* -- the static tiers ---------------------------------------------- *)

let sys_ops () =
  let m = Stdlib.Mutex.create () in
  { lock = (fun () -> Stdlib.Mutex.lock m);
    try_lock = (fun () -> Stdlib.Mutex.try_lock m);
    unlock = (fun () -> Stdlib.Mutex.unlock m);
    tier = `Default }

let prim_ops c =
  let p = Prims.make_lock c in
  { lock = p.Prims.lk_lock;
    try_lock = p.Prims.lk_try;
    unlock = p.Prims.lk_unlock;
    tier = `Prim c }

let queue_ops k =
  let q = Queuelock.make_lock k in
  { lock = q.Queuelock.qk_lock;
    try_lock = q.Queuelock.qk_try;
    unlock = q.Queuelock.qk_unlock;
    tier = `Queue k }

(* How many backoff rounds to spin before parking. Backoff doubles its
   randomized spin bound each round, so this covers short critical
   sections without burning a core when the holder is descheduled. On a
   single-core machine the holder cannot run while we spin, so the only
   useful move is to park straight away (pthread mutexes make the same
   call: their adaptive spin is conditional on SMP). Yield-until-free
   is NOT an option here: with one thread per domain, [Thread.yield]
   skips the reschedule entirely (nobody else waits on the domain's
   master lock), so a yield loop degenerates into a hot spin.

   E27 makes the round count live-tunable: the adaptive controller
   retunes it from observed wait distributions. The extra atomic load
   sits on the already-contended slow path only — the uncontended CAS
   never reads it. *)
let default_spin_rounds =
  if Domain.recommended_domain_count () > 1 then 8 else 0

let spin_rounds_cell = Atomic.make default_spin_rounds

let spin_rounds () = Atomic.get spin_rounds_cell

let set_spin_rounds n =
  if n < 0 then invalid_arg "Mutex.set_spin_rounds: negative round count";
  Atomic.set spin_rounds_cell n

(* Adaptive (futex-style) mutex state: a single atomic int.
   0 = unlocked; 1 = locked, no waiter ever parked since last unlock;
   2 = locked, and some thread may be parked (or about to park) on [pc].
   Lock is a CAS 0->1; on failure a bounded randomized spin, then a
   park loop that pessimistically exchanges in 2 so the eventual
   unlocker knows a signal is owed. Unlock exchanges in 0 and signals
   only when the old state was 2 — the uncontended round trip is two
   atomic operations and never touches [pm]/[pc]. *)
let fast_lock_slow state pm pc =
  (* Bounded spin: cheap loads with exponential backoff between CAS
     retries, so brief contention never pays a futex round trip. *)
  let b = Backoff.create () in
  let rec spin n =
    n > 0
    && ((Atomic.get state = 0 && Atomic.compare_and_set state 0 1)
       ||
       (Backoff.once b;
        spin (n - 1)))
  in
  if not (spin (spin_rounds ())) then begin
    (* Park. From here on we advertise 2 (waiters present): whoever
       unlocks while the state is 2 must signal. The exchange both
       attempts the acquire and publishes the pessimistic state. *)
    let rec park () =
      if Atomic.exchange state 2 <> 0 then begin
        Stdlib.Mutex.lock pm;
        (* Re-check under [pm]: unlock signals under [pm], so either
           the state already left 2 (no sleep) or the signal cannot
           fire before we are actually waiting. Spurious wakeups just
           re-run the exchange. *)
        if Atomic.get state = 2 then Stdlib.Condition.wait pc pm;
        Stdlib.Mutex.unlock pm;
        park ()
      end
    in
    park ()
  end

let fast_ops () =
  let state = Atomic.make 0 in
  let pm = Stdlib.Mutex.create () and pc = Stdlib.Condition.create () in
  { lock =
      (fun () ->
        if not (Atomic.compare_and_set state 0 1) then
          fast_lock_slow state pm pc);
    try_lock = (fun () -> Atomic.compare_and_set state 0 1);
    unlock =
      (fun () ->
        if Atomic.exchange state 0 = 2 then begin
          Stdlib.Mutex.lock pm;
          Stdlib.Condition.signal pc;
          Stdlib.Mutex.unlock pm
        end);
    tier = `Fast }

let cell_ops : tier -> ops = function
  | `Sys -> sys_ops ()
  | `Fast -> fast_ops ()
  | `Queue k -> queue_ops k

let cell_tier (o : ops) : tier =
  match o.tier with
  | `Fast -> `Fast
  | `Queue k -> `Queue k
  | `Default | `Prim _ | `Adaptive -> `Sys

(* -- hot-swappable sites (E27) ------------------------------------- *)

(* A swappable site routes every operation through an atomic [cur]
   cell so the adaptive controller can retier it live. The swap
   protocol is epoch-quiesced in the Epochrw sense — the swapper itself
   is the grace period:

     swap:    lock the old cell; publish the new cell to [cur];
              unlock the old cell.
     acquire: read [cur]; lock that cell; re-read [cur]; if it moved,
              unlock and retry on the new cell, else enter.

   Exclusion: a thread is in the critical section only while holding a
   cell it observed equal to [cur] *after* locking it. A swap away from
   that cell must first acquire it, which blocks until the holder
   leaves; until the swap publishes, every other acquirer routes to the
   same cell. Stragglers that locked the old cell after the swap see
   [cur] moved, back out, and retry — the old impl drains. Cells are
   never reused across swaps (each flip allocates a fresh cell), so the
   physical-equality re-check cannot be fooled by A-B-A. The retry loop
   terminates because each iteration rides a distinct published swap,
   and swaps are controller-paced. *)
let swap_ops cur =
  (* The cell the current critical-section owner actually locked.
     Written after a successful re-check, read at unlock; both happen
     with the cell lock held, and consecutive owners are ordered by the
     cell locks plus the [cur] swap chain, so a plain ref is safe. *)
  let held = ref (Atomic.get cur) in
  let rec lock () =
    let c = Atomic.get cur in
    c.lock ();
    if Atomic.get cur == c then held := c
    else begin
      c.unlock ();
      lock ()
    end
  in
  let rec try_lock () =
    let c = Atomic.get cur in
    c.try_lock ()
    &&
    if Atomic.get cur == c then begin
      held := c;
      true
    end
    else begin
      c.unlock ();
      try_lock ()
    end
  in
  { lock; try_lock; unlock = (fun () -> !held.unlock ()); tier = `Adaptive }

(* The scope also owns the site registry the adaptive controller
   enumerates: {!with_swappable} starts an empty registry, so a
   controller only ever sees the sites of its own run. *)
let sites_lock = Stdlib.Mutex.create ()

let sites : t list ref = ref []

let swap_sites () =
  Stdlib.Mutex.lock sites_lock;
  let s = !sites in
  Stdlib.Mutex.unlock sites_lock;
  s

let with_swappable f =
  Stdlib.Mutex.lock sites_lock;
  (* Clear on entry, keep on exit: the controller typically starts
     after the build scope closes (Target.create wraps only the
     build), and must still be able to enumerate the run's sites. The
     next scope clears the slate. *)
  sites := [];
  Stdlib.Mutex.unlock sites_lock;
  Tier.with_ `Adaptive f

let current_tier t = Option.map (fun cur -> cell_tier (Atomic.get cur)) t.cur

let rec swap_to t tier =
  match t.cur with
  | None -> false
  | Some cur ->
    let old = Atomic.get cur in
    if cell_tier old = tier then false
    else begin
      old.lock ();
      if Atomic.get cur != old then begin
        (* Lost a race with a concurrent swapper: back out and retry
           against the freshly published cell. *)
        old.unlock ();
        swap_to t tier
      end
      else begin
        (* We hold the live cell: every acquirer either waits on it or
           will fail its re-check. Publish the fresh cell — new
           arrivals route there immediately — then drain by release. *)
        Atomic.set cur (cell_ops tier);
        old.unlock ();
        Probe.instant Flip ~site:t.name ~arg:(tier_index tier);
        true
      end
    end

(* -- the façade ----------------------------------------------------- *)

let create ?(name = "mutex") () =
  if Detrt.active () then
    { impl = Det (Detrt.mutex ()); rid = -1; name; acquired_at = 0;
      cur = None }
  else begin
    let ops, cur =
      match Tier.current () with
      | `Default | `Prim Prims.Native -> (sys_ops (), None)
      | `Fast -> (fast_ops (), None)
      | `Prim c -> (prim_ops c, None)
      | `Queue k -> (queue_ops k, None)
      | `Adaptive ->
        let cur = Atomic.make (sys_ops ()) in
        (swap_ops cur, Some cur)
    in
    let t =
      { impl = Lock ops;
        rid =
          (if Deadlock.enabled () then Deadlock.register ~kind:"mutex" ()
           else -1);
        name;
        acquired_at = 0;
        cur }
    in
    if Option.is_some cur then begin
      Stdlib.Mutex.lock sites_lock;
      sites := t :: !sites;
      Stdlib.Mutex.unlock sites_lock
    end;
    t
  end

let[@inline] watched t = t.rid >= 0 && Deadlock.enabled ()

let lock t =
  let t0 = Probe.now () in
  (match t.impl with
  | Lock o ->
    if watched t then begin
      Deadlock.blocked t.rid;
      o.lock ();
      Deadlock.acquired t.rid
    end
    else o.lock ()
  | Det m -> Detrt.mutex_lock m);
  if t0 <> 0 then begin
    Probe.span Acquire ~site:t.name ~since:t0 ~arg:0;
    t.acquired_at <- Probe.now ()
  end

let unlock t =
  if t.acquired_at <> 0 then begin
    Probe.span Hold ~site:t.name ~since:t.acquired_at ~arg:0;
    t.acquired_at <- 0
  end;
  match t.impl with
  | Lock o ->
    if watched t then Deadlock.released t.rid;
    o.unlock ()
  | Det m -> Detrt.mutex_unlock m

let try_lock t =
  let ok =
    match t.impl with
    | Lock o ->
      let ok = o.try_lock () in
      if ok && watched t then Deadlock.acquired t.rid;
      ok
    | Det m -> Detrt.mutex_try_lock m
  in
  if ok then begin
    (* A successful try_lock is a zero-wait acquire; emit the span so
       profiled acquire counts include try-lock users. *)
    let n = Probe.now () in
    if n <> 0 then begin
      Probe.span Acquire ~site:t.name ~since:n ~arg:0;
      t.acquired_at <- n
    end
  end;
  ok

let try_lock_for t ~timeout_ns =
  let deadline = Deadline.after_ns timeout_ns in
  match t.impl with
  | Det _ ->
    (* Deterministic runs: every poll must be a scheduling point the
       recorded schedule controls, so no wall-clock backoff here. *)
    let rec loop () =
      if try_lock t then true
      else if Deadline.expired deadline then false
      else begin
        Detrt.relax ();
        loop ()
      end
    in
    loop ()
  | Lock _ ->
    (* Queue-tier timed attempts poll [try_lock] too: the queue locks'
       try never publishes a waiter node, so a timeout cannot strand a
       wakeup in the FIFO queue. *)
    let b = Backoff.create () in
    let rec loop () =
      if try_lock t then true
      else if Deadline.expired deadline then false
      else begin
        Backoff.once b;
        loop ()
      end
    in
    loop ()

let protect m f =
  lock m;
  match f () with
  | v ->
    unlock m;
    v
  | exception e ->
    unlock m;
    raise e
