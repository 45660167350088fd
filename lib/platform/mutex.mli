(** Mutual-exclusion locks, deterministic-run aware.

    This module shadows the stdlib [Mutex] inside [Sync_platform] (and in
    every file that opens it). A mutex created during a {!Detrt} run is a
    virtual-task mutex whose blocking is controlled by the deterministic
    scheduler; anywhere else it is a plain system mutex. Mechanism code is
    written against the ordinary stdlib signature and needs no changes.

    When the {!Deadlock} watchdog is enabled at creation time the mutex
    reports its holder/waiter edges to the wait-for graph.

    Outside a deterministic run the mutex is built on the tier of the
    innermost open {!Sync_prims.Tier} scope (a {!Detrt} run outranks
    every scope):

    - [`Default] — a stdlib (system) mutex.
    - [`Fast] — the contention-adaptive tier (E22): a single-word
      atomic with a CAS fast path, a bounded randomized spin on
      contention, and a parked slow path on a private stdlib
      mutex/condition pair.
    - [`Prim c] — a lock built from the restricted atomic class [c]
      (E25): bakery on read/write registers, test-and-CAS on CAS,
      ticket on fetch-and-add, or an LL/SC-emulated lock.
      [`Prim Native] builds a [`Default] mutex.
    - [`Queue k] — a queue lock with local spinning (E23): MCS, CLH, or
      a proportional-backoff ticket lock, whose contended handoff
      touches one waiter's cache line instead of invalidating every
      spinner.
    - [`Adaptive] — a hot-swappable site (E27), see below.

    The observable contract is identical on every tier; only the cost
    profile changes.

    The representation is exposed so that {!Condition} can release and
    re-acquire a mutex around a park; treat it as internal. *)

type ops = {
  lock : unit -> unit;
  try_lock : unit -> bool;
  unlock : unit -> unit;
  tier : Sync_prims.Tier.t;  (** the scope the lock was built under *)
}
(** One real-thread lock, as closures built once at creation. *)

type impl = Det of Detrt.mutex | Lock of ops

type t = {
  impl : impl;
  rid : int;
  name : string;
  mutable acquired_at : int;
  cur : ops Atomic.t option;
      (** a swappable site's current cell; [None] for other mutexes *)
}

val create : ?name:string -> unit -> t
(** System mutex normally; deterministic mutex inside a {!Detrt} run.
    [name] (default ["mutex"]) is the trace site label: when tracing is
    on, [lock]/[unlock] emit acquire and hold spans against it. *)

val lock : t -> unit

val unlock : t -> unit

val try_lock : t -> bool
(** Non-blocking acquire. Under {!Detrt} the attempt is itself a recorded
    scheduling point, so the outcome replays with the schedule. A
    successful attempt emits a zero-wait [Acquire] span when tracing is
    on, so try-lock users show up in profiled acquire counts. *)

val try_lock_for : t -> timeout_ns:int64 -> bool
(** [try_lock_for t ~timeout_ns] polls {!try_lock} until it succeeds or
    the monotonic deadline passes; [true] iff the lock was acquired.
    Real-thread polling uses {!Sync_prims.Backoff} exponential backoff
    between attempts. Deterministic under {!Detrt} (the timeout becomes
    a poll budget, see {!Deadline}, and every poll is a scheduling
    point). *)

val protect : t -> (unit -> 'a) -> 'a
(** [protect m f] runs [f] with [m] held, releasing on any exit. *)

(** {1 Hot-swappable sites (E27)}

    A mutex created inside an [`Adaptive] scope carries one extra
    indirection: an atomic pointer to the cell (sys / fast / queue
    lock) it currently routes through. {!swap_to} retiers a live site
    with an epoch-quiesced protocol — the swapper locks the old cell,
    publishes the fresh one (new acquirers route there immediately),
    then releases; stragglers that locked the old cell re-check the
    indirection, back out and retry, so the old impl drains and mutual
    exclusion is never violated (DPOR-certified by the catalog's
    [swap-excl] scenarios). *)

type tier = [ `Sys | `Fast | `Queue of Sync_prims.Queuelock.kind ]
(** The tiers a swappable site can move between. [Det] is a different
    world and [Prim] a deliberate class restriction; neither swaps. *)

val tier_name : tier -> string
(** ["sys"], ["fast"], ["queue-mcs"], ["queue-clh"], ["queue-ticket"]. *)

val all_tiers : tier list

val tier_index : tier -> int
(** Stable small integer identifying a tier — the [arg] of the [Flip]
    probe instants {!swap_to} emits. *)

val tier_of_index : int -> tier option

val with_swappable : (unit -> 'a) -> 'a
(** [with_swappable f] clears the site registry, then runs
    [Sync_prims.Tier.with_ `Adaptive f]. Mutexes created inside the
    scope start on [`Sys]. The registry is {e kept} on exit, so a
    controller started after the build scope closes still enumerates
    the run's sites via {!swap_sites}; the next scope clears the slate.
    Concurrent scopes are not supported. *)

val swap_sites : unit -> t list
(** Every swappable mutex created since the most recent
    {!with_swappable} began, newest first — the adaptive controller's
    enumeration point. *)

val current_tier : t -> tier option
(** The tier a swappable site currently routes to; [None] for
    non-swappable mutexes. *)

val swap_to : t -> tier -> bool
(** [swap_to t tier] retiers a swappable site, allocating a fresh cell
    and draining the old one (see above); blocks until the old cell's
    holder — if any — releases. Emits a [Flip] probe instant against
    the site with [arg = tier_index tier]. Returns [false] (and does
    nothing) if [t] is not swappable or already routes to [tier]. *)

(** {1 Spin tuning (E27)} *)

val spin_rounds : unit -> int
(** Backoff rounds a contended fast-tier acquire spins before parking.
    Defaults to 8 on multicore, 0 on a single core. *)

val set_spin_rounds : int -> unit
(** Retune {!spin_rounds} live: the next contended acquisition — on
    any fast-tier mutex — sees the new value. Read on the contended
    slow path only; the uncontended CAS never loads it.
    @raise Invalid_argument on a negative count. *)
