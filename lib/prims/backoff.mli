(** Exponential backoff for contended retry loops.

    A [Backoff.t] tracks how long the current thread has been spinning on a
    contended location. Each call to {!once} spins for a bounded, randomized
    number of iterations and doubles the bound, yielding to the scheduler
    once the bound saturates. This is the standard contention-management
    substrate used by the spin-based primitives in this library.

    Whether spinning can help at all is a property of the machine at the
    moment the contended loop starts: on a single core the peer cannot
    run while we spin, so {!once} goes straight to [Thread.yield]. That
    decision is made per backoff at its first {!once} or {!multicore}
    call (re-reading [Domain.recommended_domain_count]), not once per
    process, so tests that pin domains — and long-lived processes whose
    affinity changes — get the right behaviour for each loop, and a
    backoff that never backs off never pays for the probe. [?multicore]
    overrides the probe for tests. *)

type t

val create : ?multicore:bool -> ?min_wait:int -> ?max_wait:int -> unit -> t
(** [create ()] returns a fresh backoff in its initial (shortest) state.
    [min_wait] and [max_wait] bound the spin count; both must be positive
    powers of two with [min_wait <= max_wait], and default to the
    process-wide {!limits}, read at this call. [multicore] defaults to
    [Domain.recommended_domain_count () > 1], probed at the first
    {!once} or {!multicore} call.
    @raise Invalid_argument on invalid spin bounds. *)

val set_limits : min_wait:int -> max_wait:int -> unit
(** Retune the default spin bounds used by {!create} when none are
    passed explicitly. Creation-scoped: backoffs created after the call
    see the new bounds, ones already spinning are unaffected — so the
    adaptive controller (and tests) can tune spin-vs-park behaviour
    without a rebuild.
    @raise Invalid_argument on invalid spin bounds. *)

val limits : unit -> int * int
(** The current default [(min_wait, max_wait)] pair. *)

val with_limits : min_wait:int -> max_wait:int -> (unit -> 'a) -> 'a
(** Run a thunk with {!set_limits} applied, restoring the previous
    defaults afterwards (even on exception). *)

val multicore : t -> bool
(** The spin-vs-yield decision of this backoff: the [?multicore]
    override, or the probe, made at the first call of this or {!once}. *)

val once : t -> unit
(** Spin (or yield, once saturated or single-core) and escalate. *)

val reset : t -> unit
(** Return the backoff to its initial state (call after a successful
    acquisition). *)
