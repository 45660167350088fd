(** Epoch-based read-mostly readers-writers lock (E23).

    Each reader thread publishes its presence in a private, cache-line
    padded slot — a monotonically increasing epoch counter, odd while
    the reader is inside a section. Uncontended read entry/exit touches
    only that slot's line and the flag that leases it, so read
    throughput scales with domain count instead of serializing on a
    shared reader counter. Writers
    serialize on an internal mutex, raise a write-intent flag, then
    wait out a grace period: every slot sampled odd must move before
    the writer proceeds. Readers that observe the intent flag retreat
    and back off, so writers are not starved by a stream of new
    readers.

    Constraints: the read side is non-reentrant (the slot parity trick
    breaks on nesting); a reader leases its slot for the one section
    ({!Sync_prims.Lease}, outside the protocol), so at most
    {!Sync_prims.Lease.slots} readers are inside at once and any
    further reader waits for a slot — the number of reader threads
    over the lock's lifetime is unbounded; real threads only — this
    path is about cache traffic, which {!Detrt} virtual tasks do not
    model. Policy is no-priority: exclusion is guaranteed, no ordering
    beyond it. *)

type t

val create : unit -> t
(** New lock. Writer capacity is unbounded. *)

val read_lock : t -> int
(** Enter a read section and return the leased slot, to be passed to
    {!read_unlock}. Without a writer in progress the cost is one CAS to
    lease the slot and two stores on it; with one, the reader spins
    (with backoff) until it is done. *)

val read_unlock : t -> int -> unit
(** [read_unlock t s] leaves the read section [read_lock t] returned
    [s] for, and gives the slot back. *)

val write_lock : t -> unit
(** Acquire exclusive access: serialize with other writers, bar new
    readers, and wait for every in-flight reader to leave. *)

val write_unlock : t -> unit
(** Release exclusive access and re-admit readers. *)

val with_read : t -> (unit -> 'a) -> 'a
(** [with_read t f] runs [f] inside a read section, releasing on any
    exit. *)

val with_write : t -> (unit -> 'a) -> 'a
(** [with_write t f] runs [f] with exclusive access, releasing on any
    exit. *)

val readers : t -> int
(** Number of slots currently mid-section (introspection for tests). *)

val writer_active : t -> bool
(** Whether a writer currently holds the intent flag (introspection
    for tests). *)
