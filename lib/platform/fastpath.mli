(** The contention-adaptive fast-path tier (E22), by its historical
    name.

    Primitives created inside {!with_enabled} — and not under {!Detrt},
    which outranks every tier scope — use the adaptive implementations:
    CAS fast paths, bounded spin-then-park, and fetch-and-add weak
    semaphore accounting. Observable semantics (mutual exclusion,
    weak/strong semaphore contracts, Mesa conditions) are identical
    across tiers. *)

val with_enabled : (unit -> 'a) -> 'a
(** [with_enabled f] is [Sync_prims.Tier.with_ `Fast f]. *)
