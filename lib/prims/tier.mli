(** The substrate tier: which implementation the platform builds a
    mutex, condition or counting semaphore on.

    One creation-time scope selects the tier for every primitive
    created inside it; primitives carry their tier for life, so tiers
    coexist freely in one process. The innermost scope wins, and a
    deterministic ([Detrt]) run outranks every scope — the platform
    checks its deterministic runtime before it reads {!current}. *)

type queue_kind = MCS | CLH | Ticket
(** The local-spin queue-lock kinds; re-exported as {!Queuelock.kind}. *)

type t =
  [ `Default  (** stdlib-backed mutexes, queued semaphores *)
  | `Fast  (** E22 contention-adaptive CAS/spin/park tier *)
  | `Prim of Prims.cls
    (** E25 class restriction; [`Prim Native] is the explicit
        no-restriction scope, built like [`Default] *)
  | `Queue of queue_kind  (** E23 scalable queue locks *)
  | `Adaptive  (** E27 hot-swappable mutex sites *) ]

val current : unit -> t
(** The tier of the innermost open scope; [`Default] outside any. *)

val with_ : t -> (unit -> 'a) -> 'a
(** [with_ t f] runs [f] with tier [t] selected, restoring the previous
    selection on any exit. Scopes are process-wide, not per thread:
    open them around construction, not around concurrent work. *)
