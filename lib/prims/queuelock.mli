(** Queue locks with local spinning — the E23 scalable-lock tier.

    Three API-compatible mutual-exclusion protocols whose contended
    handoff cost stays flat as waiters grow: MCS and CLH spin on a
    private cache-line-padded register per waiter and grant FIFO, and a
    ticket lock meters its polling by queue distance (proportional
    backoff). All are functors over {!Regs.FULL}, so the identical
    protocol code runs on SC atomics in production and on {!Detrt}
    recorded registers under DPOR (the E25 certification idiom).

    Kind selection is a creation-scope property ({!with_kind}, a
    {!Tier} scope): the innermost scope wins, and a deterministic run
    outranks every scope. An MCS/CLH caller leases one of the lock's
    {!Lease.slots} slots from lock to unlock, so the slot count bounds
    concurrent contenders, never lifetime threads; none of the locks are
    reentrant. *)

val pad_words : int
(** Spacer words allocated after each protocol register (the Fastring
    padding idiom — OCaml 5.1 has no [Atomic.make_contended]). *)

module Make (R : Regs.FULL) : sig
  (** Mellor-Crummey/Scott: implicit queue through a [tail] register;
      each waiter spins on its own [locked] flag, the releaser writes
      exactly one waiter's flag. *)
  module Mcs : sig
    type t

    val create : ?slots:int -> unit -> t
    (** [slots] (default 64) bounds the distinct concurrent slots. *)

    val lock : t -> slot:int -> unit

    val try_lock : t -> slot:int -> bool
    (** Non-blocking: fails without publishing a queue node, so a
        timed-out caller never leaves a stale waiter behind. *)

    val unlock : t -> slot:int -> unit
  end

  (** Craig/Landin/Hagersten: waiters spin on their predecessor's node
      and adopt it on release, so [slots + 1] nodes circulate forever. *)
  module Clh : sig
    type t

    val create : ?slots:int -> unit -> t

    val lock : t -> slot:int -> unit

    val try_lock : t -> slot:int -> bool

    val unlock : t -> slot:int -> unit
  end

  (** Ticket lock with proportional backoff: FIFO by fetch-and-add
      arrival order; the wait burns a delay proportional to the
      waiter's queue distance between bounded polls, then parks in
      [R.await]. *)
  module Ticket : sig
    type t

    val create : unit -> t

    val lock : t -> unit

    val try_lock : t -> bool
    (** CAS-based (can decline): a true non-blocking attempt, unlike
        the FAA-class {!Faalock} try that must commit a ticket. *)

    val unlock : t -> unit
  end
end

(** {1 Kind selection and production instances} *)

type kind = Tier.queue_kind = MCS | CLH | Ticket

val kind_name : kind -> string
(** ["mcs"] / ["clh"] / ["ticket"] — also the tier labels in reports. *)

val kind_of_string : string -> kind option

val all : kind list

val with_kind : kind -> (unit -> 'a) -> 'a
(** [with_kind k f] is [Tier.with_ (`Queue k) f]: primitives {e created}
    inside [f] use queue-lock kind [k]. *)

type lock = {
  qk_kind : kind;
  qk_lock : unit -> unit;
  qk_try : unit -> bool;
  qk_unlock : unit -> unit;
}
(** One closure record regardless of kind, so the platform mutex
    carries a single [Queue] representation. *)

val make_lock : kind -> lock
(** A fresh production lock (over SC atomics) of the given kind. The
    slot-indexed kinds come with their own lease table: [qk_lock] waits
    for a free slot when every one is leased, [qk_try] returns [false]. *)
