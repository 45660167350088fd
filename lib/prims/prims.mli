(** Primitive classes: which atomic operations the synchronization
    substrate may use (E25).

    Inside a [`Prim c] {!Tier} scope the platform's
    [Mutex]/[Semaphore] facades build on this module's per-class
    constructions:

    - {b RW} — atomic read/write registers only: Lamport's bakery lock
      with the bounded-timestamp fix; a bakery-guarded weak counting
      semaphore. Strong (FCFS) semaphores are {e rejected} (typed).
    - {b CAS} — compare-and-swap only: test-and-CAS lock, CAS-loop weak
      semaphore; strong semaphore via a CAS-synthesized ticket.
    - {b FAA} — fetch-and-add only: ticket lock, value-netting weak
      semaphore, native FIFO ticket semaphore.
    - {b LLSC} — load-linked/store-conditional, emulated from CAS with
      ABA tagging ({!Llsc}); locks and semaphores built only from the
      emulation.
    - {b Native} — no restriction: the platform's own default tier.
      The factories reject it.

    Classes that cannot express a primitive raise {!Unsupported} with a
    typed reason — the hierarchy scorecard records these as results,
    never as crashes. *)

type cls = RW | CAS | FAA | LLSC | Native

exception Unsupported of { cls : cls; feature : string; reason : string }
(** A class cannot express a requested primitive (e.g. [RW] ×
    strong/FCFS semaphore). [feature] is a stable machine-readable
    label like ["semaphore.strong"]. *)

val cls_name : cls -> string
(** ["rw"], ["cas"], ["faa"], ["llsc"], ["native"] — report labels. *)

val cls_of_string : string -> cls option

val restricted : cls list
(** [[RW; CAS; FAA; LLSC]] — the classes with prims constructions. *)

val all : cls list
(** {!restricted} plus [Native]. *)

(** A class-restricted mutual-exclusion lock, as closures so the
    platform mutex carries one representation for every class. *)
type lock = {
  lk_cls : cls;
  lk_lock : unit -> unit;
  lk_try : unit -> bool;
      (** Non-blocking attempt; may fail spuriously (RW), and on FAA may
          briefly wait out a lost race — fetch-and-add cannot withdraw a
          committed ticket (see docs/hierarchy.md). *)
  lk_unlock : unit -> unit;
}

val make_lock : cls -> lock
(** @raise Unsupported for [Native]. An RW-class caller leases one of
    the bakery's {!Lease.slots} slots from lock to unlock, so the bound
    caps concurrent contenders, not lifetime threads; [lk_try] returns
    [false] when every slot is leased. *)

(** A class-restricted counting semaphore. [sm_p_poll expired] is the
    timed P: it returns [false] only after observing [expired ()] true,
    and conservation holds on that path (an abandoned FIFO turn is
    covered by a donated unit). *)
type sem = {
  sm_cls : cls;
  sm_p : unit -> unit;
  sm_try : unit -> bool;
  sm_p_poll : (unit -> bool) -> bool;
  sm_v : int -> unit;
  sm_value : unit -> int;
  sm_waiters : unit -> int;  (** callers inside a blocking P (racy). *)
}

val make_sem : cls -> fairness:[ `Strong | `Weak ] -> int -> sem
(** @raise Unsupported for [RW] × [`Strong] (typed: FCFS needs an
    order-assigning RMW) and for [Native].
    @raise Invalid_argument on a negative initial value. *)
