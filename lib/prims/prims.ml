(* The E25 primitive-class abstraction: which atomic operations the
   synchronization substrate may use. Each restricted class has its own
   lock and counting-semaphore construction (functors over {!Regs}
   signatures, instantiated here over {!Regs.Shared}). A [`Prim c]
   {!Tier} scope selects a class for primitive creation, and the
   platform's [Mutex]/[Semaphore] facades build on it.

   What a class cannot express surfaces as the typed {!Unsupported}
   exception, never as a crash or a silent downgrade — the hierarchy
   scorecard records these as first-class results. *)

type cls = RW | CAS | FAA | LLSC | Native

exception Unsupported of { cls : cls; feature : string; reason : string }

let cls_name = function
  | RW -> "rw"
  | CAS -> "cas"
  | FAA -> "faa"
  | LLSC -> "llsc"
  | Native -> "native"

let cls_of_string = function
  | "rw" -> Some RW
  | "cas" -> Some CAS
  | "faa" -> Some FAA
  | "llsc" -> Some LLSC
  | "native" -> Some Native
  | _ -> None

let restricted = [ RW; CAS; FAA; LLSC ]

let all = restricted @ [ Native ]

let unsupported cls feature reason = raise (Unsupported { cls; feature; reason })

(* ------------------------------------------------------------------ *)
(* Production instances: every class over the same SC-atomic registers,
   restricted through the class signatures. *)

module B = Bakery.Make (Regs.Shared)
module C = Caslock.Make (Regs.Shared)
module F = Faalock.Make (Regs.Shared)
module L = Llsc.Make (Regs.Shared)
module T_faa = Ticket_sem.Make (Regs.Shared)
module T_cas = Ticket_sem.Make (Regs.Faa_of_cas (Regs.Shared))
module T_llsc = Ticket_sem.Make (L.Faa_regs)

(* ------------------------------------------------------------------ *)
(* Locks: one closure record regardless of class, so the platform mutex
   carries a single [Prim] representation. *)

type lock = {
  lk_cls : cls;
  lk_lock : unit -> unit;
  lk_try : unit -> bool;
  lk_unlock : unit -> unit;
}

module type LOCK = sig
  type t

  val create : unit -> t

  val lock : t -> unit

  val try_lock : t -> bool

  val unlock : t -> unit
end

let lock_of (module L : LOCK) cls =
  let l = L.create () in
  { lk_cls = cls;
    lk_lock = (fun () -> L.lock l);
    lk_try = (fun () -> L.try_lock l);
    lk_unlock = (fun () -> L.unlock l) }

(* The bakery is a static-process algorithm: a caller leases a slot
   ({!Lease}) for the span of lock to unlock. The lease's CAS is
   bookkeeping outside the protocol ([B] is typed over {!Regs.RW} and
   never sees it), so it does not launder an unsupported primitive into
   the RW class. *)
let make_lock = function
  | RW ->
    let b = B.create ~bound:4096 ~slots:Lease.slots () in
    let lk_lock, lk_try, lk_unlock =
      Lease.guard_self
        ~lock:(fun slot -> B.lock b ~slot)
        ~try_lock:(fun slot -> B.try_lock b ~slot)
        ~unlock:(fun slot -> B.unlock b ~slot)
    in
    { lk_cls = RW; lk_lock; lk_try; lk_unlock }
  | CAS -> lock_of (module C.Lock) CAS
  | FAA -> lock_of (module F.Lock) FAA
  | LLSC -> lock_of (module L.Lock) LLSC
  | Native ->
    unsupported Native "lock"
      "the native class is the platform's own default/fast tier, not a \
       prims construction"

(* ------------------------------------------------------------------ *)
(* Counting semaphores. [`Weak] exists in every class; [`Strong] (FCFS)
   needs an order-assigning read-modify-write, so the RW class rejects
   it with a typed reason — the hierarchy separation the E25 scorecard
   pins. [sm_p_poll expired] is the timed P: it returns [false] only
   after [expired ()] was observed true. *)

type sem = {
  sm_cls : cls;
  sm_p : unit -> unit;
  sm_try : unit -> bool;
  sm_p_poll : (unit -> bool) -> bool;
  sm_v : int -> unit;
  sm_value : unit -> int;
  sm_waiters : unit -> int;
}

(* RW-only weak semaphore: a bakery-guarded counter with an invisible
   pre-wait on the value register. Barging (hence weak): the pre-wait
   carries no order. *)
let rw_sem n =
  let lk = make_lock RW in
  let value = Regs.Shared.make n in
  let locked f =
    lk.lk_lock ();
    let r = f () in
    lk.lk_unlock ();
    r
  in
  let try_p () =
    locked (fun () ->
        let v = Regs.Shared.get value in
        if v > 0 then begin
          Regs.Shared.set value (v - 1);
          true
        end
        else false)
  in
  let rec p () =
    Regs.Shared.await ~watch:[| value |] (fun () -> Regs.Shared.get value > 0);
    if not (try_p ()) then p ()
  in
  let rec p_poll expired =
    if try_p () then true
    else if expired () then false
    else begin
      Regs.Shared.await ~watch:[| value |] (fun () ->
          Regs.Shared.get value > 0 || expired ());
      p_poll expired
    end
  in
  ( p,
    try_p,
    p_poll,
    (fun k ->
      locked (fun () -> Regs.Shared.set value (Regs.Shared.get value + k))),
    fun () -> Regs.Shared.get value )

let with_waiters (p, try_p, p_poll, v_n, value) cls =
  (* Blocked-caller bookkeeping for introspection ([waiters]); not part
     of any protocol, so a plain atomic is fine in every class. *)
  let w = Atomic.make 0 in
  let guarded f =
    Atomic.incr w;
    Fun.protect ~finally:(fun () -> Atomic.decr w) f
  in
  { sm_cls = cls;
    sm_p = (fun () -> if not (try_p ()) then guarded p);
    sm_try = try_p;
    sm_p_poll =
      (fun expired ->
        if try_p () then true else guarded (fun () -> p_poll expired));
    sm_v = v_n;
    sm_value = value;
    sm_waiters = (fun () -> Atomic.get w) }

module type SEM = sig
  type t

  val create : int -> t

  val p : t -> unit

  val try_p : t -> bool

  val p_poll : t -> (unit -> bool) -> bool

  val v_n : t -> int -> unit

  val value : t -> int
end

let sem_of (module S : SEM) cls n =
  let s = S.create n in
  with_waiters
    ( (fun () -> S.p s),
      (fun () -> S.try_p s),
      (fun e -> S.p_poll s e),
      (fun k -> S.v_n s k),
      fun () -> S.value s )
    cls

let strong_reason =
  "FCFS grants need an arrival-order-assigning read-modify-write (ticket \
   fetch-and-add); atomic read/write registers only admit barging waits"

let make_sem cls ~fairness n =
  if n < 0 then invalid_arg "Prims.make_sem: negative value";
  match (cls, fairness) with
  | RW, `Strong -> unsupported RW "semaphore.strong" strong_reason
  | RW, `Weak -> with_waiters (rw_sem n) RW
  | CAS, `Weak -> sem_of (module C.Sem) CAS n
  | CAS, `Strong -> sem_of (module T_cas) CAS n
  | FAA, `Weak -> sem_of (module F.Sem) FAA n
  | FAA, `Strong -> sem_of (module T_faa) FAA n
  | LLSC, `Weak -> sem_of (module L.Sem) LLSC n
  | LLSC, `Strong -> sem_of (module T_llsc) LLSC n
  | Native, _ ->
    unsupported Native "semaphore"
      "the native class is the platform's own default/fast tier, not a \
       prims construction"
