(* The E23 scalable-lock tier: queue locks with local spinning. The E22
   adaptive mutex funnels every contending waiter through one cache
   line (the state word), so each handoff invalidates every spinner;
   the locks here give each waiter its own padded register to spin on
   and hand the lock off FIFO, so a release touches exactly one
   waiter's line. Like the E25 classes they are functors over {!Regs},
   so the same protocol code runs on SC atomics in production and on
   {!Detrt} recorded registers for DPOR certification.

   All three are static-process algorithms in the bakery mould: MCS and
   CLH index per-slot registers, and a caller leases a slot ({!Lease})
   from lock to unlock, outside the protocol; the ticket lock needs no
   slots at all. None are reentrant. *)

(* Cache-line spacing for the per-slot spin registers: OCaml 5.1 has no
   [Atomic.make_contended], so we reuse the Fastring idiom — allocate a
   live spacer block after each register so neighbouring registers land
   on different lines (minor-heap allocation is sequential). *)
let pad_words = 15

module Make (R : Regs.FULL) = struct
  let reg_maker pads =
    let k = ref 0 in
    fun v ->
      let r = R.make v in
      pads.(!k) <- Array.make pad_words 0;
      incr k;
      r

  (* Mellor-Crummey/Scott. The queue is implicit: [tail] names the last
     slot's node (slot+1; 0 = empty), each node carries a [next] link
     filled in by its successor and a [locked] flag its owner spins on.
     The tail exchange is a CAS loop — still one committed RMW per
     arrival, so FIFO order is the order of successful installs. *)
  module Mcs = struct
    type t = {
      tail : R.t;
      next : R.t array;
      locked : R.t array;
      pads : int array array;
    }

    let create ?(slots = 64) () =
      let pads = Array.make ((2 * slots) + 1) [||] in
      let reg = reg_maker pads in
      let tail = reg 0 in
      let next = Array.init slots (fun _ -> reg 0) in
      let locked = Array.init slots (fun _ -> reg 0) in
      { tail; next; locked; pads }

    let rec swap_tail t v =
      let seen = R.get t.tail in
      if R.cas t.tail seen v then seen else swap_tail t v

    let lock t ~slot =
      R.set t.next.(slot) 0;
      R.set t.locked.(slot) 1;
      let pred = swap_tail t (slot + 1) in
      if pred <> 0 then begin
        R.set t.next.(pred - 1) (slot + 1);
        R.await ~watch:[| t.locked.(slot) |] (fun () ->
            R.get t.locked.(slot) = 0)
      end

    (* Genuinely non-blocking: a failed CAS means the queue was
       non-empty and nothing was published, so a timed-out caller never
       leaves a node behind (no lost wakeups on abandonment). *)
    let try_lock t ~slot =
      R.set t.next.(slot) 0;
      R.set t.locked.(slot) 1;
      R.cas t.tail 0 (slot + 1)

    let unlock t ~slot =
      if R.get t.next.(slot) = 0 then
        if not (R.cas t.tail (slot + 1) 0) then
          (* A successor has swapped the tail but not yet linked in;
             its store to our [next] is imminent. *)
          R.await ~watch:[| t.next.(slot) |] (fun () ->
              R.get t.next.(slot) <> 0);
      let s = R.get t.next.(slot) in
      if s <> 0 then R.set t.locked.(s - 1) 0
  end

  (* Craig/Landin/Hagersten. Waiters spin on their {e predecessor's}
     node; on release a thread abandons its node to the successor and
     adopts its predecessor's freed node for the next acquisition, so
     [slots + 1] nodes suffice forever. [my_node]/[my_pred] are plain
     owner-only bookkeeping, not protocol registers. *)
  module Clh = struct
    type t = {
      tail : R.t;
      nodes : R.t array;
      my_node : int array;
      my_pred : int array;
      pads : int array array;
    }

    let create ?(slots = 64) () =
      let pads = Array.make (slots + 2) [||] in
      let reg = reg_maker pads in
      let tail = reg 0 in
      let nodes = Array.init (slots + 1) (fun _ -> reg 0) in
      (* Node 0 starts released at the tail; slot [s] owns node [s+1]. *)
      { tail; nodes; my_node = Array.init slots (fun s -> s + 1);
        my_pred = Array.make slots 0; pads }

    let rec swap_tail t v =
      let seen = R.get t.tail in
      if R.cas t.tail seen v then seen else swap_tail t v

    let lock t ~slot =
      let n = t.my_node.(slot) in
      R.set t.nodes.(n) 1;
      let pred = swap_tail t n in
      t.my_pred.(slot) <- pred;
      R.await ~watch:[| t.nodes.(pred) |] (fun () -> R.get t.nodes.(pred) = 0)

    (* Once a node's owner released it (set it 0), only the successor
       that installs itself behind it may claim it — so if the tail
       node reads released and the CAS then succeeds, the lock is ours
       with no wait. On CAS failure nobody ever saw our node: withdraw
       it and report failure. *)
    let try_lock t ~slot =
      let p = R.get t.tail in
      if R.get t.nodes.(p) <> 0 then false
      else begin
        let n = t.my_node.(slot) in
        R.set t.nodes.(n) 1;
        if R.cas t.tail p n then begin
          t.my_pred.(slot) <- p;
          true
        end
        else begin
          R.set t.nodes.(n) 0;
          false
        end
      end

    let unlock t ~slot =
      let n = t.my_node.(slot) in
      t.my_node.(slot) <- t.my_pred.(slot);
      R.set t.nodes.(n) 0
  end

  (* Ticket lock with proportional backoff. Arrival order is the FAA on
     [next]; the wait is metered by queue distance — a waiter [d]
     tickets from the front burns a delay proportional to [d] between
     polls (the holders ahead must each finish a critical section
     before its turn, so polling sooner only generates coherence
     traffic). The delay is pure computation — no register reads — so
     under {!Detrt} it adds no scheduling points; after a bounded
     number of polls the wait hands off to [await] (backoff spin in
     production, a parked virtual task deterministically). *)
  module Ticket = struct
    type t = { next : R.t; owner : R.t; pads : int array array }

    let create () =
      let pads = Array.make 2 [||] in
      let reg = reg_maker pads in
      let next = reg 0 in
      let owner = reg 0 in
      { next; owner; pads }

    let poll_rounds = 4

    let spin_quantum = 48

    let delay d =
      for _ = 1 to d * spin_quantum do
        ignore (Sys.opaque_identity d)
      done

    let lock t =
      let my = R.faa t.next 1 in
      let rec poll n =
        let cur = R.get t.owner in
        cur = my
        || n > 0
           && begin
                delay (my - cur);
                poll (n - 1)
              end
      in
      if not (poll poll_rounds) then
        R.await ~watch:[| t.owner |] (fun () -> R.get t.owner = my)

    (* CAS on [next] instead of a committed FAA ticket: the attempt can
       decline, so this is a true non-blocking try — the expressiveness
       dent the FAA-only {!Faalock} documents does not apply here. *)
    let try_lock t =
      let cur = R.get t.owner in
      R.get t.next = cur && R.cas t.next cur (cur + 1)

    (* Only the holder writes [owner]: a single-writer increment. *)
    let unlock t = R.set t.owner (R.get t.owner + 1)
  end
end

(* ------------------------------------------------------------------ *)
(* Kind selection: a [`Queue k] {!Tier} scope over primitive creation. *)

type kind = Tier.queue_kind = MCS | CLH | Ticket

let kind_name = function MCS -> "mcs" | CLH -> "clh" | Ticket -> "ticket"

let kind_of_string = function
  | "mcs" -> Some MCS
  | "clh" -> Some CLH
  | "ticket" -> Some Ticket
  | _ -> None

let all = [ MCS; CLH; Ticket ]

let with_kind k f = Tier.with_ (`Queue k) f

(* ------------------------------------------------------------------ *)
(* Production instances over SC atomics, behind one closure record so
   the platform mutex carries a single [Queue] representation. *)

module Q = Make (Regs.Shared)

type lock = {
  qk_kind : kind;
  qk_lock : unit -> unit;
  qk_try : unit -> bool;
  qk_unlock : unit -> unit;
}

let leased qk_kind ~lock ~try_lock ~unlock =
  let qk_lock, qk_try, qk_unlock = Lease.guard_self ~lock ~try_lock ~unlock in
  { qk_kind; qk_lock; qk_try; qk_unlock }

let make_lock = function
  | MCS ->
    let l = Q.Mcs.create ~slots:Lease.slots () in
    leased MCS
      ~lock:(fun slot -> Q.Mcs.lock l ~slot)
      ~try_lock:(fun slot -> Q.Mcs.try_lock l ~slot)
      ~unlock:(fun slot -> Q.Mcs.unlock l ~slot)
  | CLH ->
    let l = Q.Clh.create ~slots:Lease.slots () in
    leased CLH
      ~lock:(fun slot -> Q.Clh.lock l ~slot)
      ~try_lock:(fun slot -> Q.Clh.try_lock l ~slot)
      ~unlock:(fun slot -> Q.Clh.unlock l ~slot)
  | Ticket ->
    let l = Q.Ticket.create () in
    { qk_kind = Ticket;
      qk_lock = (fun () -> Q.Ticket.lock l);
      qk_try = (fun () -> Q.Ticket.try_lock l);
      qk_unlock = (fun () -> Q.Ticket.unlock l) }
