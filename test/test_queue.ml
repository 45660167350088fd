(* E23 scalable-lock tier: FIFO handoff of the queue locks read off a
   logged register substrate, exclusion storms, timed-wait abandonment
   through the platform mutex, and the epoch read-mostly lock's grace
   period and writer exclusion. *)

open Sync_platform
open Sync_problems
module Queuelock = Sync_prims.Queuelock

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_result name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

(* ------------------------------------------------------------------ *)
(* A {!Sync_prims.Regs.FULL} instance over SC atomics that journals
   every successful RMW commit (register uid, committing thread,
   installed value). The journal mutex is held across the atomic op,
   so journal order IS commit order — which lets the FIFO property
   read queue-arrival order straight off the protocol's own
   tail/ticket register instead of trusting wall-clock timing. *)

module Logged_regs = struct
  type commit = { uid : int; tid : int; rmw : [ `Cas | `Faa ]; installed : int }

  let jm = Stdlib.Mutex.create ()

  let journal : commit list ref = ref []

  let next_uid = ref 0

  let reset () =
    Stdlib.Mutex.lock jm;
    journal := [];
    next_uid := 0;
    Stdlib.Mutex.unlock jm

  let commits () =
    Stdlib.Mutex.lock jm;
    let l = List.rev !journal in
    Stdlib.Mutex.unlock jm;
    l

  type t = { uid : int; a : int Atomic.t }

  let make v =
    Stdlib.Mutex.lock jm;
    let uid = !next_uid in
    incr next_uid;
    Stdlib.Mutex.unlock jm;
    { uid; a = Atomic.make v }

  let get r = Atomic.get r.a

  let set r v = Atomic.set r.a v

  let record uid rmw installed =
    let tid = Thread.id (Thread.self ()) in
    journal := { uid; tid; rmw; installed } :: !journal

  let cas r seen v =
    Stdlib.Mutex.lock jm;
    let ok = Atomic.compare_and_set r.a seen v in
    if ok then record r.uid `Cas v;
    Stdlib.Mutex.unlock jm;
    ok

  let faa r n =
    Stdlib.Mutex.lock jm;
    let prev = Atomic.fetch_and_add r.a n in
    record r.uid `Faa (prev + n);
    Stdlib.Mutex.unlock jm;
    prev

  let await ~watch:_ pred =
    while not (pred ()) do
      Thread.yield ()
    done
end

module QL = Queuelock.Make (Logged_regs)

(* ------------------------------------------------------------------ *)
(* FIFO handoff. Every queue lock's enqueue point is one committed RMW
   on the first register it creates (uid 0): the MCS/CLH tail swap, or
   the ticket FAA. FIFO means the sequence of threads committing there
   equals the sequence of threads subsequently entering the critical
   section — exactly, over the whole storm. *)

(* Which uid-0 commits are arrivals: MCS unlock also CASes the tail
   (installing 0, queue-empty), so those are filtered; CLH and Ticket
   touch uid 0 only on the lock path. *)
let arrival_filter kind (c : Logged_regs.commit) =
  c.uid = 0
  && match kind with Queuelock.MCS -> c.installed <> 0 | _ -> true

let fifo_storm kind =
  Logged_regs.reset ();
  let threads = 4 and rounds = 50 in
  let lock, unlock =
    match kind with
    | Queuelock.MCS ->
      let l = QL.Mcs.create ~slots:threads () in
      ((fun slot -> QL.Mcs.lock l ~slot), fun slot -> QL.Mcs.unlock l ~slot)
    | Queuelock.CLH ->
      let l = QL.Clh.create ~slots:threads () in
      ((fun slot -> QL.Clh.lock l ~slot), fun slot -> QL.Clh.unlock l ~slot)
    | Queuelock.Ticket ->
      let l = QL.Ticket.create () in
      ((fun _ -> QL.Ticket.lock l), fun _ -> QL.Ticket.unlock l)
  in
  let g = Testutil.Gauge.create () in
  (* Written only inside the critical section the lock itself guards. *)
  let acquisitions = ref [] in
  let worker i () =
    let p = Prng.make (Int64.of_int (0xE23 + i)) in
    for _ = 1 to rounds do
      lock i;
      Testutil.Gauge.enter g;
      acquisitions := Thread.id (Thread.self ()) :: !acquisitions;
      Testutil.Gauge.leave g;
      unlock i;
      (* Seeded jitter so arrival patterns vary across rounds. *)
      if Prng.int p 4 = 0 then Thread.yield ()
    done
  in
  Process.run_all ~backend:`Thread (List.init threads worker);
  check_int "never two holders" 1 (Testutil.Gauge.max g);
  let arrivals =
    List.filter_map
      (fun c -> if arrival_filter kind c then Some c.Logged_regs.tid else None)
      (Logged_regs.commits ())
  in
  check_int "one enqueue commit per acquisition" (threads * rounds)
    (List.length arrivals);
  Alcotest.(check (list int)) "CS entry order equals enqueue order" arrivals
    (List.rev !acquisitions)

let test_fifo_mcs () = fifo_storm Queuelock.MCS

let test_fifo_clh () = fifo_storm Queuelock.CLH

let test_fifo_ticket () = fifo_storm Queuelock.Ticket

(* ------------------------------------------------------------------ *)
(* Timed-wait abandonment through the platform mutex. The queue tier's
   [try_lock] never publishes a waiter node, so a timed-out caller
   leaves no stale queue entry behind: after the holder releases, a
   full storm of plain acquisitions must run to completion (a leaked
   node would deadlock the FIFO chain = a lost wakeup). *)

let abandonment_storm kind =
  let m = Queuelock.with_kind kind (fun () -> Mutex.create ()) in
  Mutex.lock m;
  let failures = Atomic.make 0 in
  let attempts =
    List.init 3 (fun _ ->
        Testutil.spawn (fun () ->
            if not (Mutex.try_lock_for m ~timeout_ns:(Testutil.ns_of_s 0.02))
            then Atomic.incr failures))
  in
  List.iter Process.join attempts;
  check_int "timed attempts expired while held" 3 (Atomic.get failures);
  Mutex.unlock m;
  let count = ref 0 in
  let iters = 200 in
  let worker () =
    for _ = 1 to iters do
      Mutex.lock m;
      incr count;
      Mutex.unlock m
    done
  in
  Process.run_all ~backend:`Thread [ worker; worker; worker; worker ];
  check_int "no lost wakeups after abandonment" (4 * iters) !count;
  check_bool "free lock still takes try_lock" true (Mutex.try_lock m);
  Mutex.unlock m

let test_abandon_mcs () = abandonment_storm Queuelock.MCS

let test_abandon_clh () = abandonment_storm Queuelock.CLH

let test_abandon_ticket () = abandonment_storm Queuelock.Ticket

(* ------------------------------------------------------------------ *)
(* Slot leases. A caller holds one of the lock's {!Sync_prims.Lease}
   slots only from lock to unlock, so any number of threads may use a
   lock over its lifetime, and more live threads than slots queue for a
   lease instead of failing. Every slot-indexed lock is checked: MCS,
   CLH and the RW-class bakery. *)

let lease_slots = Sync_prims.Lease.slots

let churn_threads = 200

let slotted_locks =
  let queue k () =
    let l = Queuelock.make_lock k in
    Queuelock.(l.qk_lock, l.qk_try, l.qk_unlock)
  in
  [ ("mcs", queue Queuelock.MCS);
    ("clh", queue Queuelock.CLH);
    ( "rw bakery",
      fun () ->
        let l = Sync_prims.Prims.make_lock Sync_prims.Prims.RW in
        Sync_prims.Prims.(l.lk_lock, l.lk_try, l.lk_unlock) ) ]

let test_churn make () =
  let lock, try_lock, unlock = make () in
  let passed =
    Testutil.churn churn_threads (fun () ->
        lock ();
        unlock ();
        if not (try_lock ()) then failwith "free lock refused try";
        unlock ())
  in
  check_int "every short-lived thread gets through" churn_threads passed

(* More live threads than slots, every one mixing blocking and try
   acquisitions: exclusion holds and nobody fails for want of a slot. *)
let test_oversubscribed make () =
  let lock, try_lock, unlock = make () in
  let threads = lease_slots + 16 and rounds = 2 in
  let g = Testutil.Gauge.create () in
  let entries = Atomic.make 0 in
  let worker i () =
    for r = 1 to rounds do
      if (i + r) land 1 = 0 then lock ()
      else
        while not (try_lock ()) do
          Thread.yield ()
        done;
      Testutil.Gauge.enter g;
      Atomic.incr entries;
      Testutil.Gauge.leave g;
      unlock ()
    done
  in
  Testutil.run_all (List.init threads worker);
  check_int "never two holders" 1 (Testutil.Gauge.max g);
  check_int "every acquisition completed" (threads * rounds)
    (Atomic.get entries)

(* With the lock held and every other slot leased by a queued waiter, a
   try from one more thread reports [false] rather than raising. *)
let test_try_when_full make () =
  let lock, try_lock, unlock = make () in
  lock ();
  let waiters =
    List.init (lease_slots - 1) (fun _ ->
        Testutil.spawn (fun () ->
            lock ();
            unlock ()))
  in
  (* Time for the waiters to lease; the answer is [false] either way. *)
  Thread.delay 0.05;
  let got = Atomic.make None in
  Process.join (Testutil.spawn (fun () -> Atomic.set got (Some (try_lock ()))));
  check_bool "try on a full lock is false" true (Atomic.get got = Some false);
  unlock ();
  List.iter Process.join waiters

(* ------------------------------------------------------------------ *)
(* Epoch read-mostly lock (E23). *)

(* Grace period: a writer that has raised intent must not proceed while
   any slot is mid-section, and must be admitted once the reader
   leaves. *)
let test_epoch_grace_period () =
  let t = Epochrw.create () in
  let s = Epochrw.read_lock t in
  check_int "one reader in-slot" 1 (Epochrw.readers t);
  let entered = Atomic.make false in
  let w =
    Testutil.spawn (fun () ->
        Epochrw.write_lock t;
        Atomic.set entered true;
        Epochrw.write_unlock t)
  in
  Testutil.eventually "writer raises intent" (fun () ->
      Epochrw.writer_active t);
  Testutil.never "writer entered over a live reader" (fun () ->
      Atomic.get entered);
  Epochrw.read_unlock t s;
  Testutil.eventually "writer admitted after the grace period" (fun () ->
      Atomic.get entered);
  Process.join w;
  check_int "no readers left" 0 (Epochrw.readers t);
  check_bool "intent cleared" false (Epochrw.writer_active t)

(* Reader retreat: a reader arriving during a write section parks until
   the writer leaves. *)
let test_epoch_reader_blocked_by_writer () =
  let t = Epochrw.create () in
  Epochrw.write_lock t;
  let entered = Atomic.make false in
  let r =
    Testutil.spawn (fun () ->
        let s = Epochrw.read_lock t in
        Atomic.set entered true;
        Epochrw.read_unlock t s)
  in
  Testutil.never "reader entered during the write" (fun () ->
      Atomic.get entered);
  Epochrw.write_unlock t;
  Testutil.eventually "reader admitted after the write" (fun () ->
      Atomic.get entered);
  Process.join r;
  check_int "drained" 0 (Epochrw.readers t)

(* Seeded storm: writers exclude each other and never run over an
   in-section reader. With more readers than slots, a reader past the
   last free slot waits for one, so at most [lease_slots] are ever
   inside. *)
let test_epoch_storm ?(readers = 4) ?(reads = 300) () =
  let t = Epochrw.create () in
  let wg = Testutil.Gauge.create () in
  let rg = Testutil.Gauge.create () in
  let overlap = Atomic.make false in
  let reader i () =
    let p = Prng.make (Int64.of_int (100 + i)) in
    for _ = 1 to reads do
      Epochrw.with_read t (fun () ->
          Testutil.Gauge.enter rg;
          if Prng.int p 4 = 0 then Thread.yield ();
          Testutil.Gauge.leave rg);
      if Prng.int p 8 = 0 then Thread.yield ()
    done
  in
  let writer i () =
    let p = Prng.make (Int64.of_int (200 + i)) in
    for _ = 1 to 60 do
      Epochrw.with_write t (fun () ->
          Testutil.Gauge.enter wg;
          if Testutil.Gauge.current rg > 0 then Atomic.set overlap true;
          Testutil.Gauge.leave wg);
      if Prng.int p 4 = 0 then Thread.yield ()
    done
  in
  Process.run_all ~backend:`Thread
    (List.init readers reader @ List.init 2 writer);
  check_int "one writer at a time" 1 (Testutil.Gauge.max wg);
  check_bool "no reader inside a write section" false (Atomic.get overlap);
  check_bool
    (Printf.sprintf "at most %d readers inside (saw %d)" lease_slots
       (Testutil.Gauge.max rg))
    true
    (Testutil.Gauge.max rg <= lease_slots);
  check_int "all slots drained" 0 (Epochrw.readers t)

(* Reader slots are leased per section: a stream of short-lived reader
   threads never runs the lock out of slots. *)
let test_epoch_churn () =
  let t = Epochrw.create () in
  let passed =
    Testutil.churn churn_threads (fun () ->
        Epochrw.with_read t ignore;
        Epochrw.with_write t ignore)
  in
  check_int "every short-lived reader gets through" churn_threads passed;
  check_int "all slots drained" 0 (Epochrw.readers t)

(* The Rw_epoch mechanism through the shared readers-writers harness:
   the same exclusion stress and reader-overlap scenario every other
   mechanism passes. *)
let test_rw_epoch_exclusion () =
  check_result "epoch exclusion"
    (Rw_harness.verify_exclusion ~readers:6 ~writers:3 ~reads_each:25
       ~writes_each:8
       (module Rw_epoch.Read_mostly))

let test_rw_epoch_reader_overlap () =
  check_result "epoch reader overlap"
    (Rw_harness.scenario_reader_overlap (module Rw_epoch.Read_mostly))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "queue"
    [ ( "fifo-handoff",
        [ Alcotest.test_case "mcs" `Quick test_fifo_mcs;
          Alcotest.test_case "clh" `Quick test_fifo_clh;
          Alcotest.test_case "ticket" `Quick test_fifo_ticket ] );
      ( "abandonment",
        [ Alcotest.test_case "mcs" `Quick test_abandon_mcs;
          Alcotest.test_case "clh" `Quick test_abandon_clh;
          Alcotest.test_case "ticket" `Quick test_abandon_ticket ] );
      ( "leases",
        List.concat_map
          (fun (n, make) ->
            [ Alcotest.test_case (n ^ " churn") `Quick (test_churn make);
              Alcotest.test_case (n ^ " oversubscribed") `Quick
                (test_oversubscribed make);
              Alcotest.test_case (n ^ " try when full") `Quick
                (test_try_when_full make) ])
          slotted_locks );
      ( "epoch",
        [ Alcotest.test_case "grace period" `Quick test_epoch_grace_period;
          Alcotest.test_case "reader blocked by writer" `Quick
            test_epoch_reader_blocked_by_writer;
          Alcotest.test_case "storm" `Quick (fun () -> test_epoch_storm ());
          Alcotest.test_case "churn" `Quick test_epoch_churn;
          Alcotest.test_case "oversubscribed" `Quick (fun () ->
              test_epoch_storm ~readers:(lease_slots + 16) ~reads:3 ());
          Alcotest.test_case "harness exclusion" `Quick
            test_rw_epoch_exclusion;
          Alcotest.test_case "harness reader overlap" `Quick
            test_rw_epoch_reader_overlap ] ) ]
