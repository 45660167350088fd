(* Shared helpers for the concurrency test suites. *)

open Sync_platform

let ns_of_s s = Int64.of_float (s *. 1e9)

(* Poll [f] until it returns true; fail the test after [timeout] seconds. *)
let eventually ?(timeout = 5.0) msg f =
  let deadline = Int64.add (Clock.now_ns ()) (ns_of_s timeout) in
  let rec loop () =
    if f () then ()
    else if Clock.now_ns () >= deadline then
      Alcotest.failf "timed out waiting for: %s" msg
    else begin
      Thread.yield ();
      loop ()
    end
  in
  loop ()

(* Check that [f] stays false for [for_] seconds (a bounded "never"). *)
let never ?(for_ = 0.15) msg f =
  let deadline = Int64.add (Clock.now_ns ()) (ns_of_s for_) in
  let rec loop () =
    if f () then Alcotest.failf "unexpectedly became true: %s" msg
    else if Clock.now_ns () < deadline then begin
      Thread.yield ();
      loop ()
    end
  in
  loop ()

(* A mutex-protected event journal for ordering assertions. *)
module Journal = struct
  type t = { lock : Mutex.t; mutable entries : string list }

  let create () = { lock = Mutex.create (); entries = [] }

  let add t e =
    Mutex.lock t.lock;
    t.entries <- e :: t.entries;
    Mutex.unlock t.lock

  let entries t =
    Mutex.lock t.lock;
    let es = List.rev t.entries in
    Mutex.unlock t.lock;
    es
end

(* Deterministic property runs: the qcheck suites derive their random
   state from one pinned seed, so a failure seen in CI reproduces
   locally. QCHECK_SEED=<int> overrides the pin (e.g. for soak runs);
   every property failure prints the seed that replays it. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (try int_of_string (String.trim s) with _ -> 0xB100F)
  | None -> 0xB100F

let qcheck_case test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test
  in
  let run' () =
    try run ()
    with e ->
      Printf.printf
        "  property failed under QCHECK_SEED=%d (set this env var to replay)\n\
         %!"
        qcheck_seed;
      raise e
  in
  (name, speed, run')

(* Spawn each thunk as a thread-backed process and join them all. *)
let run_all fs = Process.run_all ~backend:`Thread fs

let spawn f = Process.spawn ~backend:`Thread f

(* Max number of simultaneously-active bodies, for concurrency assertions. *)
module Gauge = struct
  type t = { current : int Atomic.t; max : int Atomic.t }

  let create () = { current = Atomic.make 0; max = Atomic.make 0 }

  let enter t =
    let c = 1 + Atomic.fetch_and_add t.current 1 in
    let rec bump () =
      let m = Atomic.get t.max in
      if c > m && not (Atomic.compare_and_set t.max m c) then bump ()
    in
    bump ()

  let leave t = ignore (Atomic.fetch_and_add t.current (-1))

  let max t = Atomic.get t.max

  let current t = Atomic.get t.current
end

(* Run [n] short-lived threads one after another, each alive only while
   it runs [f]; the number that finished without raising. Slot-indexed
   locks must let every one through: only concurrent holders count
   against their slots, never threads that have come and gone. *)
let churn n f =
  let ok = ref 0 in
  for _ = 1 to n do
    match Process.join (spawn f) with () -> incr ok | exception _ -> ()
  done;
  !ok
