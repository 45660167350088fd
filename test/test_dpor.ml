(* E26: differential testing of the DPOR explorer against exhaustive DFS.
   On every scenario small enough for a complete naive DFS, DPOR must
   report the identical set of distinct failure messages with
   [complete = true] while exploring strictly fewer schedules — that
   cross-check is the soundness argument for trusting DPOR at the depths
   DFS cannot finish, which the completeness tests below then exercise on
   the footnote-3 anomaly, E17's staged proofs and the E19 cancellation
   storm. *)

open Sync_platform
module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

let scen name =
  match Scenarios.find name with
  | Some e -> e.Scenarios.scen
  | None -> Alcotest.failf "scenario %s not in catalog" name

let distinct_messages failures =
  List.sort_uniq compare (List.map snd failures)

(* ------------------------------------------------------------------ *)
(* Small mutex/counter programs over raw [Detrt] tasks: the lost-update
   pattern (read under the lock, yield, write under the lock) fails with
   a final count that depends on the interleaving, so programs have
   several distinct failure messages — a strong set-equality oracle. *)

type op =
  | Balanced of int (* one locked increment of counter [m] *)
  | Two_phase of int (* racy two-phase increment: the classic lost update *)

type prog = { n_mutexes : int; tasks : op list list }

let exec_op mutexes counters = function
  | Balanced m ->
    Mutex.lock mutexes.(m);
    counters.(m) <- counters.(m) + 1;
    Mutex.unlock mutexes.(m)
  | Two_phase m ->
    Mutex.lock mutexes.(m);
    let v = counters.(m) in
    Mutex.unlock mutexes.(m);
    Detrt.yield ();
    Mutex.lock mutexes.(m);
    counters.(m) <- v + 1;
    Mutex.unlock mutexes.(m)

let op_to_string = function
  | Balanced m -> Printf.sprintf "B%d" m
  | Two_phase m -> Printf.sprintf "T%d" m

let prog_to_string p =
  Printf.sprintf "{m=%d; %s}" p.n_mutexes
    (String.concat " | "
       (List.map
          (fun ops -> String.concat "," (List.map op_to_string ops))
          p.tasks))

let prog_scenario p =
  D.scenario ~name:"prog" ~descr:(prog_to_string p)
    (fun () ->
      let mutexes = Array.init p.n_mutexes (fun _ -> Mutex.create ()) in
      let counters = Array.make p.n_mutexes 0 in
      { D.body =
          (fun () ->
            let ts =
              List.mapi
                (fun i ops ->
                  Detrt.spawn
                    ~name:(Printf.sprintf "w%d" i)
                    (fun () -> List.iter (exec_op mutexes counters) ops))
                p.tasks
            in
            List.iter Detrt.join ts);
        check =
          (fun () ->
            let want = Array.make p.n_mutexes 0 in
            List.iter
              (List.iter (function
                | Balanced m | Two_phase m -> want.(m) <- want.(m) + 1))
              p.tasks;
            let bad = ref None in
            Array.iteri
              (fun i w ->
                if !bad = None && counters.(i) <> w then
                  bad := Some (i, counters.(i), w))
              want;
            match !bad with
            | None -> Ok ()
            | Some (i, got, w) ->
              Error (Printf.sprintf "counter %d: got %d, want %d" i got w)) })

(* ------------------------------------------------------------------ *)
(* The differential harness itself. [max_failures] is far above any
   suite scenario's failure count, and the harness asserts the cap was
   not hit: a truncated failure list would make set-equality vacuous. *)

let differential ?(max_schedules = 400_000) sc () =
  let max_failures = 200_000 in
  let dfs = D.explore_dfs ~max_schedules ~max_failures sc in
  Alcotest.(check bool)
    (sc.D.name ^ ": DFS completes within the differential budget")
    true dfs.complete;
  Alcotest.(check bool)
    (sc.D.name ^ ": DFS failure list not truncated")
    true
    (List.length dfs.failures < max_failures);
  let dpor = D.explore_dpor ~max_schedules ~max_failures sc in
  Alcotest.(check bool) (sc.D.name ^ ": DPOR complete") true dpor.complete;
  Alcotest.(check (list string))
    (sc.D.name ^ ": identical distinct failure messages")
    (distinct_messages dfs.failures)
    (distinct_messages dpor.failures);
  Alcotest.(check bool)
    (Printf.sprintf "%s: DPOR explored strictly fewer (%d < %d)" sc.D.name
       dpor.explored dfs.explored)
    true
    (dpor.explored < dfs.explored)

let differential_progs =
  [ (* one racy pair: one lost-update message *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0 ]; [ Two_phase 0 ] ] };
    (* race against a balanced writer *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0 ]; [ Balanced 0 ] ] };
    (* three increments, two racy: two distinct failure messages *)
    { n_mutexes = 1; tasks = [ [ Two_phase 0; Balanced 0 ]; [ Two_phase 0 ] ] };
    (* fully independent counters: zero failures, maximal commutation *)
    { n_mutexes = 2; tasks = [ [ Two_phase 0 ]; [ Two_phase 1 ] ] } ]

let differential_tests =
  Alcotest.test_case "differential deadlock-abba" `Quick
    (differential (scen "deadlock-abba"))
  (* The E25 broken-lock control is DFS-feasible (~300k schedules), so
     the planted exclusion violation doubles as a differential row:
     both explorers must report the identical violation set. *)
  :: Alcotest.test_case "differential naive-rw-excl" `Quick
       (differential (scen "naive-rw-excl-2t1r"))
  :: List.map
       (fun p ->
         Alcotest.test_case ("differential " ^ prog_to_string p) `Quick
           (differential (prog_scenario p)))
       differential_progs

(* Property form of the same cross-check, over random programs. Shapes
   are kept complete-DFS-feasible by construction (two tasks, one op
   each); the QCheck seed is pinned via [Testutil.qcheck_case]. *)
let qcheck_differential =
  let gen =
    QCheck.Gen.(
      int_range 1 2 >>= fun n_mutexes ->
      let op =
        int_range 0 (n_mutexes - 1) >>= fun m ->
        oneofl [ Balanced m; Two_phase m ]
      in
      op >>= fun o1 ->
      op >>= fun o2 -> return { n_mutexes; tasks = [ [ o1 ]; [ o2 ] ] })
  in
  QCheck.Test.make ~name:"random programs: DPOR == DFS on failure sets"
    ~count:8
    (QCheck.make ~print:prog_to_string gen)
    (fun p ->
      let sc = prog_scenario p in
      let dfs = D.explore_dfs ~max_schedules:200_000 ~max_failures:100_000 sc in
      let dpor =
        D.explore_dpor ~max_schedules:200_000 ~max_failures:100_000 sc
      in
      if not dfs.complete then
        QCheck.Test.fail_reportf "%s: DFS incomplete" (prog_to_string p);
      if not dpor.complete then
        QCheck.Test.fail_reportf "%s: DPOR incomplete" (prog_to_string p);
      if distinct_messages dfs.failures <> distinct_messages dpor.failures then
        QCheck.Test.fail_reportf "%s: failure sets differ\nDFS : %s\nDPOR: %s"
          (prog_to_string p)
          (String.concat " | " (distinct_messages dfs.failures))
          (String.concat " | " (distinct_messages dpor.failures));
      if dpor.explored > dfs.explored then
        QCheck.Test.fail_reportf "%s: DPOR explored more (%d > %d)"
          (prog_to_string p) dpor.explored dfs.explored;
      true)

(* ------------------------------------------------------------------ *)
(* Completeness beyond DFS reach: the win condition. The same engine the
   differential suite just validated proves full coverage on scenarios
   whose schedule trees naive DFS cannot finish within the CI budget. *)

(* What one exploration planted: classes explored, backtrack points
   added by the race analysis, and sleep-redundant runs. The analysis may
   change how it finds races, never which ones it plants. *)
let pin_analysis name (r : D.dpor_report) ~classes ~races ~redundant =
  Alcotest.(check int) (name ^ ": classes") classes r.explored;
  Alcotest.(check int) (name ^ ": races") races r.races;
  Alcotest.(check int) (name ^ ": redundant") redundant r.redundant

(* Footnote 3 (Figure 1 path expression): DPOR visits every equivalence
   class and confirms the writer-first anomaly is the only failure mode,
   where DFS exhausts the same budget with the tree unfinished. *)
let test_fn3_complete () =
  let sc = scen "rw-fig1" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget ~max_failures:1_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check bool)
    (Printf.sprintf "DPOR finished under the DFS budget (%d < %d)" r.explored
       budget)
    true (r.explored < budget);
  pin_analysis "rw-fig1" r ~classes:42_240 ~races:92_484 ~redundant:0;
  Alcotest.(check bool) "anomaly schedules found" true (r.failures <> []);
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix:"writer-first" m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    r.failures

(* E19 cancellation storm: the semaphore rollback machinery verified over
   the complete schedule tree (E19's DFS row stops at 2 000 bounded
   schedules; the full tree is beyond 3M). *)
let test_storm_complete () =
  let sc = scen "storm-bb-sem-1p1c2i" in
  let budget = 8_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "storm-bb-sem-1p1c2i" r ~classes:3_156 ~races:5_800 ~redundant:0;
  Alcotest.(check (list string)) "every schedule recovers" []
    (distinct_messages r.failures)

(* The bb catalog entry at its smallest shape: full verification. *)
let test_bb_small_complete () =
  let sc = scen "bb-sem-small" in
  let r = D.explore_dpor ~max_schedules:50_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "bb-sem-small" r ~classes:22_152 ~races:49_598 ~redundant:0;
  Alcotest.(check (list string)) "no failures" [] (distinct_messages r.failures)

(* DPOR-complete certificates on the real code with the class count
   pinned exactly, as certify pins it, so a change in what the scheduler
   explores shows up here. [failing] is how many classes must fail, all
   with a message containing [affix]; [max_failures] sits above the
   class count, so the failure list is never truncated. [races] and
   [redundant] pin what the analysis planted on the way. *)
let complete_exactly name ~classes ~races ?(redundant = 0) ?(failing = 0)
    ?(affix = "") () =
  let r =
    D.explore_dpor ~max_schedules:(2 * classes) ~max_failures:(classes + 1)
      (scen name)
  in
  Alcotest.(check bool) (name ^ ": DPOR covers every class") true r.complete;
  pin_analysis name r ~classes ~races ~redundant;
  Alcotest.(check int) (name ^ ": failing classes") failing
    (List.length r.failures);
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix m) then
        Alcotest.failf "%s: unexpected failure mode: %s" name m)
    r.failures

(* E17's claims, each over the footnote-3 staging (W1 mid-write, then
   W2, then R queued). Courtois problem 1 on strong semaphores: at W1's
   release the [w] queue is necessarily W2 then R, so every class is
   writer-first. The two Hoare readers-writers trees (~1M classes each)
   are certified outside tier-1, by the e17-certify CI job. *)
let test_rw_sem_complete =
  complete_exactly "rw-sem" ~classes:3_840 ~races:8_176 ~failing:3_840
    ~affix:"writer-first"

(* The baton-passing rewrite and the serializer: reader-first on every
   schedule. *)
let test_rw_sem_baton_complete =
  complete_exactly "rw-sem-baton" ~classes:7_200 ~races:20_474

let test_rw_ser_complete =
  complete_exactly "rw-ser" ~classes:6_144 ~races:17_451

(* Hoare signal-and-wait hands the monitor straight to the signalled
   waiter, so no thief gets in between; under Mesa about half the
   classes let it barge — the control that shows the check can fail. *)
let test_hoare_no_barging_complete =
  complete_exactly "hoare-no-barging" ~classes:11_792 ~races:24_248
    ~redundant:40

let test_mesa_barging_found =
  complete_exactly "mesa-barging" ~classes:24_848 ~races:57_752 ~redundant:744
    ~failing:12_048
    ~affix:"lost the token"

(* ------------------------------------------------------------------ *)
(* E25 class-restricted locks over deterministic registers: exhaustive
   (DPOR-complete) verification that the bakery and ticket constructions
   preserve mutual exclusion, and that the FCFS ticket semaphore never
   loses a wakeup (which would surface as a deadlock on some schedule).
   The broken test-then-set control above proves the witness machinery
   detects real violations. *)

let test_bakery_complete () =
  let sc = scen "bakery-excl-2t1r" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "bakery-excl-2t1r" r ~classes:942 ~races:2_032 ~redundant:0;
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

let test_ticket_complete () =
  let sc = scen "ticket-excl-2t2r" in
  let r = D.explore_dpor ~max_schedules:50_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "ticket-excl-2t2r" r ~classes:5_034 ~races:9_839 ~redundant:0;
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

let test_ticket_sem_complete () =
  let sc = scen "ticket-sem-handoff-3t" in
  let r = D.explore_dpor ~max_schedules:150_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "ticket-sem-handoff-3t" r ~classes:82_310 ~races:176_498
    ~redundant:168;
  Alcotest.(check (list string))
    "no lost wakeup, no exclusion breach, on any schedule" []
    (distinct_messages r.failures)

(* E27 hot-swap retiering: the DPOR-complete certificate that the
   lock / re-check / retry protocol behind [Mutex.swap_to] preserves
   exclusion across a mid-run tier flip — on a tree naive DFS cannot
   finish within the same budget. The control drops the re-check;
   every failure DPOR reports there must be the stale-cell exclusion
   violation the re-check exists to kill. *)
let test_swap_complete () =
  let sc = scen "swap-excl-1t1r1f" in
  let budget = 50_000 in
  let dfs = D.explore_dfs ~max_schedules:budget sc in
  Alcotest.(check bool) "naive DFS exceeds the budget" false dfs.complete;
  let r = D.explore_dpor ~max_schedules:budget sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "swap-excl-1t1r1f" r ~classes:3_445 ~races:6_582 ~redundant:0;
  Alcotest.(check (list string))
    "exclusion holds across the flip on every schedule" []
    (distinct_messages r.failures)

let test_swap_norecheck_found () =
  let sc = scen "swap-excl-norecheck-1t1r1f" in
  let r = D.explore_dpor ~max_schedules:50_000 ~max_failures:1_000 sc in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  pin_analysis "swap-excl-norecheck-1t1r1f" r ~classes:5_383 ~races:8_531
    ~redundant:0;
  Alcotest.(check bool) "violations found" true (r.failures <> []);
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix:"exclusion violation" m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    r.failures

(* Slot reuse: two tasks share one lease slot on an MCS and a CLH lock
   through the production lease wrapper, so the slot passes between them
   on every run. The control hands the lease back before the unlock; a
   task that re-leases the slot then rewrites a node still in the queue,
   and DPOR must find the schedules where that strands a waiter. *)
let test_mcs_lease_complete =
  complete_exactly "mcs-lease-2t1s2r" ~classes:12_893 ~races:29_155

let test_clh_lease_complete =
  complete_exactly "clh-lease-2t1s2r" ~classes:7_202 ~races:16_127

let test_early_release_found =
  complete_exactly "mcs-lease-early-release-2t1s1r" ~classes:3_204
    ~races:6_315 ~failing:186 ~affix:"deadlock"

(* The two queue-lock certify entries: one MCS and one CLH lock, two
   tasks, one round each. *)
let test_mcs_excl_complete =
  complete_exactly "mcs-excl-2t1r" ~classes:911 ~races:2_068

let test_clh_excl_complete =
  complete_exactly "clh-excl-2t1r" ~classes:208 ~races:428

(* ------------------------------------------------------------------ *)
(* Parallel sharding: partitioning the top-level frontier across domains
   must not change what is found. *)

let test_workers () =
  let sc = scen "deadlock-abba" in
  let seq = D.explore_dpor ~max_failures:1_000 sc in
  let par = D.explore_dpor ~max_failures:1_000 ~workers:2 sc in
  Alcotest.(check bool) "sequential complete" true seq.complete;
  Alcotest.(check bool) "parallel complete" true par.complete;
  Alcotest.(check bool) "used more than one worker" true (par.workers > 1);
  (* each shard drops the races below its pinned root, and the probe
     run counts as one class *)
  pin_analysis "sequential" seq ~classes:51 ~races:89 ~redundant:0;
  pin_analysis "sharded" par ~classes:52 ~races:88 ~redundant:0;
  Alcotest.(check (list string))
    "same distinct failures"
    (distinct_messages seq.failures)
    (distinct_messages par.failures)

(* ------------------------------------------------------------------ *)
(* Footnote-3 seed regression: the printed seed from the E18 suite keeps
   reproducing, its schedule replays under strict mode, and the same
   anomaly is what the DPOR explorer reports (tested above); round-trip
   and error-path coverage for the printed schedule syntax rides along. *)

let test_fn3_seed_replay () =
  let sc = scen "rw-fig1" in
  let seed = 11 in
  let v = D.run_random ~seed sc in
  (match v.D.verdict with
  | Ok () -> Alcotest.failf "seed %d no longer fails" seed
  | Error m ->
    if not (Astring.String.is_infix ~affix:"writer-first" m) then
      Alcotest.failf "seed %d: unexpected message %s" seed m);
  let printed = D.Schedule.to_string v.D.outcome.schedule in
  let reparsed = D.Schedule.of_string printed in
  let v2 = D.replay ~strict:true sc reparsed in
  Alcotest.(check string)
    "replay of the printed schedule reproduces the verdict"
    (D.verdict_message v) (D.verdict_message v2)

let test_schedule_roundtrip () =
  let rt s = D.Schedule.to_string (D.Schedule.of_string s) in
  Alcotest.(check string) "empty" "-" (rt "-");
  Alcotest.(check string) "empty string" "-" (rt "");
  Alcotest.(check string) "single entry" "1/3" (rt "1/3");
  Alcotest.(check string) "whitespace tolerated" "1/3,0/2" (rt " 1/3 , 0/2 ");
  Alcotest.(check int) "empty parses to zero entries" 0
    (D.Schedule.length (D.Schedule.of_string "-"));
  let must_name tok s =
    match D.Schedule.of_string s with
    | _ -> Alcotest.failf "%S parsed" s
    | exception Invalid_argument m ->
      if not (Astring.String.is_infix ~affix:tok m) then
        Alcotest.failf "error for %S does not name token %S: %s" s tok m
  in
  must_name "a/b" "1/3,a/b";
  must_name "5" "5";
  must_name "1/2/3" "1/2/3,0/2";
  must_name "3/2" "3/2"

(* ------------------------------------------------------------------ *)
(* Shrink determinism: shrinking the same failing schedule twice yields
   byte-identical canonical schedules, which still fail under strict
   replay. *)

let shrink_twice sc failing =
  let s1 = D.shrink sc failing in
  let s2 = D.shrink sc failing in
  Alcotest.(check string)
    "byte-identical canonical schedules"
    (D.Schedule.to_string s1.D.shrunk)
    (D.Schedule.to_string s2.D.shrunk);
  let v = D.replay ~strict:true sc s1.D.shrunk in
  match v.D.verdict with
  | Ok () -> Alcotest.fail "shrunk schedule no longer fails"
  | Error _ -> ()

let test_shrink_deterministic_deadlock () =
  let sc = scen "deadlock-abba" in
  let r = D.explore_dfs ~max_schedules:100_000 sc in
  match r.failures with
  | [] -> Alcotest.fail "DFS found no deadlock"
  | (sched, _) :: _ -> shrink_twice sc sched

let test_shrink_deterministic_fn3 () =
  let sc = scen "rw-fig1" in
  let v = D.run_random ~seed:11 sc in
  Alcotest.(check bool) "seed 11 fails" false (D.verdict_ok v);
  shrink_twice sc v.D.outcome.schedule

(* ------------------------------------------------------------------ *)
(* Report bookkeeping: wall time and rate on both explorers, the
   strategy on sample reports. *)

let test_report_fields () =
  let sc = scen "deadlock-abba" in
  let dfs = D.explore_dfs ~max_schedules:500 sc in
  Alcotest.(check bool) "dfs secs non-negative" true (dfs.secs >= 0.0);
  Alcotest.(check bool) "dfs rate positive" true (dfs.per_sec > 0.0);
  let dpor = D.explore_dpor ~max_schedules:500 sc in
  Alcotest.(check bool) "dpor secs non-negative" true (dpor.secs >= 0.0);
  Alcotest.(check bool) "dpor rate positive" true (dpor.per_sec > 0.0);
  Alcotest.(check int) "dpor workers" 1 dpor.workers;
  let s1 = D.sample ~runs:3 sc in
  let s2 = D.sample ~runs:3 ~strategy:`Pct sc in
  Alcotest.(check bool) "sample default strategy" true (s1.strategy = `Random);
  Alcotest.(check bool) "sample pct strategy" true (s2.strategy = `Pct)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dpor"
    [ ("differential", differential_tests);
      ("differential-properties", [ Testutil.qcheck_case qcheck_differential ]);
      ( "completeness",
        [ Alcotest.test_case "footnote-3 beyond DFS reach" `Quick
            test_fn3_complete;
          Alcotest.test_case "E19 storm beyond DFS reach" `Quick
            test_storm_complete;
          Alcotest.test_case "bb smallest shape" `Quick test_bb_small_complete;
          Alcotest.test_case "E17 courtois-1 anomaly" `Quick
            test_rw_sem_complete;
          Alcotest.test_case "E17 baton rewrite holds" `Quick
            test_rw_sem_baton_complete;
          Alcotest.test_case "E17 serializer holds" `Quick
            test_rw_ser_complete;
          Alcotest.test_case "Hoare monitor never barged" `Quick
            test_hoare_no_barging_complete;
          Alcotest.test_case "Mesa barging caught" `Quick
            test_mesa_barging_found ] );
      ( "primitives",
        [ Alcotest.test_case "bakery exclusion beyond DFS reach" `Quick
            test_bakery_complete;
          Alcotest.test_case "ticket lock exclusion" `Quick
            test_ticket_complete;
          Alcotest.test_case "ticket semaphore handoff" `Quick
            test_ticket_sem_complete;
          Alcotest.test_case "hot-swap flip exclusion beyond DFS reach"
            `Quick test_swap_complete;
          Alcotest.test_case "hot-swap without re-check caught" `Quick
            test_swap_norecheck_found;
          Alcotest.test_case "mcs exclusion" `Quick test_mcs_excl_complete;
          Alcotest.test_case "clh exclusion" `Quick test_clh_excl_complete;
          Alcotest.test_case "mcs lease slot reuse" `Quick
            test_mcs_lease_complete;
          Alcotest.test_case "clh lease slot reuse" `Quick
            test_clh_lease_complete;
          Alcotest.test_case "lease released before unlock caught" `Quick
            test_early_release_found ] );
      ( "parallel",
        [ Alcotest.test_case "sharded = sequential" `Quick test_workers ] );
      ( "regression",
        [ Alcotest.test_case "footnote-3 printed seed" `Quick
            test_fn3_seed_replay;
          Alcotest.test_case "schedule round-trip + bad tokens" `Quick
            test_schedule_roundtrip ] );
      ( "shrink",
        [ Alcotest.test_case "deterministic on deadlock" `Quick
            test_shrink_deterministic_deadlock;
          Alcotest.test_case "deterministic on footnote-3" `Quick
            test_shrink_deterministic_fn3 ] );
      ("reports", [ Alcotest.test_case "timing + strategy" `Quick
                      test_report_fields ]) ]
