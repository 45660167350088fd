(* E17's explorer and staged-proof claims, each checked by DPOR on the
   real mechanism code: strong-semaphore exclusion and FIFO granting, the
   AB/BA deadlock, violation reporting, and the footnote-3 staging (W1
   mid-write, then W2, then R queued) for Figure 1 and the Hoare
   readers-priority monitor. The rest of E17 (courtois-1, the baton
   rewrite, the serializer, Hoare no-barging) is in test_dpor's
   completeness group. *)

open Sync_platform
module D = Sync_detsched.Detsched
module Scenarios = Sync_detsched.Scenarios

let scen name =
  match Scenarios.find name with
  | Some e -> e.Scenarios.scen
  | None -> Alcotest.failf "scenario %s not in catalog" name

let distinct_messages failures =
  List.sort_uniq compare (List.map snd failures)

(* Every failure message must contain [affix]. *)
let all_fail_with ~affix failures =
  List.iter
    (fun (_, m) ->
      if not (Astring.String.is_infix ~affix m) then
        Alcotest.failf "unexpected failure mode: %s" m)
    failures

(* ------------------------------------------------------------------ *)
(* Explorer claims                                                     *)

(* Three tasks through a strong binary semaphore, occupancy kept on a
   recorded register so entering and leaving the section are scheduling
   points. *)
let sem_exclusion =
  let module R = Scenarios.Det_regs in
  D.scenario ~name:"sem-excl-3t"
    ~descr:"three tasks through a strong binary semaphore" (fun () ->
      let viol = ref 0 and passes = ref 0 in
      { D.body =
          (fun () ->
            let s = Semaphore.Counting.create 1 in
            let in_cs = R.make 0 in
            let ts =
              List.init 3 (fun i ->
                  Detrt.spawn ~name:(Printf.sprintf "t%d" i) (fun () ->
                      Semaphore.Counting.p s;
                      if R.faa in_cs 1 > 0 then incr viol;
                      ignore (R.faa in_cs (-1));
                      incr passes;
                      Semaphore.Counting.v s))
            in
            List.iter Detrt.join ts);
        check =
          (fun () ->
            if !viol > 0 then Error "two tasks in the section"
            else if !passes <> 3 then
              Error (Printf.sprintf "%d passes, expected 3" !passes)
            else Ok ()) })

let test_sem_exclusion_all_interleavings () =
  let r = D.explore_dpor ~max_schedules:50_000 sem_exclusion in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check bool) "explored something" true (r.explored > 10);
  Alcotest.(check (list string)) "exclusion holds on every schedule" []
    (distinct_messages r.failures)

(* Strong-semaphore FIFO granting at two contenders; [fcfs-sem]'s four
   contenders make a ~415k-class tree, sampled in test_detsched. *)
let test_sem_fifo_all_interleavings () =
  let r = D.explore_dpor ~max_schedules:10_000 (scen "fcfs-sem-2") in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check int) "classes" 2_880 r.explored;
  Alcotest.(check int) "races" 6_121 r.races;
  Alcotest.(check int) "redundant" 0 r.redundant;
  Alcotest.(check (list string)) "grants follow request order" []
    (distinct_messages r.failures)

(* Opposite lock orders on the real mutex: DPOR covers the whole tree
   and finds both deadlocking and clean schedules. *)
let test_explorer_finds_classic_deadlock () =
  let r = D.explore_dpor ~max_failures:1_000 (scen "deadlock-abba") in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check bool) "deadlock found" true (r.failures <> []);
  Alcotest.(check bool) "some schedules complete" true
    (List.length r.failures < r.explored);
  all_fail_with ~affix:"Deadlock" r.failures

(* A check that fails on the only schedule is reported exactly once,
   with its message, by both explorers. *)
let test_invariant_violation_reported () =
  let sc =
    D.scenario ~name:"bump" ~descr:"one task sets x to 1" (fun () ->
        let x = ref 0 in
        { D.body = (fun () -> x := 1);
          check = (fun () -> if !x = 1 then Error "x hit 1" else Ok ()) })
  in
  let dfs = D.explore_dfs sc in
  let dpor = D.explore_dpor sc in
  Alcotest.(check (list string)) "DFS: one violation" [ "x hit 1" ]
    (List.map snd dfs.failures);
  Alcotest.(check (list string)) "DPOR: one violation" [ "x hit 1" ]
    (List.map snd dpor.failures)

(* ------------------------------------------------------------------ *)
(* Staged proofs                                                       *)

(* Figure 1: every one of the 42 240 classes is writer-first;
   [max_failures] sits above the class count, so none is dropped. *)
let test_fig1_anomaly_unavoidable () =
  let r =
    D.explore_dpor ~max_schedules:50_000 ~max_failures:50_001 (scen "rw-fig1")
  in
  Alcotest.(check bool) "DPOR covers every class" true r.complete;
  Alcotest.(check int) "classes" 42_240 r.explored;
  Alcotest.(check int) "races" 92_484 r.races;
  Alcotest.(check int) "redundant" 0 r.redundant;
  Alcotest.(check int) "failing classes" 42_240 (List.length r.failures);
  all_fail_with ~affix:"writer-first" r.failures

(* The Hoare readers-priority monitor's complete tree (1 124 352 classes,
   ~1 min) is certified by the e17-certify CI job; here DPOR's first
   10 000 classes and 50 PCT-seeded runs must all be reader-first. *)
let test_monitor_readers_priority () =
  let sc = scen "rw-mon" in
  let r = D.explore_dpor ~max_schedules:10_000 sc in
  Alcotest.(check int) "classes explored" 10_000 r.explored;
  Alcotest.(check (list string)) "reader-first on every explored class" []
    (distinct_messages r.failures);
  match (D.sample ~runs:50 ~strategy:`Pct sc).failure with
  | None -> ()
  | Some (seed, v) ->
    Alcotest.failf "rw-mon failed under PCT seed %d: %s" seed
      (D.verdict_message v)

let () =
  Alcotest.run "e17"
    [ ( "explorer",
        [ Alcotest.test_case "semaphore exclusion, all interleavings" `Quick
            test_sem_exclusion_all_interleavings;
          Alcotest.test_case "semaphore FIFO, all interleavings" `Quick
            test_sem_fifo_all_interleavings;
          Alcotest.test_case "classic AB/BA deadlock found" `Quick
            test_explorer_finds_classic_deadlock;
          Alcotest.test_case "invariant violations reported" `Quick
            test_invariant_violation_reported ] );
      ( "staged-proofs",
        [ Alcotest.test_case "fig1 anomaly unavoidable" `Quick
            test_fig1_anomaly_unavoidable;
          Alcotest.test_case "monitor readers-priority schedule-independent"
            `Quick test_monitor_readers_priority ] ) ]
