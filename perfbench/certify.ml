(* The certify workload: DPOR with one worker over catalog entries whose
   exploration finishes complete. It is the only workload that runs the
   deterministic scheduler and the Detrt arm of every platform
   primitive. rw-fig1 is the paper's footnote-3 anomaly and
   swap-excl-norecheck the broken control of the hot-swap protocol:
   both must fail; the rest must pass. Class counts are exact, so any
   change to them is a change in what the scheduler explores. *)

open Sync_detsched

(* name, expected class count *)
let catalog =
  [ ("rw-fig1", 42240); ("rw-ser", 6144); ("mcs-excl-2t1r", 911);
    ("clh-excl-2t1r", 208); ("swap-excl-1t1r1f", 3445);
    ("swap-excl-norecheck-1t1r1f", 5383) ]

let entry name =
  match Scenarios.find name with
  | Some e -> e
  | None -> failwith ("certify: no catalog entry " ^ name)

let max_schedules = 1_000_000

type verdict = {
  raw : float;  (** wall seconds *)
  secs : float;  (** CPU seconds at reference speed *)
  classes : int;
  races : int;
  redundant : int;
}

let certify_one ~(out : Out.t) ~spans ~parent (name, expect_classes) =
  let e = entry name in
  let c0 = Out.calib_ns () in
  let t0 = Out.now_ns () and cpu0 = Out.cpu_s () in
  let r =
    Spans.with_span spans ~parent ~layer:"detsched" ("dpor." ^ name) (fun _ ->
        Detsched.explore_dpor ~max_schedules ~workers:1 e.Scenarios.scen)
  in
  let raw = Out.secs_since t0 in
  (* One thread explores, so its CPU time is the wall time less any time
     the machine took the CPU away; scaled, it is steady across runs. *)
  let secs = (Out.cpu_s () -. cpu0) *. Out.speed ((c0 +. Out.calib_ns ()) /. 2.) in
  let failed = r.Detsched.failures <> [] in
  let expect_fail = e.Scenarios.expect = Scenarios.Fail in
  Out.attempt out 1;
  if not r.complete then Out.fail out (name ^ ": exploration incomplete")
  else if failed <> expect_fail then
    Out.fail out
      (Printf.sprintf "%s: verdict %s, catalog expects %s" name
         (if failed then "fail" else "pass")
         (if expect_fail then "fail" else "pass"))
  else if r.explored <> expect_classes then
    Out.fail out
      (Printf.sprintf "%s: %d classes, catalog expects %d" name r.explored
         expect_classes);
  { raw; secs; classes = r.explored; races = r.races; redundant = r.redundant }

(* Set-up: find each entry and run its first schedule, the work every
   exploration does before it branches. *)
let setup () =
  List.iter
    (fun (name, _) -> ignore (Detsched.run_random ~seed:0 (entry name).scen))
    catalog

let run ~(out : Out.t) ~spans ~seconds =
  let setup_s, () = Out.median_setup 15 (fun () -> (setup (), ignore)) in
  let t_start = Out.now_ns () in
  let rounds = ref [] in
  let last = ref 0. in
  (* At least one round; another only if it fits in the budget. *)
  while
    !rounds = []
    || Out.secs_since t_start +. !last <= seconds
  do
    let t0 = Out.now_ns () in
    let vs =
      Spans.with_span spans ~layer:"certify" "round" (fun parent ->
          List.map (certify_one ~out ~spans ~parent) catalog)
    in
    last := Out.secs_since t0;
    rounds := vs :: !rounds
  done;
  let rounds = List.rev !rounds in
  let med f = Stats.median (Array.of_list (List.map f rounds)) in
  let total f vs = List.fold_left (fun a v -> a +. f v) 0. vs in
  let nth i f vs = f (List.nth vs i) in
  let first = List.hd rounds in
  Out.say "certify: %d round(s), DPOR with 1 worker, max %d schedules"
    (List.length rounds) max_schedules;
  List.iteri
    (fun i (name, _) ->
      let v = List.nth first i in
      Out.say "  %-28s %6d classes %7d races %5d redundant %8.3f s" name
        v.classes v.races v.redundant (med (nth i (fun v -> v.raw)));
      Out.layer out ("detsched.classes." ^ name) "count" (float_of_int v.classes))
    catalog;
  let sum f = List.fold_left (fun a v -> a + f v) 0 first in
  let classes = float_of_int (sum (fun v -> v.classes)) in
  let redundant = float_of_int (sum (fun v -> v.redundant)) in
  let verdict_s = med (total (fun v -> v.raw)) in
  let scaled_s = med (total (fun v -> v.secs)) in
  (* Scenarios weigh alike: the geomean of each one's classes explored
     per CPU second at reference speed. *)
  let rate =
    Stats.geomean
      (List.mapi
         (fun i _ ->
           float_of_int (List.nth first i).classes /. med (nth i (fun v -> v.secs)))
         catalog)
  in
  Out.say "  verdict_s %.3f s (%.3f CPU s at reference speed), %.0f schedules/s; \
           geomean %.0f schedules per CPU s at reference speed; setup %.6f s"
    verdict_s scaled_s (classes /. verdict_s) rate setup_s;
  Out.layer out "detsched.races" "count" (float_of_int (sum (fun v -> v.races)));
  Out.layer out "detsched.redundant" "count" redundant;
  Out.layer out "detsched.useful_ratio" "ratio" (classes /. (classes +. redundant));
  Out.layer out "detsched.sched_per_s" "1/s" (classes /. verdict_s);
  Out.layer out "verdict_s" "s" verdict_s;
  Out.e2e out "setup_s" "s" setup_s;
  Out.e2e out "throughput_ops_s" "ops/s" rate;
  Out.e2e out "peak_rss_mb" "MB" (Out.self_rss_mb ())
