(* Tests of the benchmark's own reporting arithmetic. *)

open Perfbench_core

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let ( -- ) a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let () =
  (* Percentile choice: the highest level with ten samples beyond it. *)
  check "tail level at 1000 samples is p99" (Stats.tail_level 1000 = Some 0.99);
  check "tail level at 999 samples is p95" (Stats.tail_level 999 = Some 0.95);
  check "tail level at 10000 samples is p99.9"
    (Stats.tail_level 10000 = Some 0.999);
  check "tail level at 200 samples is p95" (Stats.tail_level 200 = Some 0.95);
  check "no tail level below 20 samples" (Stats.tail_level 19 = None);
  let xs = Array.of_list (1 -- 1000) in
  check "p99 of 1..1000 is 990" (close (Stats.quantile xs 0.99) 990.);
  check "ten samples lie beyond the p99 of 1000"
    (Array.length (Array.of_list (List.filter (fun x -> x > Stats.quantile xs 0.99)
                                    (Array.to_list xs))) = 10);
  check "median of 1..1000 is 500" (close (Stats.median xs) 500.);

  (* Geomean. *)
  check "geomean 1 4 16 is 4" (close (Stats.geomean [ 1.; 4.; 16. ]) 4.);
  check "geomean of one value" (close (Stats.geomean [ 7.5 ]) 7.5);

  (* A shed request counts as a miss: it ranks above every success. *)
  let ok = Stats.sorted (Array.make 99 1000.) in
  check "one shed of 100 leaves p99 at the successes"
    (close (Stats.rank_quantile ~misses:1 ok 0.99) 1000.);
  let ok98 = Stats.sorted (Array.make 98 1000.) in
  check "two shed of 100 put p99 on a miss"
    (Stats.rank_quantile ~misses:2 ok98 0.99 = infinity);
  let step tail =
    { Stats.offered = 1000.; delivered = 1000.; tail_us = tail;
      fail_ratio = 0.; growing = false }
  in
  check "a step whose p99 is a miss fails the limit"
    (not (Stats.step_ok (step (Stats.rank_quantile ~misses:2 ok98 0.99))));

  (* Knee rule. *)
  let s offered ?(tail = 500.) ?(fail = 0.) ?(growing = false) () =
    { Stats.offered; delivered = offered; tail_us = tail; fail_ratio = fail;
      growing }
  in
  let knee steps =
    match Stats.knee steps with Some k -> k.Stats.offered | None -> 0.
  in
  check "knee is the top step when all pass"
    (knee [ s 2000. (); s 4000. (); s 8000. () ] = 8000.);
  check "knee stops below a step over the p99 limit"
    (knee [ s 2000. (); s 4000. ~tail:20_000. (); s 8000. () ] = 2000.);
  check "knee stops below a step over 1% failures"
    (knee [ s 2000. (); s 4000. ~fail:0.02 () ] = 2000.);
  check "knee stops below a step with a growing backlog"
    (knee [ s 8000. ~growing:true (); s 2000. (); s 4000. () ] = 4000.);
  check "no knee when the first step fails"
    (Stats.knee [ s 2000. ~fail:0.5 () ] = None);

  (* Backlog growth from per-request lateness. *)
  let steady = Array.init 400 (fun i -> float_of_int (50_000 + (i mod 7 * 1000))) in
  check "stationary lateness is not a growing backlog"
    (not (Stats.backlog_growing steady));
  let growing = Array.init 400 (fun i -> float_of_int (i * 20_000)) in
  check "linearly growing lateness is a growing backlog"
    (Stats.backlog_growing growing);
  let small = Array.init 400 (fun i -> float_of_int (i * 100)) in
  check "growth under 1 ms is not a backlog" (not (Stats.backlog_growing small));

  (* Span self time with overlapping children. *)
  check "self time with overlapping children"
    (Stats.self_time ~lo:0 ~hi:100 ~children:[ (10, 40); (30, 60); (80, 90) ]
     = 100 - 60);
  check "children are clipped to the parent"
    (Stats.self_time ~lo:0 ~hi:100 ~children:[ (-20, 10); (95, 130) ] = 85);
  check "nested and identical children count once"
    (Stats.self_time ~lo:0 ~hi:100 ~children:[ (20, 80); (30, 40); (20, 80) ]
     = 40);
  check "no children: self time is the duration"
    (Stats.self_time ~lo:5 ~hi:25 ~children:[] = 20);

  (* Spans recorded through the buffer API aggregate per layer. *)
  let spans =
    [ { Spans.id = 1; parent = 0; name = "req"; layer = "client"; req = 7;
        t0 = 0; t1 = 100 };
      { Spans.id = 2; parent = 1; name = "a"; layer = "serve"; req = 7;
        t0 = 10; t1 = 50 };
      { Spans.id = 3; parent = 1; name = "b"; layer = "serve"; req = 7;
        t0 = 40; t1 = 70 } ]
  in
  check "self time per layer"
    (Spans.self_by_layer spans = [ ("client", 40); ("serve", 70) ]);

  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
