(* The contend workload: closed loop, two domain workers, no think time,
   through the load engine on self-checking targets. Eleven cells cover
   the contended slow paths — park/wake, handoff, crowds, CSP server
   threads — on every mechanism for the bounded buffer, readers-writers
   at 90% reads, and the bounded-buffer monitor on the fast, MCS-queue
   and adaptive tiers (the adaptive cell runs the live controller with
   probes on, as `bloom_eval load --tier adaptive` does). A single cell
   spreads widely from run to run, so rounds visit every cell in turn
   and each cell reports its median round. *)

open Sync_workload
module Probe = Sync_trace.Probe
module Controller = Sync_adaptive.Controller

type cell = {
  label : string;
  problem : string;
  mechanism : string;
  tier : Target.tier;
}

let cells =
  let bb m = { label = "bb." ^ m; problem = "bounded-buffer"; mechanism = m;
               tier = `Default } in
  let rw m = { label = "rw." ^ m; problem = "readers-writers"; mechanism = m;
               tier = `Default } in
  let bb_mon label tier = { (bb "monitor") with label; tier } in
  List.map bb [ "semaphore"; "monitor"; "serializer"; "pathexpr"; "csp"; "ccr" ]
  @ List.map rw [ "monitor"; "serializer" ]
  @ [ bb_mon "bb.monitor.fast" `Fast;
      bb_mon "bb.monitor.mcs" (`Queue Sync_prims.Queuelock.MCS);
      bb_mon "bb.monitor.adaptive" `Adaptive ]

let workers = 2

let min_samples = 1000

(* A cell's latency quantile: the worst op among those with enough
   samples to back it (the rare readers-writers write op has few). *)
let cell_quantile (s : Sync_metrics.Summary.t) pick =
  let ops =
    List.filter
      (fun (o : Sync_metrics.Summary.op_stats) -> o.count >= min_samples)
      s.per_op
  in
  let ops = if ops = [] then s.per_op else ops in
  List.fold_left (fun acc o -> max acc (pick o)) 0 ops

let build c =
  match
    Target.create ~params:Target.default_params ~tier:c.tier ~problem:c.problem
      ~mechanism:c.mechanism ()
  with
  | Ok i -> i
  | Error e -> failwith (Printf.sprintf "contend cell %s: %s" c.label e)

type sample = {
  ops_s : float;
  p50_ns : int;
  p99_ns : int;
  n : int;
  serialized : bool;  (** the two workers did not each have a CPU *)
}

(* Above this {!Out.parallel_ratio} before or after a run, the machine
   was not giving the process two CPUs: the workers took turns, never
   contended, and the run measured the uncontended path. *)
let serial_ratio = 1.6

let run ~(out : Out.t) ~spans ~seed ~seconds =
  (* Set-up: building all eleven instances, median of fifteen. Each round
     then builds fresh ones, because a load run stops its instance. *)
  let setup_s, _ =
    Out.median_setup 15 (fun () ->
        let insts = List.map build cells in
        (insts, fun () -> List.iter (fun (i : Target.instance) -> i.stop ()) insts))
  in
  let warmup_ms = 50 in
  let rounds = 5 in
  let per_cell_s =
    seconds /. float_of_int (rounds * List.length cells)
  in
  let duration_ms = max 50 (int_of_float (per_cell_s *. 1000.) - warmup_ms) in
  Out.say "contend: %d cells x %d rounds, %d ms steady + %d ms warmup each, \
           %d domain workers, closed loop, seed %d"
    (List.length cells) rounds duration_ms warmup_ms workers seed;
  let results = Hashtbl.create 16 in
  let samples = ref 0 and flips = ref 0 in
  for round = 1 to rounds do
    List.iteri
      (fun ci c ->
        let inst = build c in
        let cfg =
          { Loadgen.workers; backend = `Domain; duration_ms; warmup_ms;
            mode = Loadgen.Closed; seed = seed + (1000 * round) + ci;
            think_us = 0 }
        in
        let par0 = Out.parallel_ratio () in
        let report =
          Spans.with_span spans ~layer:"workload" ("cell." ^ c.label) (fun _ ->
              match c.tier with
              | `Adaptive ->
                (* The controller reads the live probe rings. *)
                Probe.reset ();
                Probe.enable ();
                let r, ctrl =
                  Fun.protect ~finally:Probe.disable (fun () ->
                      Controller.with_controller (fun () -> Loadgen.run inst cfg))
                in
                Probe.reset ();
                samples := !samples + Controller.samples ctrl;
                flips := !flips + Controller.flips ctrl;
                r
              | _ -> Loadgen.run inst cfg)
        in
        let serialized = Float.max par0 (Out.parallel_ratio ()) > serial_ratio in
        (* Return each finished cell's garbage, so the peak RSS is the
           largest cell's footprint, not the order the collector ran in. *)
        Gc.compact ();
        let s = report.Report.summary in
        Out.attempt out s.total_ops;
        if s.total_failures > 0 then
          Out.fail out
            (Printf.sprintf "contend %s: %d failed ops" c.label s.total_failures);
        if s.total_ops = 0 then Out.fail out ("contend " ^ c.label ^ ": no ops");
        Hashtbl.add results c.label
          { ops_s = s.throughput_per_s;
            p50_ns = cell_quantile s (fun o -> o.p50_ns);
            p99_ns = cell_quantile s (fun o -> o.p99_ns);
            n = s.total_ops;
            serialized })
      cells
  done;
  (* Each cell's median over the rounds in which the workers really ran
     in parallel; over all rounds if none did. *)
  let med f label =
    let all = Hashtbl.find_all results label in
    let par = List.filter (fun s -> not s.serialized) all in
    Stats.median (Array.of_list (List.map f (if par = [] then all else par)))
  in
  let serialized =
    Hashtbl.fold (fun _ s n -> if s.serialized then n + 1 else n) results 0
  in
  if serialized > 0 then
    Out.say "  %d of %d cell runs had no second CPU and are left out"
      serialized (Hashtbl.length results);
  Out.say "  %-22s %12s %10s %10s %9s" "cell" "ops/s" "p50 us" "p99 us" "samples";
  let rows =
    List.map
      (fun c ->
        let ops = med (fun s -> s.ops_s) c.label in
        let p50 = med (fun s -> float_of_int s.p50_ns /. 1e3) c.label in
        let p99 = med (fun s -> float_of_int s.p99_ns /. 1e3) c.label in
        let n = List.fold_left (fun a s -> a + s.n) 0 (Hashtbl.find_all results c.label) in
        Out.say "  %-22s %12.0f %10.2f %10.2f %9d" c.label ops p50 p99 n;
        Out.layer out ("workload.cell_ops_s." ^ c.label) "ops/s" ops;
        Out.layer out ("workload.cell_p99_us." ^ c.label) "us" p99;
        (ops, p50, p99))
      cells
  in
  let g f = Stats.geomean (List.map f rows) in
  let ops = g (fun (o, _, _) -> o) and p50 = g (fun (_, p, _) -> p) in
  let p99 = g (fun (_, _, p) -> p) in
  Out.say "  geomean: %.0f ops/s, p50 %.2f us, p99 %.2f us; adaptive: %d \
           samples, %d flips; setup %.6f s"
    ops p50 p99 !samples !flips setup_s;
  Out.layer out "workload.ops_s" "ops/s" ops;
  Out.layer out "workload.lat_p50_us" "us" p50;
  Out.layer out "workload.lat_p99_us" "us" p99;
  Out.layer out "adaptive.samples" "count" (float_of_int !samples);
  Out.layer out "adaptive.flips" "count" (float_of_int !flips);
  Out.e2e out "setup_s" "s" setup_s;
  Out.e2e out "throughput_ops_s" "ops/s" ops;
  Out.e2e out "peak_rss_mb" "MB" (Out.self_rss_mb ())
