(* What a workload hands back, and the helpers every workload prints
   and measures with. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable e2e : metric list;
  mutable layer : metric list;
  mutable attempted : int;
  mutable failed : int;
  mutable printed_failures : int;
}

let create () =
  { e2e = []; layer = []; attempted = 0; failed = 0; printed_failures = 0 }

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let e2e r name unit_ value = r.e2e <- { name; value; unit_ } :: r.e2e

let layer r name unit_ value = r.layer <- { name; value; unit_ } :: r.layer

let attempt r n = r.attempted <- r.attempted + n

(* One failed check. The first few are printed; all are counted. *)
let fail r msg =
  r.failed <- r.failed + 1;
  if r.printed_failures < 20 then begin
    r.printed_failures <- r.printed_failures + 1;
    say "  FAILED: %s" msg
  end

let merge_counts ~into r =
  into.attempted <- into.attempted + r.attempted;
  into.failed <- into.failed + r.failed

let now_ns () = Int64.to_int (Sync_platform.Clock.now_ns ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* CPU seconds this process has used, user and system. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let self_rss_mb () = peak_rss_mb "self"

(* -- speed normalization --------------------------------------------- *)

(* The machine under the benchmark changes speed by tens of percent over
   seconds (shared cores), and each vCPU drifts on its own. End-to-end
   times are therefore scaled by a calibration timed on the same thread
   right beside them: the cost of an uncontended Stdlib.Mutex
   lock/unlock pair, which no change to this repository can move. A
   scaled time reads as the time on a machine where that pair costs
   [ref_calib_ns]. *)
let ref_calib_ns = 25.

(* One mutex per domain, so two domains calibrating at once never
   contend. *)
let calib_mutex = Domain.DLS.new_key Stdlib.Mutex.create

(* ns per Stdlib.Mutex pair over one batch of [n] pairs (~25 ns each). *)
let calib_batch n =
  let m = Domain.DLS.get calib_mutex in
  let t0 = now_ns () in
  for _ = 1 to n do
    Stdlib.Mutex.lock m;
    Stdlib.Mutex.unlock m
  done;
  float_of_int (now_ns () - t0) /. float_of_int n

(* A steadier reading for spans of seconds: the median of 15 batches. *)
let calib_ns () = Stats.median (Array.init 15 (fun _ -> calib_batch 4000))

(* Scale factor for a time measured while the calibration read [c]. *)
let speed c = ref_calib_ns /. c

(* Median of [k] timings of [f ()] at reference speed. [f] returns a
   value and its release; every value but the last is released before
   the next call. *)
let median_setup k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    Option.iter (fun (_, release) -> release ()) !last;
    let c = calib_batch 4000 in
    let t0 = now_ns () in
    last := Some (f ());
    times := (secs_since t0 *. speed c) :: !times
  done;
  match !last with
  | Some (v, _) -> (Stats.median (Array.of_list !times), v)
  | None -> invalid_arg "median_setup"

(* Wall time for two domains to do the same fixed work at once, over the
   time one takes alone: near 1 when the process has a CPU for each,
   near 2 when the machine makes them take turns on one. *)
let parallel_ratio () =
  let work () = ignore (calib_batch 200_000) in
  let t0 = now_ns () in
  work ();
  let one = now_ns () - t0 in
  let t1 = now_ns () in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  float_of_int (now_ns () - t1) /. float_of_int one
