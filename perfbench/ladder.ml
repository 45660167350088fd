(* The ladder workload: single thread, uncontended, one rung per layer
   boundary of the ROADMAP cost ladder — calibration, platform façade
   per tier, queue-lock prims, probes, mechanism enter/exit, problem op.
   The daemon's in-process layers (Service.handle, the wire codec,
   admission) and one closed-loop load-engine run sit on the ladder too,
   so the gated figure moves with them. Each rung is timed in batches
   sized to ~200 us; rounds visit every rung once so slow drift in the
   machine spreads over all rungs alike, and a rung reports the median
   per-op time over its batches. *)

open Sync_platform
module Probe = Sync_trace.Probe
module Ql = Sync_prims.Queuelock

type rung = {
  name : string;  (** metric name, ns per iteration *)
  layer : string;
  body : int -> unit;  (** run [n] iterations *)
  timed : (unit -> float * int) option;
      (** a rung that times itself: ns per op and ops done, in place of
          timing [body] *)
  check : unit -> string option;  (** resource state after a batch *)
  stop : unit -> unit;
}

let rung ?(stop = ignore) ?(check = fun () -> None) ~layer name body =
  { name; layer; body; timed = None; check; stop }

(* A counter the body bumps once per iteration: the check that the
   region really ran as often as it was entered. *)
let counted ~layer name enter =
  let c = ref 0 and expect = ref 0 in
  rung ~layer name
    (fun n ->
      expect := !expect + n;
      for _ = 1 to n do
        enter c
      done)
    ~check:(fun () ->
      if !c = !expect then None
      else Some (Printf.sprintf "%s: %d of %d iterations ran" name !c !expect))

let mutex_pair ~layer name m =
  counted ~layer name (fun c ->
      Mutex.lock m;
      incr c;
      Mutex.unlock m)

(* -- rungs ----------------------------------------------------------- *)

let calib () =
  let sm = Stdlib.Mutex.create () in
  let cas = Atomic.make 0 and casn = ref 0 in
  let last = ref 0L and backwards = ref false in
  [ counted ~layer:"calib" "calib.stdlib_mutex_ns" (fun c ->
        Stdlib.Mutex.lock sm;
        incr c;
        Stdlib.Mutex.unlock sm);
    rung ~layer:"calib" "calib.atomic_cas_ns"
      (fun n ->
        for _ = 1 to n do
          if Atomic.compare_and_set cas !casn (!casn + 1) then incr casn
        done)
      ~check:(fun () ->
        if Atomic.get cas = !casn then None else Some "atomic cas lost")
    ;
    rung ~layer:"calib" "calib.clock_now_ns"
      (fun n ->
        for _ = 1 to n do
          let t = Clock.now_ns () in
          if Int64.compare t !last < 0 then backwards := true;
          last := t
        done)
      ~check:(fun () -> if !backwards then Some "clock went backwards" else None)
  ]

let platform () =
  let sem_pv name s =
    rung ~layer:"platform" name
      (fun n ->
        for _ = 1 to n do
          Semaphore.Counting.p s;
          Semaphore.Counting.v s
        done)
      ~check:(fun () ->
        if Semaphore.Counting.value s = 1 then None
        else Some (name ^ ": semaphore value drifted"))
  in
  let timed_out name r () =
    if !r = 0 then None
    else Some (Printf.sprintf "%s: %d timed acquires failed" name !r)
  in
  let m_try = Mutex.create () in
  let try_miss = ref 0 in
  let s_for = Semaphore.Counting.create 1 in
  let acq_miss = ref 0 in
  let cond = Condition.create () in
  [ mutex_pair ~layer:"platform" "platform.mutex_sys_ns" (Mutex.create ());
    mutex_pair ~layer:"platform" "platform.mutex_fast_ns"
      (Fastpath.with_enabled (fun () -> Mutex.create ()));
    mutex_pair ~layer:"platform" "platform.mutex_swap_ns"
      (Mutex.with_swappable (fun () -> Mutex.create ()));
    sem_pv "platform.sem_strong_pv_ns"
      (Semaphore.Counting.create ~fairness:`Strong 1);
    sem_pv "platform.sem_weak_pv_ns"
      (Semaphore.Counting.create ~fairness:`Weak 1);
    sem_pv "platform.sem_weak_pv_fast_ns"
      (Fastpath.with_enabled (fun () ->
           Semaphore.Counting.create ~fairness:`Weak 1));
    rung ~layer:"platform" "platform.mutex_try_lock_for_ns"
      (fun n ->
        for _ = 1 to n do
          if Mutex.try_lock_for m_try ~timeout_ns:1_000_000L then
            Mutex.unlock m_try
          else incr try_miss
        done)
      ~check:(timed_out "try_lock_for" try_miss);
    rung ~layer:"platform" "platform.sem_acquire_for_ns"
      (fun n ->
        for _ = 1 to n do
          if Semaphore.Counting.acquire_for s_for ~timeout_ns:1_000_000L then
            Semaphore.Counting.v s_for
          else incr acq_miss
        done)
      ~check:(timed_out "acquire_for" acq_miss);
    rung ~layer:"platform" "platform.cond_signal_empty_ns" (fun n ->
        for _ = 1 to n do
          Condition.signal cond
        done) ]

let prims () =
  List.map
    (fun k ->
      let l = Ql.make_lock k in
      counted ~layer:"prims"
        (Printf.sprintf "prims.mutex_%s_ns" (Ql.kind_name k))
        (fun c ->
          l.Ql.qk_lock ();
          incr c;
          l.Ql.qk_unlock ()))
    Ql.all

(* Probe rungs run with the program's own tracing switched on. *)
let trace () =
  let m = Mutex.create ~name:"perfbench" () in
  let sink = ref 0 in
  [ mutex_pair ~layer:"trace" "trace.mutex_probe_on_ns" m;
    rung ~layer:"trace" "trace.probe_span_ns" (fun n ->
        let t0 = max 1 (Probe.now ()) in
        for _ = 1 to n do
          Probe.span Probe.Op ~site:"perfbench" ~since:t0 ~arg:0
        done);
    rung ~layer:"trace" "trace.probe_now_ns"
      (fun n ->
        for _ = 1 to n do
          sink := !sink lor Probe.now ()
        done)
      ~check:(fun () ->
        if !sink = 0 then Some "probe clock read 0 with tracing on" else None)
  ]

let mechanism () =
  let open Sync_monitor in
  let mon d =
    let m = Monitor.create ~discipline:d () in
    fun c ->
      Monitor.enter m;
      incr c;
      Monitor.exit m
  in
  let ser = Sync_serializer.Serializer.create () in
  let path engine =
    let p = Sync_pathexpr.Pathexpr.of_string ~engine "path op end" in
    fun c -> Sync_pathexpr.Pathexpr.run p "op" (fun () -> incr c)
  in
  let v = Sync_ccr.Ccr.create (ref 0) in
  let ec = Eventcount.Eventcount.create () in
  let sq = Eventcount.Sequencer.create () in
  [ counted ~layer:"mechanism" "mechanism.monitor_hoare_ns" (mon `Hoare);
    counted ~layer:"mechanism" "mechanism.monitor_mesa_ns" (mon `Mesa);
    counted ~layer:"mechanism" "mechanism.serializer_ns" (fun c ->
        Sync_serializer.Serializer.with_serializer ser (fun () -> incr c));
    counted ~layer:"mechanism" "mechanism.pathexpr_gate_ns" (path `Gate);
    counted ~layer:"mechanism" "mechanism.pathexpr_sem_ns" (path `Semaphore);
    counted ~layer:"mechanism" "mechanism.ccr_ns" (fun c ->
        Sync_ccr.Ccr.region v (fun r ->
            incr r;
            incr c));
    counted ~layer:"mechanism" "mechanism.eventcount_ns" (fun c ->
        let t = Eventcount.Sequencer.ticket sq in
        Eventcount.Eventcount.await ec t;
        incr c;
        Eventcount.Eventcount.advance ec) ]

(* -- problem ops ----------------------------------------------------- *)

open Sync_problems

let bb_mechs : (string * (module Bb_intf.S)) list =
  [ ("semaphore", (module Bb_sem)); ("monitor", (module Bb_mon));
    ("serializer", (module Bb_ser)); ("pathexpr", (module Bb_path));
    ("csp", (module Bb_csp)); ("ccr", (module Bb_ccr)) ]

let rw_mechs : (string * (module Rw_intf.S)) list =
  [ ("semaphore", (module Rw_sem.Readers_prio_baton));
    ("monitor", (module Rw_mon.Readers_prio));
    ("serializer", (module Rw_ser.Readers_prio));
    ("pathexpr", (module Rw_path.Fig1)); ("csp", (module Rw_csp.Readers_prio));
    ("ccr", (module Rw_ccr.Readers_prio)) ]

let capacity = 8

(* One put then one get on an empty buffer: the get must return the
   item just put, and the buffer must be empty after every batch. *)
let bb_pair ~fastring ~tier (mech, (module B : Bb_intf.S)) =
  let put, get, occupancy =
    if fastring then
      let r = Sync_resources.Fastring.create ~work:0 capacity in
      ( (fun ~pid:_ v -> Sync_resources.Fastring.put r v),
        (fun ~pid:_ -> Sync_resources.Fastring.get r),
        fun () -> Sync_resources.Fastring.occupancy r )
    else
      let r = Sync_resources.Ring.create ~work:0 capacity in
      ( (fun ~pid:_ v -> Sync_resources.Ring.put r v),
        (fun ~pid:_ -> Sync_resources.Ring.get r),
        fun () -> Sync_resources.Ring.occupancy r )
  in
  let t = B.create ~capacity ~put ~get in
  let name = Printf.sprintf "problems.bb_pair_ns.%s.%s" mech tier in
  let wrong = ref 0 in
  rung ~layer:"problems" name
    (fun n ->
      for i = 1 to n do
        B.put t ~pid:0 i;
        if B.get t ~pid:0 <> i then incr wrong
      done)
    ~check:(fun () ->
      if !wrong > 0 then Some (Printf.sprintf "%s: %d gets out of order" name !wrong)
      else if occupancy () <> 0 then Some (name ^ ": buffer not empty")
      else None)
    ~stop:(fun () -> B.stop t)

(* A read with no writer: it must see the store's current version. *)
let rw_read (mech, (module R : Rw_intf.S)) =
  let store = Sync_resources.Store.create ~work:0 () in
  let t =
    R.create
      ~read:(fun ~pid:_ -> Sync_resources.Store.read store)
      ~write:(fun ~pid:_ -> Sync_resources.Store.write store)
  in
  let name = "problems.rw_read_ns." ^ mech in
  let wrong = ref 0 and reads = ref 0 in
  let base = Sync_resources.Store.reads store in
  rung ~layer:"problems" name
    (fun n ->
      reads := !reads + n;
      for _ = 1 to n do
        if R.read t ~pid:0 <> Sync_resources.Store.version store then incr wrong
      done)
    ~check:(fun () ->
      if !wrong > 0 then Some (name ^ ": read a stale version")
      else if Sync_resources.Store.reads store - base <> !reads then
        Some (name ^ ": store read count drifted")
      else None)
    ~stop:(fun () -> R.stop t)

let mech_of name l = (name, List.assoc name l)

let resources () =
  let pair name put get occ =
    let wrong = ref 0 in
    rung ~layer:"resources" name
      (fun n ->
        for i = 1 to n do
          put i;
          if get () <> i then incr wrong
        done)
      ~check:(fun () ->
        if !wrong > 0 || occ () <> 0 then Some (name ^ ": ring state wrong")
        else None)
  in
  let r = Sync_resources.Ring.create ~work:0 capacity in
  let f = Sync_resources.Fastring.create ~work:0 capacity in
  [ pair "resources.ring_pair_ns" (Sync_resources.Ring.put r)
      (fun () -> Sync_resources.Ring.get r)
      (fun () -> Sync_resources.Ring.occupancy r);
    pair "resources.fastring_pair_ns" (Sync_resources.Fastring.put f)
      (fun () -> Sync_resources.Fastring.get f)
      (fun () -> Sync_resources.Fastring.occupancy f) ]

(* One closed-loop Loadgen run of one worker on a fresh bounded-buffer
   monitor Target, 10 ms steady after 20 ms warmup: the engine's per-op
   cost together with the target's. The worker is a domain of its own,
   so the coordinator's window timer is never held off by it. A run
   whose worker did not get a CPU until the window had closed did no
   ops and measured nothing; it is run again, at most twice, and the
   runs that did no ops are printed. *)
let loadgen () =
  let name = "workload.loadgen_op_ns" in
  let failed = ref 0 and empty = ref 0 in
  let cfg =
    { Sync_workload.Loadgen.workers = 1; backend = `Domain; duration_ms = 10;
      warmup_ms = 20; mode = Sync_workload.Loadgen.Closed; seed = 0;
      think_us = 0 }
  in
  let once () =
    match
      Sync_workload.Target.create ~problem:"bounded-buffer" ~mechanism:"monitor" ()
    with
    | Error e -> failwith (name ^ ": " ^ e)
    | Ok inst -> (Sync_workload.Loadgen.run inst cfg).Sync_workload.Report.summary
  in
  let rec run tries =
    let s = once () in
    failed := !failed + s.total_failures;
    if s.total_ops > 0 then (1e9 /. s.throughput_per_s, s.total_ops)
    else begin
      Out.say "  %s: a run did no ops (worker started after the window)" name;
      if tries > 1 then run (tries - 1)
      else begin
        incr empty;
        (nan, 1)
      end
    end
  in
  let check () =
    let f = !failed and e = !empty in
    failed := 0;
    empty := 0;
    if f > 0 then Some (Printf.sprintf "%s: %d failed ops" name f)
    else if e > 0 then Some (name ^ ": three runs in a row did no ops")
    else None
  in
  { (rung ~layer:"workload" name ignore) with timed = Some (fun () -> run 3); check }

(* The load engine's own per-op cost: two clock reads and one record. *)
let workload () =
  let h = Sync_metrics.Histogram.create () and n_rec = ref 0 in
  [ rung ~layer:"workload" "workload.record_ns"
      (fun n ->
        n_rec := !n_rec + n;
        for _ = 1 to n do
          let t0 = Clock.now_ns () in
          let t1 = Clock.now_ns () in
          Sync_metrics.Histogram.record h (Int64.to_int (Int64.sub t1 t0))
        done)
      ~check:(fun () ->
        if Sync_metrics.Histogram.count h = !n_rec then None
        else Some "histogram lost records");
    loadgen () ]

(* The daemon's layers called in-process, one request per iteration: the
   Service.handle of each served op (queue put+get, seek, kv get and
   put), a request and a reply through the wire codec, and one
   admission-bucket take. Every reply is checked. *)
let serve () =
  let open Sync_serve in
  let svc = Service.create () in
  let tracks = Service.default_config.tracks in
  let keys = Array.init 64 (Printf.sprintf "k%d") in
  let items = Array.init 64 string_of_int in
  let wrong = ref [] and head = ref (-1) in
  let bad what = if List.length !wrong < 5 then wrong := what :: !wrong in
  let reply what = function
    | Wire.Ok v -> v
    | _ ->
      bad (what ^ " did not reply Ok");
      ""
  in
  let deadline () = Int64.add (Clock.now_ns ()) 1_000_000_000L in
  let check name () =
    match !wrong with
    | [] when Service.queue_length svc = 0 -> None
    | [] -> Some (name ^ ": queue not empty")
    | w -> Some (name ^ ": " ^ String.concat "; " w)
  in
  let handle op body =
    let name = "serve.handle_ns." ^ op in
    rung ~layer:"serve" name
      (fun n ->
        let d = deadline () in
        for i = 1 to n do
          body d i
        done)
      ~check:(check name)
      ~stop:(fun () -> Service.stop svc)
  in
  let h d req = Service.handle svc ~deadline_end_ns:d req in
  let reqs =
    [| Wire.Q_put "0.1.2"; Wire.Q_get; Wire.S_seek 17; Wire.K_get "k3";
       Wire.K_put ("k3", "0.1.2") |]
  in
  let deadline_ns = 1_000_000_000L in
  let bucket = Bucket.create ~rate_per_s:1e9 ~burst:1_000_000_000 in
  [ handle "q_put_get" (fun d i ->
        let it = items.(i land 63) in
        ignore (reply "q_put" (h d (Wire.Q_put it)));
        if reply "q_get" (h d Wire.Q_get) <> it then bad "queue lost FIFO order");
    (* A seek replies with the distance the head moved. *)
    handle "s_seek" (fun d i ->
        let track = i * 97 mod tracks in
        let dist = int_of_string_opt (reply "s_seek" (h d (Wire.S_seek track))) in
        if !head >= 0 && dist <> Some (abs (track - !head)) then
          bad "seek moved the head the wrong distance";
        head := track);
    handle "k_get" (fun d i ->
        match reply "k_get" (h d (Wire.K_get keys.(i land 63))) with
        | "" | "v" -> ()
        | v -> bad ("kv get returned " ^ v));
    handle "k_put" (fun d i -> ignore (reply "k_put" (h d (Wire.K_put (keys.(i land 63), "v")))));
    rung ~layer:"serve" "serve.codec_ns"
      (fun n ->
        for i = 1 to n do
          let r = reqs.(i mod Array.length reqs) in
          (match Wire.decode_request (Wire.encode_request ~deadline_ns r) with
          | Ok (_, r') when r' = r -> ()
          | _ -> bad "codec request round trip");
          match Wire.decode_reply (Wire.encode_reply (Wire.Ok "0.1.2")) with
          | Ok (Wire.Ok "0.1.2") -> ()
          | _ -> bad "codec reply round trip"
        done)
      ~check:(check "serve.codec_ns");
    rung ~layer:"serve" "serve.bucket_take_ns"
      (fun n ->
        for _ = 1 to n do
          if not (Bucket.try_take bucket) then bad "bucket refused"
        done)
      ~check:(check "serve.bucket_take_ns") ]

(* Rungs grouped by what must be switched on while they run. *)
type phase = {
  label : string;
  rungs : rung list;
  probes : bool;
  controller : bool;
}

let problem_rungs () =
  let default =
    List.map (bb_pair ~fastring:false ~tier:"default") bb_mechs
    @ List.map rw_read rw_mechs
  in
  let pick = [ mech_of "monitor" bb_mechs; mech_of "semaphore" bb_mechs ] in
  let fast =
    Fastpath.with_enabled (fun () ->
        List.map (bb_pair ~fastring:true ~tier:"fast") pick)
  in
  let queue =
    List.concat_map
      (fun k ->
        Ql.with_kind k (fun () ->
            List.map (bb_pair ~fastring:false ~tier:(Ql.kind_name k)) pick))
      Ql.all
  in
  (default, fast, queue, pick)

let stop_all phases =
  List.iter (fun p -> List.iter (fun r -> r.stop ()) p.rungs) phases

(* Iterations per batch: double from 16 until one batch takes 200 us.
   A self-timed rung runs once per batch. Sizing also warms the rung. *)
let calibrate r =
  let rec go n =
    let t0 = Out.now_ns () in
    r.body n;
    let dt = Out.now_ns () - t0 in
    if dt >= 200_000 || n >= 1 lsl 22 then n else go (2 * n)
  in
  match r.timed with
  | Some f ->
    ignore (f ());
    (r, 1)
  | None -> (r, go 16)

(* ns per op over one batch of [n], and the ops it did. *)
let measure r n =
  match r.timed with
  | Some f -> f ()
  | None ->
    let t0 = Out.now_ns () in
    r.body n;
    (float_of_int (Out.now_ns () - t0) /. float_of_int n, n)

(* Set-up: build every rung. The adaptive pair is built last, in one
   swappable scope, because each scope resets the site registry the
   controller enumerates. *)
let build () =
  let default, fast, queue, pick = problem_rungs () in
  let plain =
    calib () @ platform () @ prims () @ mechanism () @ default @ fast @ queue
    @ serve () @ resources () @ workload ()
  in
  let probes = trace () in
  let adaptive =
    Mutex.with_swappable (fun () ->
        List.map (bb_pair ~fastring:false ~tier:"adaptive") pick)
  in
  let phases =
    [ { label = "plain"; rungs = plain; probes = false; controller = false };
      { label = "probes"; rungs = probes; probes = true; controller = false };
      { label = "adaptive"; rungs = adaptive; probes = true; controller = true } ]
  in
  (phases, fun () -> stop_all phases)

(* Median ns per op of [r] over batches sized as on the ladder, for
   [budget_ns]; every batch is checked. *)
let median_ns ~(out : Out.t) ~spans ~budget_ns r =
  let _, n = calibrate r in
  let t_end = Out.now_ns () + budget_ns in
  let xs = ref [] in
  while !xs = [] || Out.now_ns () < t_end do
    let per, ops = Spans.with_span spans ~layer:r.layer r.name (fun _ -> measure r n) in
    xs := per :: !xs;
    Out.attempt out ops;
    Option.iter (Out.fail out) (r.check ())
  done;
  Stats.median (Array.of_list !xs)

let op_groups =
  [ ("default", fun n -> String.ends_with ~suffix:".default" n
                         || String.starts_with ~prefix:"problems.rw_read_ns." n);
    ("fast", String.ends_with ~suffix:".fast");
    ("queue", fun n ->
        List.exists (fun k -> String.ends_with ~suffix:("." ^ Ql.kind_name k) n)
          Ql.all);
    ("adaptive", String.ends_with ~suffix:".adaptive") ]

(* The rungs the gated figure is the geomean of: every problem op, the
   daemon's in-process layers and the load engine's per-op costs. *)
let gated r = List.mem r.layer [ "problems"; "serve"; "workload" ]

let run ~(out : Out.t) ~spans ~seconds =
  (* Only the construction is timed; batch sizing comes after. *)
  let setup_s, phases = Out.median_setup 25 build in
  let sized = List.map (fun p -> (p, List.map calibrate p.rungs)) phases in
  let total_rungs =
    List.fold_left (fun n p -> n + List.length p.rungs) 0 phases
  in
  (* Per rung, raw and reference-speed ns per op of every batch, kept in
     unboxed arrays so the samples barely move the peak RSS. *)
  let samples = Hashtbl.create 64 and scaled = Hashtbl.create 64 in
  let push tbl name x =
    let a, n =
      match Hashtbl.find_opt tbl name with Some v -> v | None -> ([||], 0)
    in
    let a =
      if n < Array.length a then a
      else Array.append a (Array.make (max 64 n) 0.)
    in
    a.(n) <- x;
    Hashtbl.replace tbl name (a, n + 1)
  in
  let values tbl name =
    let a, n = Hashtbl.find tbl name in
    Array.sub a 0 n
  in
  let t_start = Out.now_ns () in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let spent = ref 0 in
  let peak_mb = ref nan in
  List.iter
    (fun (p, rungs) ->
      (* The controller's reads of the probe rings allocate in bursts
         whose peak depends on when the collector runs, so the peak RSS
         is read before the controller starts. *)
      if p.controller then peak_mb := Out.self_rss_mb ();
      let share = budget_ns * List.length p.rungs / total_rungs in
      let phase_end = t_start + !spent + share in
      spent := !spent + share;
      if p.probes then Probe.enable ();
      let ctrl =
        if p.controller then Some (Sync_adaptive.Controller.start ()) else None
      in
      Spans.with_span spans ~layer:"ladder" ("phase." ^ p.label) (fun parent ->
          let rounds = ref 0 in
          while !rounds < 3 || Out.now_ns () < phase_end do
            incr rounds;
            List.iter
              (fun (r, n) ->
                let c = Out.calib_batch 2000 in
                let per, ops =
                  Spans.with_span spans ~parent ~layer:r.layer r.name (fun _ ->
                      measure r n)
                in
                push samples r.name per;
                push scaled r.name (per *. Out.speed c);
                Out.attempt out ops;
                Option.iter (Out.fail out) (r.check ()))
              rungs
          done);
      Option.iter Sync_adaptive.Controller.stop ctrl;
      if p.probes then begin
        Probe.disable ();
        Probe.reset ()
      end)
    sized;
  stop_all phases;
  let rungs = List.concat_map (fun p -> p.rungs) phases in
  let med name = Stats.median (values samples name) in
  let calib = med "calib.stdlib_mutex_ns" in
  Out.say "ladder: %d rungs, median ns per op (ratio to Stdlib.Mutex pair)"
    (List.length rungs);
  List.iter
    (fun r ->
      let xs = values samples r.name in
      let m = Stats.median xs in
      Out.say "  %-44s %9.1f ns  x%6.2f  (%d batches)" r.name m (m /. calib)
        (Array.length xs);
      Out.layer out r.name "ns" m)
    rungs;
  let problem = List.filter (fun r -> r.layer = "problems") rungs in
  List.iter
    (fun (g, pred) ->
      let xs = List.filter (fun r -> pred r.name) problem in
      let v = Stats.geomean (List.map (fun r -> med r.name) xs) in
      Out.say "  op_ns.%-10s %9.1f ns  (geomean of %d rungs)" g v
        (List.length xs);
      Out.layer out ("op_ns." ^ g) "ns" v)
    op_groups;
  let med_scaled name = Stats.median (values scaled name) in
  let gated = List.filter gated rungs in
  let raw = Stats.geomean (List.map (fun r -> med r.name) gated) in
  let scaled = Stats.geomean (List.map (fun r -> med_scaled r.name) gated) in
  Out.say "  gated op (geomean of %d problem, serve and workload rungs): %.3f us \
           (%.3f us at reference speed), setup %.6f s"
    (List.length gated) (raw /. 1e3) (scaled /. 1e3) setup_s;
  Out.say "  peak RSS %.1f MB before the adaptive phase, %.1f MB after it"
    !peak_mb (Out.self_rss_mb ());
  Out.e2e out "setup_s" "s" setup_s;
  Out.e2e out "throughput_ops_s" "ops/s" (1e9 /. scaled);
  Out.e2e out "peak_rss_mb" "MB" !peak_mb
