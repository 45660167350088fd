(* The serve workload: open loop, Poisson arrivals, two connections
   against a spawned bloom_serve daemon — the process-boundary path real
   clients use, where the codec, admission, dispatch and deadlines do
   most of the work. The mix is the repo driver's (Serve_driver's `Mix`:
   put, get, seek, sleep, kv get and kv put drawn uniformly) without the
   timer's sleep, whose latency is the 2 ms virtual tick, not
   synchronization. That leaves queue 2/5, seek 1/5 and kv 2/5; the kv
   share is then split 90% reads, where the driver splits it evenly.

   Latency is timed at a fixed 2000 req/s from each request's scheduled
   send time, so a stall also delays the requests queued behind it. A
   rate ladder then finds the knee. The daemon's admission buckets are
   raised above the top step: at the default 2000 tokens/s per problem
   they, not the daemon's speed, would cap the load. *)

open Sync_serve
module Prng = Sync_platform.Prng

type op = Put | Get | Seek of int | Kget of string | Kput of string * string

let op_label = function
  | Put -> "q_put"
  | Get -> "q_get"
  | Seek _ -> "s_seek"
  | Kget _ -> "k_get"
  | Kput _ -> "k_put"

let connections = 2

let tracks = 256

let keys = 64

let latency_rate = 2000.

let ladder_rates = [ 2000.; 4000.; 8000.; 16000.; 32000. ]

(* Offered far above what two blocking connections can carry, so each
   connection sends its next request as soon as the last reply lands:
   the delivered rate is the daemon's capacity on this path. *)
let saturation_rate = 200_000.

let deadline_ns = 1_000_000_000L

(* One scheduled request. A queue slot becomes a put or a get when it is
   sent: each connection alternates, so it never gets more than it put
   and the queue never runs dry under a blocking get. *)
type planned = { at : int; queue : bool; op : op }

(* The schedule of one connection in one phase, a pure function of the
   seed. Per-connection Poisson streams at half the rate superpose to
   Poisson arrivals at the full rate. *)
let plan ~seed ~conn ~phase ~rate ~window_ns =
  let g =
    Prng.make (Int64.of_int ((seed * 1_000_003) + (phase * 101) + conn))
  in
  let mean_gap = float_of_int connections /. rate *. 1e9 in
  let rec go t i acc =
    let u = Prng.float g 1.0 in
    let t = t +. (-.log (1. -. u) *. mean_gap) in
    if t >= float_of_int window_ns then Array.of_list (List.rev acc)
    else
      let r = Prng.int g 5 in
      let p =
        if r < 2 then { at = int_of_float t; queue = true; op = Put }
        else if r = 2 then
          { at = int_of_float t; queue = false; op = Seek (Prng.int g tracks) }
        else
          let k = Printf.sprintf "k%d" (Prng.int g keys) in
          if Prng.int g 10 = 0 then
            { at = int_of_float t; queue = false;
              op = Kput (k, Printf.sprintf "c%d.%d.%d" conn phase i) }
          else { at = int_of_float t; queue = false; op = Kget k }
      in
      go t (i + 1) (p :: acc)
  in
  go 0. 0 []

(* -- one connection's record of a phase -------------------------------- *)

type outcome = Good | Shed | Missed_deadline | Broken of string

type sent = {
  s_op : op;
  intended : int;
  send : int;
  finish : int;
  slept : bool;  (** the connection was idle and waited for the slot *)
  outcome : outcome;
}

type conn_state = {
  id : int;
  addr : Unix.sockaddr;
  mutable client : Client.t option;
  mutable holding : bool;  (** put more than got, by one *)
  mutable put_seq : int;
  mutable retries : int;
  mutable overloaded : int;
  mutable deadline : int;
  mutable reconnects : int;
  mutable gets : (int * int * int) list;
      (** items got: producer, phase, sequence, in get order *)
  mutable puts : (int * int * int) list;
  mutable kv_reads : (string * string) list;
  mutable kv_writes : (string * string) list;
  mutable bad : string list;
  buf : Spans.buf;
  rng : Prng.t;  (** retry backoff jitter *)
}

let connect c =
  match c.client with
  | Some cl -> cl
  | None -> (
    match Client.connect c.addr with
    | Ok cl ->
      c.client <- Some cl;
      cl
    | Error e -> failwith ("serve: connect: " ^ e))

let drop c =
  Option.iter Client.close c.client;
  c.client <- None;
  c.reconnects <- c.reconnects + 1

let parse_item s =
  match String.split_on_char '.' s with
  | [ a; b; d ] -> (
    match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt d) with
    | Some a, Some b, Some d -> Some (a, b, d)
    | _ -> None)
  | _ -> None

(* Send one request; a shed request is retried after the client's
   jittered backoff but still counts as shed. *)
let exchange c ~phase op =
  let req =
    match op with
    | Put -> Wire.Q_put (Printf.sprintf "%d.%d.%d" c.id phase c.put_seq)
    | Get -> Wire.Q_get
    | Seek t -> Wire.S_seek t
    | Kget k -> Wire.K_get k
    | Kput (k, v) -> Wire.K_put (k, v)
  in
  let rec attempt n shed =
    match Client.request (connect c) ~deadline_ns req with
    | Error e ->
      drop c;
      Broken (Client.error_to_string e)
    | Ok (Wire.Overloaded { retry_after_ms }) ->
      c.overloaded <- c.overloaded + 1;
      if n >= 2 then Shed
      else begin
        c.retries <- c.retries + 1;
        let ms =
          max retry_after_ms
            (Client.backoff_ms ~rng:c.rng ~attempt:n ~base_ms:1 ~cap_ms:20)
        in
        Thread.delay (float_of_int ms /. 1e3);
        attempt (n + 1) true
      end
    | Ok Wire.Deadline_exceeded ->
      c.deadline <- c.deadline + 1;
      Missed_deadline
    | Ok (Wire.Ok v) ->
      if shed then Shed
      else begin
        (match op with
        | Put ->
          c.puts <- (c.id, phase, c.put_seq) :: c.puts;
          c.put_seq <- c.put_seq + 1
        | Get -> (
          match parse_item v with
          | Some it -> c.gets <- it :: c.gets
          | None -> c.bad <- ("queue get returned " ^ v) :: c.bad)
        | Seek _ -> (
          match int_of_string_opt v with
          | Some d when d >= 0 && d < tracks -> ()
          | _ -> c.bad <- ("seek returned " ^ v) :: c.bad)
        | Kget k -> c.kv_reads <- (k, v) :: c.kv_reads
        | Kput (k, v') -> c.kv_writes <- (k, v') :: c.kv_writes);
        Good
      end
    | Ok r ->
      let s =
        match r with
        | Wire.Bad_request m -> "bad request: " ^ m
        | Wire.Shutting_down -> "shutting down"
        | _ -> "unexpected reply"
      in
      c.bad <- s :: c.bad;
      Broken s
  in
  attempt 0 false

let sleep_until t =
  let d = t - Out.now_ns () in
  if d > 0 then Thread.delay (float_of_int d /. 1e9)

(* Send a connection's schedule from [t0]; stop issuing at the end of
   the window, so an overloaded step leaves its backlog unsent. *)
let drive c ~phase ~parent ~t0 ~window_ns plan =
  let sent = ref [] in
  let stop_at = t0 + window_ns in
  let i = ref 0 in
  let n = Array.length plan in
  while !i < n && Out.now_ns () < stop_at do
    let p = plan.(!i) in
    incr i;
    let intended = t0 + p.at in
    let slept = Out.now_ns () < intended in
    sleep_until intended;
    let op =
      if p.queue then begin
        let op = if c.holding then Get else Put in
        c.holding <- not c.holding;
        op
      end
      else p.op
    in
    let send = Out.now_ns () in
    let outcome =
      Spans.with_span c.buf ~parent ~req:((phase * 10_000_000) + (c.id * 1_000_000) + !i)
        ~layer:"client" (op_label op) (fun _ -> exchange c ~phase op)
    in
    sent := { s_op = op; intended; send; finish = Out.now_ns (); slept; outcome }
            :: !sent
  done;
  (* Leave the queue as found: take back an item this connection put. *)
  if c.holding then begin
    c.holding <- false;
    match exchange c ~phase Get with
    | Good -> ()
    | _ -> c.bad <- "queue drain get failed" :: c.bad
  end;
  Array.of_list (List.rev !sent)

(* A digest of a phase's schedules, printed so two runs can be seen to
   have offered the same requests at the same times. *)
let digest plans =
  List.fold_left
    (fun h (_, p) ->
      Array.fold_left (fun h e -> Hashtbl.hash (h, e.at, e.queue, e.op)) h p)
    0 plans

let run_phase conns ~spans ~seed ~phase ~rate ~window_ns =
  let plans =
    List.map (fun c -> (c, plan ~seed ~conn:c.id ~phase ~rate ~window_ns)) conns
  in
  Out.say "  phase %d: %.0f req/s for %.2f s, %d arrivals, schedule digest %08x"
    phase rate (float_of_int window_ns /. 1e9)
    (List.fold_left (fun a (_, p) -> a + Array.length p) 0 plans)
    (digest plans);
  Spans.with_span spans ~layer:"serve_load"
    (Printf.sprintf "phase.%d.%.0f" phase rate) (fun parent ->
      let t0 = Out.now_ns () + 5_000_000 in
      let results = Array.make (List.length conns) [||] in
      let senders =
        List.mapi
          (fun k (c, p) ->
            Thread.create
              (fun () -> results.(k) <- drive c ~phase ~parent ~t0 ~window_ns p)
              ())
          plans
      in
      List.iter Thread.join senders;
      let planned =
        List.fold_left (fun a (_, p) -> a + Array.length p) 0 plans
      in
      (Array.concat (Array.to_list results), planned))

(* -- phase statistics -------------------------------------------------- *)

type phase_stats = {
  n : int;
  ok : int;
  p50_us : float;
  tail_us : float;
  tail_q : float;
  delivered : float;
  growing : bool;
  gen_late_tail_us : float;
}

let phase_stats sent ~window_ns =
  let ok = Array.of_list (List.filter (fun s -> s.outcome = Good) (Array.to_list sent)) in
  let lat = Array.map (fun s -> float_of_int (s.finish - s.intended) /. 1e3) ok in
  let lat = Stats.sorted lat in
  let n = Array.length sent in
  let misses = n - Array.length ok in
  (* p99 once 1000 samples back it, else the highest level that has ten
     samples beyond it. *)
  let q =
    if n >= 1000 then 0.99 else Option.value (Stats.tail_level n) ~default:0.5
  in
  let by_send = Array.copy sent in
  Array.sort (fun a b -> compare a.send b.send) by_send;
  let lateness = Array.map (fun s -> float_of_int (s.send - s.intended)) by_send in
  let gen_late =
    Array.of_list
      (List.filter_map
         (fun s ->
           if s.slept then Some (float_of_int (s.send - s.intended) /. 1e3)
           else None)
         (Array.to_list sent))
  in
  { n; ok = Array.length ok;
    p50_us = Stats.rank_quantile ~misses lat 0.5;
    tail_us = Stats.rank_quantile ~misses lat q;
    tail_q = q;
    delivered = float_of_int (Array.length ok) /. (float_of_int window_ns /. 1e9);
    growing = Stats.backlog_growing lateness;
    gen_late_tail_us =
      (match Stats.tail_level (Array.length gen_late) with
      | Some q -> Stats.quantile gen_late q
      | None -> Stats.median gen_late) }

(* -- daemon ------------------------------------------------------------ *)

(* Not Sync_serve.Proc: its children inherit standard output, and the
   daemon prints its stats there when it drains, which would land in the
   benchmark's own output, whose last line must be the result. *)

type daemon = { pid : int; sock : string }

(* utime + stime of a process, in clock ticks (1/100 s): the 12th and
   13th fields after the parenthesised command name in its stat line. *)
let cpu_ticks pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let from = String.rindex line ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub line from (String.length line - from)))
  in
  int_of_string f.(11) + int_of_string f.(12)

let spawn_count = ref 0

let spawn ~exe ~dir =
  incr spawn_count;
  let sock =
    Filename.concat dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !spawn_count)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--unix"; sock; "--workers"; "4";
         "--bucket-rate"; "1000000"; "--bucket-burst"; "100000" |]
      null null Unix.stderr
  in
  Unix.close null;
  { pid; sock }

let ready d =
  let deadline = Out.now_ns () + 10_000_000_000 in
  let rec poll () =
    let ok =
      match Client.connect (Unix.ADDR_UNIX d.sock) with
      | Error _ -> false
      | Ok cl ->
        let r = Client.request cl ~deadline_ns Wire.Ping in
        Client.close cl;
        (match r with Ok (Wire.Ok _) -> true | _ -> false)
    in
    if ok then true
    else if Out.now_ns () > deadline then false
    else begin
      Thread.delay 0.001;
      poll ()
    end
  in
  poll ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Out.now_ns () + 10_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Out.now_ns () < deadline ->
      Thread.delay 0.005;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  try Sys.remove d.sock with Sys_error _ -> ()

(* -- the bare kernel path ------------------------------------------------ *)

(* The round trip with no daemon code on it, for comparison with the
   unattributed part of the daemon's: one byte to an echo thread of this
   process over a Unix socketpair and back, on [connections] pairs at
   once, Poisson-paced at [rate] like the load. Median, in us. *)
let null_rtt_us ~seed ~rate ~window_ns =
  let t_end = Out.now_ns () + window_ns in
  let mean_gap = float_of_int connections /. rate *. 1e9 in
  let pair k =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let echo =
      Thread.create
        (fun () ->
          let buf = Bytes.create 1 in
          let rec loop () =
            match Unix.read b buf 0 1 with
            | 1 ->
              ignore (Unix.write b buf 0 1);
              loop ()
            | _ | (exception Unix.Unix_error _) -> ()
          in
          loop ())
        ()
    in
    let g = Prng.make (Int64.of_int (seed + 99 + k)) in
    let rtts = ref [] in
    let client =
      Thread.create
        (fun () ->
          let buf = Bytes.create 1 in
          let next = ref (Out.now_ns ()) in
          while !next < t_end do
            next :=
              !next + int_of_float (-.log (1. -. Prng.float g 1.0) *. mean_gap);
            sleep_until !next;
            let t0 = Out.now_ns () in
            ignore (Unix.write a buf 0 1);
            ignore (Unix.read a buf 0 1);
            rtts := (float_of_int (Out.now_ns () - t0) /. 1e3) :: !rtts
          done)
        ()
    in
    (a, b, echo, client, rtts)
  in
  List.init connections pair
  |> List.concat_map (fun (a, b, echo, client, rtts) ->
         Thread.join client;
         Unix.close a;
         Thread.join echo;
         Unix.close b;
         !rtts)
  |> Array.of_list |> Stats.median

(* -- the daemon's layers, called in-process ---------------------------- *)

(* The ladder's rungs for the daemon's layers, timed here beside the
   daemon so the round trip can be split into its parts: median ns per
   request by rung name. *)
let in_process ~(out : Out.t) ~spans ~budget_ns =
  let rungs = Ladder.serve () in
  let share = budget_ns / List.length rungs in
  let costs =
    List.map (fun r -> (r.Ladder.name, Ladder.median_ns ~out ~spans ~budget_ns:share r)) rungs
  in
  List.iter (fun r -> r.Ladder.stop ()) rungs;
  List.iter (fun (n, v) -> Out.say "  in-process %-26s %9.1f ns" n v) costs;
  costs

(* -- checks ------------------------------------------------------------ *)

(* Every item got was put this run and got once, and each consumer sees
   each producer's items in the order they were put. Every kv read
   returns the initial "" or a value some put wrote to that key. *)
let check ~(out : Out.t) conns =
  let put = Hashtbl.create 4096 in
  List.iter (fun c -> List.iter (fun it -> Hashtbl.replace put it ()) c.puts) conns;
  let got = Hashtbl.create 4096 in
  List.iter
    (fun c ->
      let last = Hashtbl.create 4 in
      List.iter
        (fun ((p, ph, i) as it) ->
          if not (Hashtbl.mem put it) then
            Out.fail out (Printf.sprintf "queue get of %d.%d.%d, never put" p ph i);
          if Hashtbl.mem got it then
            Out.fail out (Printf.sprintf "queue item %d.%d.%d got twice" p ph i);
          Hashtbl.replace got it ();
          (match Hashtbl.find_opt last p with
          | Some prev when compare prev (ph, i) >= 0 ->
            Out.fail out
              (Printf.sprintf "connection %d got producer %d's items out of order" c.id p)
          | _ -> ());
          Hashtbl.replace last p (ph, i))
        (List.rev c.gets))
    conns;
  let written = Hashtbl.create 256 in
  List.iter
    (fun c -> List.iter (fun (k, v) -> Hashtbl.add written k v) c.kv_writes)
    conns;
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          if v <> "" && not (List.mem v (Hashtbl.find_all written k)) then
            Out.fail out (Printf.sprintf "kv get %s returned %S, never written" k v))
        c.kv_reads;
      List.iter (fun b -> Out.fail out ("serve: " ^ b)) c.bad)
    conns

(* -- the workload ------------------------------------------------------ *)

let run ~(out : Out.t) ~spans ~seed ~seconds ~exe ~dir =
  let setup_s, d =
    Out.median_setup 3 (fun () ->
        let d = spawn ~exe ~dir in
        if not (ready d) then begin
          stop d;
          failwith "serve: daemon did not come up"
        end;
        (d, fun () -> stop d))
  in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let budget = int_of_float (seconds *. 1e9) in
  let costs = in_process ~out ~spans ~budget_ns:(budget / 20) in
  let conns =
    List.init connections (fun id ->
        { id; addr = Unix.ADDR_UNIX d.sock; client = None; holding = false;
          put_seq = 0; retries = 0; overloaded = 0; deadline = 0;
          reconnects = 0; gets = []; puts = []; kv_reads = []; kv_writes = [];
          bad = []; buf = Spans.buffer (); rng = Prng.make (Int64.of_int (seed + id)) })
  in
  let wire_reqs = ref 0 in
  let count sent =
    Out.attempt out (Array.length sent);
    wire_reqs := !wire_reqs + Array.length sent;
    Array.iter
      (fun s ->
        match s.outcome with
        | Good -> ()
        | Shed -> Out.fail out ("shed " ^ op_label s.s_op)
        | Missed_deadline -> Out.fail out ("deadline exceeded on " ^ op_label s.s_op)
        | Broken m -> Out.fail out (op_label s.s_op ^ ": " ^ m))
      sent
  in
  let phase = ref 0 in
  let go ~rate ~window_ns =
    incr phase;
    let sent, planned =
      run_phase conns ~spans ~seed ~phase:!phase ~rate ~window_ns
    in
    count sent;
    (sent, planned)
  in
  Out.say "serve: %d connections, open loop Poisson, seed %d, mix 40%% queue \
           put/get, 20%% seek, 40%% kv (90%% get)" connections seed;
  ignore (go ~rate:latency_rate ~window_ns:(budget / 40));
  let null_p50 = null_rtt_us ~seed ~rate:latency_rate ~window_ns:(budget / 50) in
  let lat_window = budget * 2 / 5 in
  let cpu0 = cpu_ticks d.pid in
  let sent, planned = go ~rate:latency_rate ~window_ns:lat_window in
  let cpu_us_per_req =
    float_of_int (cpu_ticks d.pid - cpu0) *. 1e4 /. float_of_int (max 1 (Array.length sent))
  in
  let st = phase_stats sent ~window_ns:lat_window in
  Out.say "  latency at %.0f req/s: %d planned, %d sent, p50 %.1f us, %s %.1f us \
           (%d samples), generator late %s %.1f us, daemon CPU %.1f us per \
           request"
    latency_rate planned st.n st.p50_us (Stats.tail_label st.tail_q) st.tail_us
    st.n (Stats.tail_label st.tail_q) st.gen_late_tail_us cpu_us_per_req;
  let step_window = budget / 20 in
  let steps =
    List.map
      (fun rate ->
        let sent, planned = go ~rate ~window_ns:step_window in
        let s = phase_stats sent ~window_ns:step_window in
        let fail_ratio =
          float_of_int (s.n - s.ok) /. float_of_int (max 1 s.n)
        in
        let step =
          { Stats.offered = rate; delivered = s.delivered; tail_us = s.tail_us;
            fail_ratio; growing = s.growing || s.n < planned * 9 / 10 }
        in
        Out.say "  step %6.0f req/s: delivered %8.1f, %s %9.1f us, fail %.4f, \
                 sent %d of %d%s"
          rate s.delivered (Stats.tail_label s.tail_q) s.tail_us fail_ratio s.n
          planned (if step.growing then ", backlog growing" else "");
        step)
      ladder_rates
  in
  let sat_window = budget / 5 in
  let sat_sent, _ = go ~rate:saturation_rate ~window_ns:sat_window in
  let sat = phase_stats sat_sent ~window_ns:sat_window in
  Out.say "  saturation: delivered %.1f req/s" sat.delivered;
  let rss = Out.peak_rss_mb (string_of_int d.pid) in
  check ~out conns;
  let knee =
    match Stats.knee steps with Some s -> s.Stats.offered | None -> 0.
  in
  (* The in-process handle cost of the requests the latency phase
     delivered, averaged over them: a put or a get is half a put+get. *)
  let cost = function
    | Put | Get -> List.assoc "serve.handle_ns.q_put_get" costs /. 2.
    | Seek _ -> List.assoc "serve.handle_ns.s_seek" costs
    | Kget _ -> List.assoc "serve.handle_ns.k_get" costs
    | Kput _ -> List.assoc "serve.handle_ns.k_put" costs
  in
  let good = List.filter (fun s -> s.outcome = Good) (Array.to_list sent) in
  let handle_us =
    List.fold_left (fun a s -> a +. cost s.s_op) 0. good
    /. float_of_int (max 1 (List.length good)) /. 1e3
  in
  let codec = List.assoc "serve.codec_ns" costs in
  let unattributed = st.p50_us -. handle_us -. (codec /. 1e3) in
  Out.say "  round trip p50 %.1f us = handle %.2f us + codec %.2f us + %.1f us \
           socket, dispatch queue and thread hand-offs (a bare socketpair \
           round trip between two threads takes %.1f us)"
    st.p50_us handle_us (codec /. 1e3) unattributed null_p50;
  if unattributed > 0.1 *. st.p50_us then
    Out.say "  unattributed: %.1f us (%.0f%% of the round trip p50) is not \
             covered by any measured layer"
      unattributed (100. *. unattributed /. st.p50_us);
  let sum f = List.fold_left (fun a c -> a + f c) 0 conns in
  let reqs = float_of_int (max 1 !wire_reqs) in
  Out.say "  knee %.0f req/s; daemon peak RSS %.1f MB; setup %.6f s" knee rss
    setup_s;
  Out.layer out "serve.unattributed_us" "us" unattributed;
  Out.layer out "serve.null_rtt_us" "us" null_p50;
  Out.layer out "serve.cpu_us_per_req" "us" cpu_us_per_req;
  Out.layer out "serve.retries_per_req" "ratio" (float_of_int (sum (fun c -> c.retries)) /. reqs);
  Out.layer out "serve.overloaded_per_req" "ratio"
    (float_of_int (sum (fun c -> c.overloaded)) /. reqs);
  Out.layer out "serve.deadline_per_req" "ratio"
    (float_of_int (sum (fun c -> c.deadline)) /. reqs);
  Out.layer out "serve.reconnects" "count" (float_of_int (sum (fun c -> c.reconnects)));
  Out.layer out "serve.max_rate_rps" "req/s" knee;
  Out.layer out "workload.gen_late_p99_us" "us" st.gen_late_tail_us;
  Out.layer out "serve.rtt_p50_us" "us" st.p50_us;
  Out.layer out "serve.rtt_p99_us" "us" st.tail_us;
  Out.layer out "serve.saturation_rps" "req/s" sat.delivered;
  List.iter (fun c -> Option.iter Client.close c.client) conns;
  Out.e2e out "setup_s" "s" setup_s;
  Out.e2e out "throughput_ops_s" "ops/s" sat.delivered;
  Out.e2e out "peak_rss_mb" "MB" rss
