type t = {
  mutable multicore : bool option; (* [None] until first probed *)
  min_wait : int;
  max_wait : int;
  mutable wait : int;
  mutable seed : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_limits ~who ~min_wait ~max_wait =
  if not (is_pow2 min_wait) then
    invalid_arg
      (Printf.sprintf "%s: min_wait %d not a positive power of two" who
         min_wait);
  if not (is_pow2 max_wait) then
    invalid_arg
      (Printf.sprintf "%s: max_wait %d not a positive power of two" who
         max_wait);
  if min_wait > max_wait then
    invalid_arg
      (Printf.sprintf "%s: min_wait %d exceeds max_wait %d" who min_wait
         max_wait)

(* Process-wide default spin bounds, read at {!create} time: changing
   them affects backoffs created after the call, never one already
   spinning. Both bounds live in one atomic so a reader can never
   observe min from one setting and max from another. *)
let default_limits = Atomic.make (16, 4096)

let set_limits ~min_wait ~max_wait =
  check_limits ~who:"Backoff.set_limits" ~min_wait ~max_wait;
  Atomic.set default_limits (min_wait, max_wait)

let limits () = Atomic.get default_limits

let with_limits ~min_wait ~max_wait f =
  check_limits ~who:"Backoff.with_limits" ~min_wait ~max_wait;
  let saved = Atomic.get default_limits in
  Atomic.set default_limits (min_wait, max_wait);
  Fun.protect ~finally:(fun () -> Atomic.set default_limits saved) f

(* Spin-vs-yield is decided per backoff, when the contended loop first
   backs off: tests that pin the process to one core (or scenarios that
   spawn more threads than cores) get a yield-first backoff without a
   process-wide mode flip, and the answer tracks
   [Domain.recommended_domain_count] at the time the loop starts rather
   than at module initialization. The probe costs a few hundred ns, so
   it is not made at [create]: callers build a backoff before their
   first attempt, and an uncontended attempt never backs off. *)
let create ?multicore ?min_wait ?max_wait () =
  let dmin, dmax = Atomic.get default_limits in
  let min_wait = Option.value min_wait ~default:dmin in
  let max_wait = Option.value max_wait ~default:dmax in
  check_limits ~who:"Backoff.create" ~min_wait ~max_wait;
  { multicore; min_wait; max_wait; wait = min_wait; seed = 0x9e3779b9 }

let multicore t =
  match t.multicore with
  | Some b -> b
  | None ->
    let b = Domain.recommended_domain_count () > 1 in
    t.multicore <- Some b;
    b

(* xorshift step; cheap per-thread pseudo-randomization so that threads
   backing off together do not re-collide in lockstep. *)
let next_seed s =
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17)

(* On a single-core machine spinning can never help: the thread we are
   waiting on cannot run until we give up the core. Skip straight to
   yielding there; the exponential spin phase only pays off when the
   peer is live on another core. *)
let once t =
  if not (multicore t) then Thread.yield ()
  else begin
    let spins = t.min_wait + (t.seed land (t.wait - 1)) in
    t.seed <- next_seed t.seed;
    if t.wait >= t.max_wait then Thread.yield ()
    else begin
      for _ = 1 to spins do
        Domain.cpu_relax ()
      done;
      t.wait <- t.wait * 2
    end
  end

let reset t = t.wait <- t.min_wait
