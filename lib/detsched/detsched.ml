(* Deterministic-schedule exploration over the [Detrt] runtime: recorded
   schedules, replay, seeded random walk, PCT-style priority fuzzing,
   bounded exhaustive DFS, and greedy shrinking. A scenario instantiates
   the real mechanism implementation inside the run body (so every mutex
   and condition it creates dispatches to the virtual runtime) and checks
   its recorded trace afterwards with the existing checkers. *)

open Sync_platform

module Schedule = struct
  type entry = { alts : int; chosen : int }

  type t = entry array

  let length = Array.length

  let choices t = Array.map (fun e -> e.chosen) t

  let to_string t =
    if Array.length t = 0 then "-"
    else
      String.concat ","
        (Array.to_list
           (Array.map (fun e -> Printf.sprintf "%d/%d" e.chosen e.alts) t))

  let of_string s =
    let s = String.trim s in
    if s = "" || s = "-" then [||]
    else
      String.split_on_char ',' s
      |> List.map (fun tok ->
             let bad () =
               invalid_arg
                 ("Schedule.of_string: bad token \"" ^ String.trim tok ^ "\"")
             in
             match String.split_on_char '/' (String.trim tok) with
             | [ c; a ] -> (
               match (int_of_string_opt c, int_of_string_opt a) with
               | Some chosen, Some alts when chosen >= 0 && alts > chosen ->
                 { chosen; alts }
               | _ -> bad ())
             | _ -> bad ())
      |> Array.of_list
end

type outcome = {
  schedule : Schedule.t;
  steps : int;
  result : (unit, exn) result;
}

type instance = {
  body : unit -> unit;
  check : unit -> (unit, string) result;
}

type t = { name : string; descr : string; make : unit -> instance }

let scenario ~name ~descr make = { name; descr; make }

type verdict = { outcome : outcome; verdict : (unit, string) result }

let verdict_ok v = Result.is_ok v.verdict

let verdict_message v = match v.verdict with Ok () -> "ok" | Error m -> m

(* ------------------------------------------------------------------ *)
(* Pickers: every strategy is just a function from the candidate array
   to the index to run. [Detrt] only consults it when at least two
   alternatives exist, so recorded schedules contain no forced moves.   *)

type pick = int array -> int

let random_pick ~seed : pick =
  let g = Prng.make (Int64.of_int seed) in
  fun alts -> Prng.int g (Array.length alts)

(* PCT-style fuzzing [Burckhardt et al., ASPLOS'10]: each task gets a
   random priority on first sight; the highest-priority candidate runs.
   At [change_points] pre-sampled decision indices the current leader is
   demoted below everything, forcing the rare orderings that a uniform
   random walk visits with vanishing probability. *)
let pct_pick ?(change_points = 3) ?(horizon = 512) ~seed () : pick =
  let g = Prng.make (Int64.of_int seed) in
  let prio : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let change_at =
    let a = Array.init change_points (fun _ -> Prng.int g (max 1 horizon)) in
    Array.sort compare a;
    a
  in
  let next_change = ref 0 in
  let step = ref 0 in
  let p tid = Option.value (Hashtbl.find_opt prio tid) ~default:0 in
  let argmax alts =
    let best = ref 0 in
    Array.iteri (fun i tid -> if p tid > p alts.(!best) then best := i) alts;
    !best
  in
  fun alts ->
    Array.iter
      (fun tid ->
        if not (Hashtbl.mem prio tid) then
          Hashtbl.add prio tid (change_points + 1 + Prng.int g 1_000_000))
      alts;
    while !next_change < change_points && change_at.(!next_change) <= !step do
      let leader = alts.(argmax alts) in
      Hashtbl.replace prio leader (change_points - !next_change);
      incr next_change
    done;
    incr step;
    argmax alts

(* Byte-for-byte replay of a recorded schedule. Decisions beyond the end
   default to alternative 0; a mismatch in the number of alternatives
   means the scenario is not deterministic (or the schedule belongs to a
   different scenario) and fails loudly under [strict]. *)
let replay_pick ?(strict = true) (sched : Schedule.t) : pick =
  let i = ref 0 in
  fun alts ->
    let n = Array.length alts in
    let k = !i in
    incr i;
    if k >= Array.length sched then 0
    else begin
      let e = sched.(k) in
      if e.Schedule.alts <> n && strict then
        failwith
          (Printf.sprintf
             "Detsched.replay: schedule diverged at decision %d (recorded %d \
              alternatives, run offers %d)"
             k e.Schedule.alts n);
      if e.Schedule.chosen >= n then n - 1 else e.Schedule.chosen
    end

(* Replay from bare choice values (used by DFS prefixes and shrinking):
   like [replay_pick ~strict:false] but without recorded alternative
   counts. *)
let choices_pick (cs : int array) : pick =
  let i = ref 0 in
  fun alts ->
    let n = Array.length alts in
    let k = !i in
    incr i;
    if k >= Array.length cs then 0
    else if cs.(k) >= n then n - 1
    else cs.(k)

(* ------------------------------------------------------------------ *)
(* Running                                                              *)

let run_raw ?max_steps ?observe ~(pick : pick) body : outcome =
  let rev = ref [] in
  let count = ref 0 in
  let choose alts =
    let i = pick alts in
    rev := { Schedule.alts = Array.length alts; chosen = i } :: !rev;
    incr count;
    i
  in
  let sched () = Array.of_list (List.rev !rev) in
  match Detrt.run ?max_steps ?observe ~choose body with
  | steps -> { schedule = sched (); steps; result = Ok () }
  | exception e -> { schedule = sched (); steps = !count; result = Error e }

let run ?max_steps ?observe ~pick sc : verdict =
  let inst = ref None in
  let body () =
    let i = sc.make () in
    inst := Some i;
    i.body ()
  in
  let outcome = run_raw ?max_steps ?observe ~pick body in
  let verdict =
    match outcome.result with
    | Error e -> Error (Printexc.to_string e)
    | Ok () -> (
      match !inst with
      | Some i -> i.check ()
      | None -> Error "scenario instance was never created")
  in
  { outcome; verdict }

let run_random ?max_steps ~seed sc = run ?max_steps ~pick:(random_pick ~seed) sc

let run_pct ?max_steps ?change_points ?horizon ~seed sc =
  run ?max_steps ~pick:(pct_pick ?change_points ?horizon ~seed ()) sc

let replay ?max_steps ?strict sc sched =
  run ?max_steps ~pick:(replay_pick ?strict sched) sc

type sample_report = {
  runs : int;
  strategy : [ `Random | `Pct ];
  failure : (int * verdict) option;
}

let sample ?max_steps ?(runs = 100) ?(base_seed = 0) ?(strategy = `Random) sc =
  let picker seed =
    match strategy with
    | `Random -> random_pick ~seed
    | `Pct -> pct_pick ~seed ()
  in
  let rec go i =
    if i >= runs then { runs; strategy; failure = None }
    else
      let seed = base_seed + i in
      let v = run ?max_steps ~pick:(picker seed) sc in
      if verdict_ok v then go (i + 1)
      else { runs = i + 1; strategy; failure = Some (seed, v) }
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Bounded exhaustive search: stateless-model-checking style. Each run
   is replayed from a choice prefix (alternative 0 beyond it); after the
   run, every untaken alternative at or beyond the prefix length opens a
   new branch. The worklist is a stack with deepest branches first, so
   the frontier stays small. *)

type dfs_report = {
  explored : int;
  complete : bool;
  failures : (Schedule.t * string) list;
  deepest : int;
  secs : float;
  per_sec : float;
}

let explore_dfs ?max_steps ?(max_schedules = 10_000) ?(max_failures = 10) sc =
  let t0 = Clock.now_ns () in
  let worklist = ref [ [||] ] in
  let explored = ref 0 in
  let failures = ref [] in
  let nfail = ref 0 in
  let deepest = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match !worklist with
    | [] -> continue_ := false
    | _ when !explored >= max_schedules -> continue_ := false
    | prefix :: rest ->
      worklist := rest;
      let v = run ?max_steps ~pick:(choices_pick prefix) sc in
      incr explored;
      let sched = v.outcome.schedule in
      deepest := max !deepest (Array.length sched);
      (match v.verdict with
      | Error m ->
        if !nfail < max_failures then begin
          failures := (sched, m) :: !failures;
          incr nfail
        end
      | Ok () -> ());
      (* Decisions below the prefix length were forced by the prefix;
         their siblings are enqueued when the ancestor run is expanded. *)
      let plen = Array.length prefix in
      let ext = ref [] in
      for i = plen to Array.length sched - 1 do
        let e = sched.(i) in
        for c = e.Schedule.chosen + 1 to e.Schedule.alts - 1 do
          let p =
            Array.append (Schedule.choices (Array.sub sched 0 i)) [| c |]
          in
          ext := p :: !ext
        done
      done;
      worklist := !ext @ !worklist
  done;
  let secs = Int64.to_float (Clock.elapsed_ns t0) /. 1e9 in
  ({ explored = !explored;
     complete = !worklist = [];
     failures = List.rev !failures;
     deepest = !deepest;
     secs;
     per_sec = float_of_int !explored /. Float.max secs 1e-9 }
    : dfs_report)

(* ------------------------------------------------------------------ *)
(* Greedy shrinking: first find the shortest failing prefix (everything
   beyond a prefix defaults to alternative 0), then zero out remaining
   non-default choices one at a time until a fixpoint. The result is a
   canonical failing schedule with as few non-default decisions as this
   local search can reach within [budget] replays. *)

type shrink_report = { shrunk : Schedule.t; message : string; attempts : int }

let shrink ?max_steps ?(budget = 300) sc (failing : Schedule.t) =
  let attempts = ref 0 in
  let fails cs =
    if !attempts >= budget then None
    else begin
      incr attempts;
      let v = run ?max_steps ~pick:(choices_pick cs) sc in
      match v.verdict with
      | Error m -> Some m
      | Ok () -> None
    end
  in
  let best = ref (Schedule.choices failing) in
  let best_msg =
    match fails !best with
    | Some m -> ref m
    | None -> invalid_arg "Detsched.shrink: the given schedule does not fail"
  in
  (try
     for len = 0 to Array.length !best - 1 do
       match fails (Array.sub !best 0 len) with
       | Some m ->
         best := Array.sub !best 0 len;
         best_msg := m;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to Array.length !best - 1 do
      if !best.(i) <> 0 then begin
        let cand = Array.copy !best in
        cand.(i) <- 0;
        match fails cand with
        | Some m ->
          best := cand;
          best_msg := m;
          changed := true
        | None -> ()
      end
    done
  done;
  (* Trailing zeros are the replay default: drop them, then re-run once
     to rebuild the canonical schedule with alternative counts. *)
  let n = ref (Array.length !best) in
  while !n > 0 && !best.(!n - 1) = 0 do
    decr n
  done;
  let final = Array.sub !best 0 !n in
  incr attempts;
  let v = run ?max_steps ~pick:(choices_pick final) sc in
  match v.verdict with
  | Error m -> { shrunk = v.outcome.schedule; message = m; attempts = !attempts }
  | Ok () -> { shrunk = failing; message = !best_msg; attempts = !attempts }

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction (Flanagan–Godefroid-style, with sleep
   sets). The unit of reordering is the {e quantum}: everything a task
   executes between two scheduler dispatches, which the runtime's [Obs]
   stream delimits with [Sched] events and annotates with the object ids
   every primitive op touched. Two quanta are dependent iff they touch a
   common object (or either performs a scheduler-global op — spawn or
   quiescence). After each run the engine computes vector clocks over the
   quantum sequence, finds reversible races (dependent quanta of distinct
   tasks with no happens-before chain between them), and plants backtrack
   points at the earlier quantum's decision frame; sleep sets prune
   branches whose first transition was already explored from the same
   node and has met nothing dependent since. Exploration restarts from
   mutated frame stacks (decision -> dictated task id), so a schedule
   prefix replays exactly and only the frontier beyond it is free. *)

type dpor_report = {
  explored : int;
  complete : bool;
  failures : (Schedule.t * string) list;
  deepest : int;
  races : int;
  redundant : int;
  workers : int;
  secs : float;
  per_sec : float;
  replay_secs : float;
  analysis_secs : float;
}

module Dpor = struct
  module Obs = Detrt.Obs

  exception Diverged of string

  (* Dense object keys, so per-object state lives in int-indexed arrays:
     the scheduler-global op is 0, task [t] is 2t+1, and mutexes,
     conditions and registers — whose ordinals come from one per-run
     counter — are 2i+4. Objects made outside any run carry ordinal -1
     and share key 2, which can only over-approximate dependence. *)
  let global = 0

  let key = function
    | Obs.Global -> global
    | Obs.Task_o t -> (2 * t) + 1
    | Obs.Mutex_o i | Obs.Cond_o i | Obs.Reg_o i -> (2 * i) + 4

  (* Sets of task ids and object keys are short sorted or unsorted int
     lists, compared without the polymorphic primitives. *)
  let rec mem (x : int) = function [] -> false | y :: l -> y = x || mem x l

  let same_ints (a : int array) b =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

  (* A sleeping task id together with the object keys its already-explored
     transition touched: the entry wakes (is dropped) as soon as any
     executed quantum is dependent with it. *)
  type sleeper = { s_tid : int; s_objs : int list }

  (* One decision of the explored run. Task frames carry persistent
     backtrack/sleep state across re-executions; waiter frames (which
     waiter receives an unlock/signal) are always fully expanded — the
     pick changes synchronization outcomes by construction, so no
     independence argument applies. *)
  type frame = {
    f_kind : [ `Task | `Waiter ];
    f_cands : int array;
    mutable f_chosen : int; (* task id dictated on the next replay *)
    mutable f_backtrack : int list; (* sorted *)
    mutable f_done : int list;
    mutable f_sleep : sleeper list;
    mutable f_objs : int list; (* keys of the chosen quantum *)
  }

  type quantum = {
    q_proc : int;
    q_dec : int; (* decision index that dispatched it; -1 when forced *)
    q_enabled : int array;
    mutable q_objs : int list;
  }

  let dependent objs1 objs2 =
    mem global objs1 || mem global objs2
    || List.exists (fun o -> mem o objs2) objs1

  (* Execute one run: decisions below the stack are dictated by the
     frames, decisions beyond it extend the stack, preferring tasks not
     in the current sleep set. Returns the verdict, the quantum sequence,
     the full frame stack, the count of sleep-redundant extensions, and
     how many leading quanta replay the previous run: those closed before
     the top stack decision is taken. *)
  let run_one ?max_steps sc (stack : frame array) =
    let n_stack = Array.length stack in
    let dec_i = ref 0 in
    let pending = ref None in
    let new_frames = ref [] in
    let quanta_rev = ref [] in
    let closed = ref 0 in
    let replayed = ref 0 in
    let q_open = ref None in
    let dec_for_sched = ref (-1) in
    let online_sleep = ref [] in
    let redundant = ref 0 in
    (* A closed quantum wakes every sleeper it is dependent with. *)
    let close_quantum () =
      match !q_open with
      | None -> ()
      | Some q ->
        quanta_rev := q :: !quanta_rev;
        incr closed;
        q_open := None;
        if q.q_objs <> [] && !online_sleep <> [] then
          online_sleep :=
            List.filter
              (fun sl -> not (dependent sl.s_objs q.q_objs))
              !online_sleep
    in
    let observe ev =
      match ev with
      | Obs.Choice { kind = `Task; _ } ->
        close_quantum ();
        pending := Some `Task
      | Obs.Choice { kind = `Waiter; _ } -> pending := Some `Waiter
      | Obs.Sched { tid; runnable } ->
        close_quantum ();
        let dec = !dec_for_sched in
        dec_for_sched := -1;
        q_open :=
          Some { q_proc = tid; q_dec = dec; q_enabled = runnable; q_objs = [] }
      | Obs.Op { tid; obj; _ } ->
        let q =
          match !q_open with
          | Some q -> q
          | None ->
            (* ops of the main task before its first dispatch *)
            let q =
              { q_proc = tid; q_dec = -1; q_enabled = [| tid |]; q_objs = [] }
            in
            q_open := Some q;
            q
        in
        let k = key obj in
        if not (mem k q.q_objs) then q.q_objs <- k :: q.q_objs
    in
    let pick alts =
      let kind =
        match !pending with
        | Some k ->
          pending := None;
          k
        | None -> raise (Diverged "choose without a Choice event")
      in
      let d = !dec_i in
      incr dec_i;
      if d = n_stack - 1 then replayed := !closed;
      let tid =
        if d < n_stack then begin
          let f = stack.(d) in
          if f.f_kind <> kind || not (same_ints f.f_cands alts) then
            raise
              (Diverged (Printf.sprintf "replayed decision %d changed shape" d));
          if kind = `Task then online_sleep := f.f_sleep;
          f.f_chosen
        end
        else begin
          match kind with
          | `Waiter ->
            let tid = alts.(0) in
            new_frames :=
              { f_kind = `Waiter; f_cands = alts; f_chosen = tid;
                f_backtrack = List.sort Int.compare (Array.to_list alts);
                f_done = []; f_sleep = []; f_objs = [] }
              :: !new_frames;
            tid
          | `Task ->
            let asleep t =
              List.exists (fun sl -> sl.s_tid = t) !online_sleep
            in
            let tid =
              match Array.find_opt (fun t -> not (asleep t)) alts with
              | Some t -> t
              | None ->
                (* every candidate's next transition was already explored
                   from an equivalent state: the branch is redundant, but
                   we must still run it to completion to stay replayable *)
                incr redundant;
                alts.(0)
            in
            new_frames :=
              { f_kind = `Task; f_cands = alts; f_chosen = tid;
                f_backtrack = [ tid ]; f_done = [];
                f_sleep = !online_sleep; f_objs = [] }
              :: !new_frames;
            tid
        end
      in
      if kind = `Task then dec_for_sched := d;
      let rec find i =
        if i >= Array.length alts then
          raise
            (Diverged
               (Printf.sprintf "dictated task %d not runnable at decision %d"
                  tid d))
        else if alts.(i) = tid then i
        else find (i + 1)
      in
      find 0
    in
    let v = run ?max_steps ~observe ~pick sc in
    close_quantum ();
    (match v.outcome.result with
    | Error (Diverged msg) ->
      failwith ("Detsched.explore_dpor: scenario is not deterministic: " ^ msg)
    | _ -> ());
    let frames =
      Array.append stack (Array.of_list (List.rev !new_frames))
    in
    (v, Array.of_list (List.rev !quanta_rev), frames, !redundant, !replayed)

  (* Vector clocks of the last analyzed run as flat rows of width [w], one
     column per task id: row i of [vc] is quantum i's clock, row i of
     [after] the per-task quantum counts through i. Each run replays a
     prefix of the run before it, so the [rows] of that prefix carry
     over; widening drops them. *)
  type clocks = {
    mutable w : int;
    mutable rows : int;
    mutable vc : int array;
    mutable after : int array;
  }

  (* Post-run analysis: vector clocks over the quantum sequence, then
     reversible-race detection from quantum [from] on — the races among
     the replayed quanta below it were planted by an earlier run. For a
     race (j, i) the candidate witnesses are, per Flanagan–Godefroid, the
     tasks enabled at j's decision that either are i's task or have a
     later quantum happens-before i; when none is enabled the whole
     frontier is expanded. Also records each decision frame's objects
     (the replayed prefix's frames hold theirs already). Returns how
     many backtrack points were planted. Races whose decision frame lies
     below [pin] belong to another exploration shard and are discarded —
     sound because the pinned levels are fully expanded across shards. *)
  let analyze ~pin ~from c (frames : frame array) (quanta : quantum array) =
    let n = Array.length quanta in
    let w = ref c.w and nkeys = ref 1 in
    Array.iter
      (fun q ->
        w := Int.max !w (q.q_proc + 1);
        Array.iter (fun t -> w := Int.max !w (t + 1)) q.q_enabled;
        List.iter (fun o -> nkeys := Int.max !nkeys (o + 1)) q.q_objs)
      quanta;
    if !w > c.w then begin
      c.w <- !w;
      c.rows <- 0
    end;
    let w = c.w in
    if Array.length c.vc < n * w then begin
      c.vc <- Array.append c.vc (Array.make (n * w) 0);
      c.after <- Array.append c.after (Array.make (n * w) 0)
    end;
    let vc = c.vc and after = c.after in
    let proc_last = Array.make w (-1) and last_touch = Array.make !nkeys (-1) in
    let last_global = ref (-1) and seq = Array.make w 0 in
    let touch i q =
      List.iter (fun o -> last_touch.(o) <- i) q.q_objs;
      if mem global q.q_objs then last_global := i;
      proc_last.(q.q_proc) <- i
    in
    let start = Int.min from c.rows in
    for i = 0 to start - 1 do
      touch i quanta.(i)
    done;
    if start > 0 then Array.blit after ((start - 1) * w) seq 0 w;
    (* [hb j k]: quantum [j] happens-before quantum [k] (for j < k). *)
    let hb j k =
      let p = quanta.(j).q_proc in
      vc.((k * w) + p) >= vc.((j * w) + p)
    in
    let join base src =
      if src >= 0 then
        for t = 0 to w - 1 do
          let v = vc.((src * w) + t) in
          if v > vc.(base + t) then vc.(base + t) <- v
        done
    in
    let planted = ref 0 in
    for i = start to n - 1 do
      let q = quanta.(i) in
      let p = q.q_proc and objs = q.q_objs and base = i * w in
      if q.q_dec >= 0 then frames.(q.q_dec).f_objs <- objs;
      let is_global = mem global objs in
      (* i's direct predecessors: its task's previous quantum, the last
         global quantum and each object's last toucher. A global quantum
         follows every earlier one instead, whose join is [seq] itself. *)
      let preds =
        proc_last.(p) :: !last_global :: List.map (fun o -> last_touch.(o)) objs
      in
      seq.(p) <- seq.(p) + 1;
      if is_global then Array.blit seq 0 vc base w
      else begin
        Array.fill vc base w 0;
        List.iter (join base) preds
      end;
      vc.(base + p) <- seq.(p);
      Array.blit seq 0 after base w;
      if i >= from then begin
        (* The race (j, i) is reversible iff no happens-before chain
           passes strictly between j and i. Every chain into i ends in a
           direct predecessor, so it is enough to ask whether one later
           than j comes after j. *)
        let chained j =
          if is_global then begin
            let c = ref false and k = ref (j + 1) in
            while (not !c) && !k < i do
              c := hb j !k;
              incr k
            done;
            !c
          end
          else List.exists (fun d -> d > j && hb j d) preds
        in
        let race j =
          let qj = quanta.(j) in
          let d = qj.q_dec and en = qj.q_enabled in
          if d >= pin && d >= 0 && Array.length en > 1 && not (chained j)
          then begin
            let f = frames.(d) in
            let plant t =
              if not (mem t f.f_backtrack) then begin
                f.f_backtrack <- List.sort Int.compare (t :: f.f_backtrack);
                incr planted
              end
            in
            (* A witness is i's own task or one with a quantum after j
               that happens-before i: i saw more of its quanta than there
               were through j. *)
            if Array.exists (fun t -> t = p) en then plant p
            else
              match
                Array.find_opt (fun t -> vc.(base + t) > after.((j * w) + t)) en
              with
              | Some t -> plant t
              | None -> Array.iter plant en
          end
        in
        (* Candidate partners: the latest earlier quantum per shared
           object and the latest global one, plus — for a global
           quantum — the immediately preceding one. *)
        let seen = ref [] in
        List.iter
          (fun j ->
            if j >= 0 && quanta.(j).q_proc <> p && not (mem j !seen) then begin
              seen := j :: !seen;
              race j
            end)
          (if is_global then (i - 1) :: preds else preds)
      end;
      touch i q
    done;
    c.rows <- n;
    !planted

  type acc = {
    mutable a_explored : int;
    mutable a_complete : bool;
    mutable a_failures : (Schedule.t * string) list; (* newest first *)
    mutable a_nfail : int;
    mutable a_deepest : int;
    mutable a_races : int;
    mutable a_redundant : int;
    mutable a_replay_ns : int;
    mutable a_analysis_ns : int;
  }

  let acc () =
    { a_explored = 0; a_complete = true; a_failures = []; a_nfail = 0;
      a_deepest = 0; a_races = 0; a_redundant = 0; a_replay_ns = 0;
      a_analysis_ns = 0 }

  let now () = Int64.to_int (Clock.now_ns ())

  (* The exploration loop for one shard: run, analyze, then sweep the
     frame stack bottom-up for the deepest frame with a pending backtrack
     task that is neither done nor asleep, truncate there and re-run.
     [budget] is the explored-schedule budget shared across shards. Two
     clock reads per run split the time into replay (the run itself) and
     analysis (everything between runs). *)
  let explore_from ?max_steps ~max_schedules ~max_failures ~pin ~budget sc
      init_stack =
    let a = acc () in
    let c = { w = 1; rows = 0; vc = [||]; after = [||] } in
    let stack = ref init_stack in
    let running = ref true in
    let t_lap = ref (now ()) in
    let lap () =
      let t = now () in
      let d = t - !t_lap in
      t_lap := t;
      d
    in
    while !running do
      if Atomic.fetch_and_add budget 1 >= max_schedules then begin
        a.a_complete <- false;
        running := false
      end
      else begin
        a.a_analysis_ns <- a.a_analysis_ns + lap ();
        let v, quanta, frames, red, replayed = run_one ?max_steps sc !stack in
        a.a_replay_ns <- a.a_replay_ns + lap ();
        a.a_explored <- a.a_explored + 1;
        a.a_redundant <- a.a_redundant + red;
        a.a_deepest <- Int.max a.a_deepest (Array.length v.outcome.schedule);
        (match v.verdict with
        | Error m when a.a_nfail < max_failures ->
          a.a_failures <- (v.outcome.schedule, m) :: a.a_failures;
          a.a_nfail <- a.a_nfail + 1
        | _ -> ());
        a.a_races <- a.a_races + analyze ~pin ~from:replayed c frames quanta;
        let next_stack = ref None in
        let i = ref (Array.length frames - 1) in
        while Option.is_none !next_stack && !i >= pin do
          let f = frames.(!i) in
          f.f_done <- f.f_chosen :: f.f_done;
          let asleep t = List.exists (fun sl -> sl.s_tid = t) f.f_sleep in
          let task = f.f_kind = `Task in
          if task && not (asleep f.f_chosen) then
            f.f_sleep <- { s_tid = f.f_chosen; s_objs = f.f_objs } :: f.f_sleep;
          let waiting t = not (mem t f.f_done || (task && asleep t)) in
          match List.find_opt waiting f.f_backtrack with
          | Some t ->
            f.f_chosen <- t;
            f.f_objs <- [];
            next_stack := Some (Array.sub frames 0 (!i + 1))
          | None -> decr i
        done;
        match !next_stack with
        | Some st -> stack := st
        | None -> running := false
      end
    done;
    a.a_analysis_ns <- a.a_analysis_ns + lap ();
    a
end

let explore_dpor ?max_steps ?(max_schedules = 10_000) ?(max_failures = 10)
    ?(workers = 1) sc =
  let t0 = Clock.now_ns () in
  let finish ~probe ~workers accs =
    let explored = ref probe in
    let complete = ref true in
    let failures = ref [] in
    let deepest = ref 0 in
    let races = ref 0 in
    let redundant = ref 0 in
    let replay_ns = ref 0 and analysis_ns = ref 0 in
    List.iter
      (fun (a : Dpor.acc) ->
        explored := !explored + a.a_explored;
        complete := !complete && a.a_complete;
        failures := !failures @ List.rev a.a_failures;
        deepest := max !deepest a.a_deepest;
        races := !races + a.a_races;
        redundant := !redundant + a.a_redundant;
        replay_ns := !replay_ns + a.a_replay_ns;
        analysis_ns := !analysis_ns + a.a_analysis_ns)
      accs;
    let failures = List.filteri (fun i _ -> i < max_failures) !failures in
    let secs = Int64.to_float (Clock.elapsed_ns t0) /. 1e9 in
    { explored = !explored;
      complete = !complete;
      failures;
      deepest = !deepest;
      races = !races;
      redundant = !redundant;
      workers;
      secs;
      per_sec = float_of_int !explored /. Float.max secs 1e-9;
      replay_secs = float_of_int !replay_ns /. 1e9;
      analysis_secs = float_of_int !analysis_ns /. 1e9 }
  in
  let budget = Atomic.make 0 in
  if workers <= 1 then
    let a =
      Dpor.explore_from ?max_steps ~max_schedules ~max_failures ~pin:0 ~budget
        sc [||]
    in
    finish ~probe:0 ~workers:1 [ a ]
  else begin
    (* Probe run: discover the top-level frontier, then hand each root
       candidate to a shard with that first decision pinned. The root is
       thereby fully expanded, so races crossing shard boundaries need no
       backtrack points (every alternative root choice is explored). *)
    let v0, _, frames0, _, _ = Dpor.run_one ?max_steps sc [||] in
    if Array.length frames0 = 0 then
      (* no decisions at all: the tree is a single schedule *)
      let a = Dpor.acc () in
      a.a_explored <- 1;
      a.a_deepest <- Array.length v0.outcome.schedule;
      (match v0.verdict with
      | Error m -> a.a_failures <- [ (v0.outcome.schedule, m) ]
      | Ok () -> ());
      finish ~probe:0 ~workers:1 [ a ]
    else begin
      let root = frames0.(0) in
      let shards =
        Array.map
          (fun tid ->
            [| { Dpor.f_kind = root.f_kind; f_cands = root.f_cands;
                 f_chosen = tid; f_backtrack = [ tid ]; f_done = [];
                 f_sleep = []; f_objs = [] } |])
          root.f_cands
      in
      let results = Array.make (Array.length shards) None in
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length shards then begin
            results.(i) <-
              Some
                (Dpor.explore_from ?max_steps ~max_schedules ~max_failures
                   ~pin:1 ~budget sc shards.(i));
            loop ()
          end
        in
        loop ()
      in
      let nw = min workers (Array.length shards) in
      let handles =
        List.init nw (fun w ->
            Process.spawn ~name:(Printf.sprintf "dpor-%d" w) ~backend:`Domain
              worker)
      in
      List.iter Process.join handles;
      let accs = Array.to_list results |> List.filter_map Fun.id in
      finish ~probe:1 ~workers:nw accs
    end
  end
