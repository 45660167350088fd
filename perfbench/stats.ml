(* Pure reporting helpers: percentiles, geomeans, the rate-ladder knee
   rule and span self time. Kept free of the system under test so the
   benchmark's own arithmetic is unit-tested (test_perfbench.ml). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of [n] values of which the [n_ok] smallest are
   in [s] (sorted) and the rest are misses: a request that failed, was
   shed or timed out has no latency, so it ranks above every success and
   any percentile that lands on it is infinite. *)
let rank_quantile ?(misses = 0) s q =
  let n_ok = Array.length s in
  let n = n_ok + misses in
  if n = 0 then nan
  else
    let k = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    if k > n_ok then infinity else s.(k - 1)

let quantile ?misses xs q = rank_quantile ?misses (sorted xs) q

let median xs = quantile xs 0.5

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it; [None] below 20 samples. *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.5 ]

let tail_level n =
  List.find_opt
    (fun q ->
      let k = int_of_float (Float.ceil (q *. float_of_int n)) in
      n - k >= 10)
    tail_levels

let tail_label q =
  if q >= 0.999 then "p99.9"
  else Printf.sprintf "p%g" (q *. 100.)

let geomean = function
  | [] -> nan
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n)

(* -- rate ladder ----------------------------------------------------- *)

type step = {
  offered : float;  (** scheduled arrivals per second *)
  delivered : float;  (** completed requests per second of window *)
  tail_us : float;  (** p99 with misses counted as infinite *)
  fail_ratio : float;
  growing : bool;  (** the backlog grew over the step *)
}

let limit_tail_us = 10_000.

let limit_fail_ratio = 0.01

let step_ok s =
  s.tail_us <= limit_tail_us && s.fail_ratio <= limit_fail_ratio
  && not s.growing

(* The knee: the highest offered rate reached by climbing the ladder
   while every step met the limits. A step that fails ends the climb,
   so a lucky pass above a failed step does not count. *)
let knee steps =
  let steps = List.sort (fun a b -> Float.compare a.offered b.offered) steps in
  let rec climb best = function
    | s :: rest when step_ok s -> climb (Some s) rest
    | _ -> best
  in
  climb None steps

(* Backlog growth over one step, from each sent request's lateness
   (actual send time minus scheduled send time, in send order). A stable
   system's lateness is stationary; an overloaded one's grows with
   time. Growth means the last quarter's median lateness exceeds the
   first quarter's by more than 1 ms and by more than half again. *)
let backlog_growing lateness_ns =
  let n = Array.length lateness_ns in
  if n < 8 then false
  else
    let q = n / 4 in
    let first = median (Array.sub lateness_ns 0 q) in
    let last = median (Array.sub lateness_ns (n - q) q) in
    last -. first > 1e6 && last > 1.5 *. first

(* -- span self time -------------------------------------------------- *)

(* Length of the union of intervals clipped to [lo, hi]. Children may
   overlap each other (spans recorded by concurrent threads under one
   parent), so their durations cannot simply be summed. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

let self_time ~lo ~hi ~children = hi - lo - covered ~lo ~hi children
