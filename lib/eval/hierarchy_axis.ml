open Sync_metrics
open Sync_workload
module Prims = Sync_prims.Prims

type status =
  | Supported
  | Unsupported of { feature : string; reason : string }
  | Failed of string

type row = {
  cls : Prims.cls;
  problem : string;
  mechanism : string;
  domains : int;
  status : status;
  throughput_per_s : float;
  p50_ns : int;
  p99_ns : int;
}

type spec = {
  classes : Prims.cls list;
  problems : string list;
  mechanisms : string list option;
  domains : int list;
  duration_ms : int;
  warmup_ms : int;
  seed : int;
}

let default_spec () =
  { classes = Prims.all;
    problems = [ "bounded-buffer"; "fcfs"; "readers-writers" ];
    mechanisms = None;
    domains = [ 1; 4 ];
    duration_ms = Loadgen.duration_from_env ~default:100;
    warmup_ms = 30;
    seed = 42 }

let mechanisms_of spec ~problem =
  match spec.mechanisms with
  | None -> Target.mechanisms ~problem
  | Some ms -> List.filter (fun m -> List.mem m (Target.mechanisms ~problem)) ms

let dead_row ~cls ~problem ~mechanism ~domains status =
  { cls; problem; mechanism; domains; status;
    throughput_per_s = 0.; p50_ns = 0; p99_ns = 0 }

(* One measured cell. The class restriction is a creation-time property
   (Target builds the whole solution in a [`Prim c] tier scope), so an
   inexpressible primitive surfaces as {!Prims.Unsupported} from
   [Target.create] — before any worker runs — and is a typed result.
   Anything the self-checking resources throw mid-run (overlap,
   FIFO-order violations) is a correctness failure of the class's
   construction and lands in [Failed]. *)
let measure_cell spec ~cls ~problem ~mechanism ~domains =
  let base =
    { Loadgen.workers = domains; backend = `Domain;
      duration_ms = spec.duration_ms; warmup_ms = spec.warmup_ms;
      mode = Loadgen.Closed; seed = spec.seed; think_us = 0 }
  in
  match Target.create ~tier:(`Prim cls) ~problem ~mechanism () with
  | exception Prims.Unsupported { feature; reason; _ } ->
    dead_row ~cls ~problem ~mechanism ~domains
      (Unsupported { feature; reason })
  | Error e -> dead_row ~cls ~problem ~mechanism ~domains (Failed e)
  | Ok inst -> (
    match Loadgen.run inst base with
    | report ->
      let s = report.Report.summary in
      if s.Summary.total_failures > 0 then
        dead_row ~cls ~problem ~mechanism ~domains
          (Failed (Printf.sprintf "%d op failures" s.Summary.total_failures))
      else
        let q f = Summary.overall_quantile s f in
        { cls; problem; mechanism; domains; status = Supported;
          throughput_per_s = s.Summary.throughput_per_s;
          p50_ns = q (fun o -> o.Summary.p50_ns);
          p99_ns = q (fun o -> o.Summary.p99_ns) }
    | exception Prims.Unsupported { feature; reason; _ } ->
      dead_row ~cls ~problem ~mechanism ~domains
        (Unsupported { feature; reason })
    | exception e ->
      dead_row ~cls ~problem ~mechanism ~domains
        (Failed (Printexc.to_string e)))

let run ?(progress = ignore) spec =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun problem ->
          List.concat_map
            (fun mechanism ->
              (* Probe support once per class x pair: a rejected build
                 yields a single typed row (domains 0) instead of one
                 per domain count. *)
              match
                Target.create ~tier:(`Prim cls) ~problem ~mechanism ()
              with
              | exception Prims.Unsupported { feature; reason; _ } ->
                let r =
                  dead_row ~cls ~problem ~mechanism ~domains:0
                    (Unsupported { feature; reason })
                in
                progress r;
                [ r ]
              | Error e ->
                let r =
                  dead_row ~cls ~problem ~mechanism ~domains:0 (Failed e)
                in
                progress r;
                [ r ]
              | Ok probe ->
                probe.Target.stop ();
                List.map
                  (fun domains ->
                    let r =
                      measure_cell spec ~cls ~problem ~mechanism ~domains
                    in
                    progress r;
                    r)
                  spec.domains)
            (mechanisms_of spec ~problem))
        spec.problems)
    spec.classes

let all_ok rows =
  List.for_all (fun r -> match r.status with Failed _ -> false | _ -> true)
    rows

let status_string = function
  | Supported -> "ok"
  | Unsupported { feature; _ } -> "unsupported: " ^ feature
  | Failed e -> "FAILED: " ^ e

let cls_doc = function
  | Prims.RW -> "atomic read/write registers only (bakery)"
  | Prims.CAS -> "compare-and-swap only"
  | Prims.FAA -> "fetch-and-add only (ticket)"
  | Prims.LLSC -> "LL/SC emulated from CAS with ABA tags"
  | Prims.Native -> "unrestricted platform substrate"

let pp ppf rows =
  let by_cls c = List.filter (fun r -> r.cls = c) rows in
  List.iter
    (fun c ->
      match by_cls c with
      | [] -> ()
      | cr ->
        Format.fprintf ppf "class %-6s — %s@." (Prims.cls_name c) (cls_doc c);
        Format.fprintf ppf "  %-16s %-12s %7s %12s %9s %9s  %s@." "problem"
          "mechanism" "domains" "ops/s" "p50 ns" "p99 ns" "status";
        List.iter
          (fun r ->
            match r.status with
            | Supported ->
              Format.fprintf ppf "  %-16s %-12s %7d %12.0f %9d %9d  %s@."
                r.problem r.mechanism r.domains r.throughput_per_s r.p50_ns
                r.p99_ns (status_string r.status)
            | _ ->
              Format.fprintf ppf "  %-16s %-12s %7s %12s %9s %9s  %s@."
                r.problem r.mechanism "-" "-" "-" "-" (status_string r.status))
          cr;
        Format.fprintf ppf "@.")
    Prims.all

let row_to_json r =
  Emit.Obj
    ([ ("class", Emit.Str (Prims.cls_name r.cls));
       ("problem", Emit.Str r.problem);
       ("mechanism", Emit.Str r.mechanism);
       ("domains", Emit.Int r.domains) ]
    @ (match r.status with
      | Supported ->
        [ ("status", Emit.Str "supported");
          ("throughput_per_s", Emit.Float r.throughput_per_s);
          ("p50_ns", Emit.Int r.p50_ns); ("p99_ns", Emit.Int r.p99_ns) ]
      | Unsupported { feature; reason } ->
        [ ("status", Emit.Str "unsupported"); ("feature", Emit.Str feature);
          ("reason", Emit.Str reason) ]
      | Failed e -> [ ("status", Emit.Str "failed"); ("error", Emit.Str e) ]))

let to_json spec rows =
  Emit.Obj
    [ ("experiment", Emit.Str "E25");
      ("description",
       Emit.Str
         "hardware-primitive hierarchy: every mechanism x problem target \
          run unmodified on restricted atomic classes (rw/cas/faa/llsc \
          vs native); unsupported cells carry typed reasons");
      ("mode", Emit.Str "closed");
      ("backend", Emit.Str "domain");
      ("duration_ms", Emit.Int spec.duration_ms);
      ("warmup_ms", Emit.Int spec.warmup_ms);
      ("seed", Emit.Int spec.seed);
      ("ocaml", Emit.Str Sys.ocaml_version);
      ("recommended_domains", Emit.Int (Domain.recommended_domain_count ()));
      ("classes",
       Emit.List
         (List.map (fun c -> Emit.Str (Prims.cls_name c)) spec.classes));
      ("problems", Emit.List (List.map (fun p -> Emit.Str p) spec.problems));
      ("domain_counts", Emit.List (List.map (fun d -> Emit.Int d) spec.domains));
      ("rows", Emit.List (List.map row_to_json rows)) ]
