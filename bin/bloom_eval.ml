(* bloom-eval: command-line front end for the mechanized evaluation.

   Each subcommand regenerates one of the paper's evaluation artifacts
   (see DESIGN.md's experiment index): the expressiveness matrix (E3),
   the constraint-independence analysis (E2/E4), the modularity table
   (E5), the conformance run (E6), the footnote-3 anomaly demo (E1), and
   the nested-monitor-call demonstration (E11). *)

open Cmdliner

let ppf = Format.std_formatter

let list_cmd =
  let doc = "List every registered solution (problem/variant@mechanism)." in
  let run () =
    List.iter
      (fun (e : Sync_eval.Registry.entry) ->
        Format.fprintf ppf "%s@." (Sync_taxonomy.Meta.id e.meta))
      Sync_eval.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let matrix_cmd =
  let doc = "Print the expressive-power matrix (experiment E3)." in
  let run () =
    let card = Sync_eval.Scorecard.build ~run_conformance:false () in
    Sync_eval.Expressiveness.pp ppf card.matrix;
    match card.discrepancies with
    | [] ->
      Format.fprintf ppf
        "@.The matrix agrees with the paper's Section-5 conclusions.@."
    | ds ->
      List.iter
        (fun (mech, kind, why) ->
          Format.fprintf ppf "DISCREPANCY %s/%s: %s@." mech
            (Sync_taxonomy.Info.to_string kind)
            why)
        ds;
      exit 1
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ const ())

let independence_cmd =
  let doc =
    "Print constraint-independence pairings and the per-mechanism reuse \
     summary (experiments E2/E4)."
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"show every pairing")
  in
  let run verbose =
    let pairings = Sync_eval.Independence.analyze Sync_eval.Registry.all in
    if verbose then Sync_eval.Independence.pp ppf pairings;
    Sync_eval.Independence.pp_summary ppf
      (Sync_eval.Independence.shared_constraint_reuse pairings)
  in
  Cmd.v (Cmd.info "independence" ~doc) Term.(const run $ verbose)

let modularity_cmd =
  let doc = "Print the modularity table (experiment E5)." in
  let run () =
    Sync_eval.Modularity.pp ppf
      (Sync_eval.Modularity.analyze Sync_eval.Registry.all)
  in
  Cmd.v (Cmd.info "modularity" ~doc) Term.(const run $ const ())

let conformance_cmd =
  let doc =
    "Run every solution's machine checks and print the conformance matrix \
     (experiment E6). Exits non-zero on regressions."
  in
  let run () =
    let results = Sync_eval.Conformance.run Sync_eval.Registry.all in
    Sync_eval.Conformance.pp ppf results;
    match Sync_eval.Conformance.regressions results with
    | [] -> Format.fprintf ppf "no regressions@."
    | rs ->
      Format.fprintf ppf "%d regression(s)@." (List.length rs);
      exit 1
  in
  Cmd.v (Cmd.info "conformance" ~doc) Term.(const run $ const ())

let scorecard_cmd =
  let doc =
    "Print the full scorecard (E3 + E4 + E5 + E6, and E19/E20 on request)."
  in
  let fast =
    Arg.(value & flag
         & info [ "fast" ] ~doc:"skip the conformance run (metadata only)")
  in
  let robustness =
    Arg.(value & flag
         & info [ "robustness" ]
             ~doc:"also run the E19 fault/cancellation matrix (slow; \
                   standalone as $(b,bloom_eval faults))")
  in
  let perf =
    Arg.(value & flag
         & info [ "perf" ]
             ~doc:"also run a live E20 closed-loop performance sweep \
                   (window from $(b,SYNC_LOAD_MS); standalone single runs \
                   via $(b,bloom_eval load))")
  in
  let observability =
    Arg.(value & flag
         & info [ "observability" ]
             ~doc:"also run the E21 traced-contention audit (short traced \
                   load per mechanism; full traces via $(b,bloom_eval \
                   trace))")
  in
  let service =
    Arg.(value & flag
         & info [ "service" ]
             ~doc:"also run the E24 service-tier scenarios (spawns real \
                   bloom_serve daemons; standalone as $(b,bloom_eval \
                   serve))")
  in
  let hierarchy =
    Arg.(value & flag
         & info [ "hierarchy" ]
             ~doc:"also run the E25 primitive-hierarchy grid (every \
                   mechanism x problem on restricted atomic classes; \
                   standalone as $(b,bloom_eval hierarchy))")
  in
  let scaling =
    Arg.(value & flag
         & info [ "scaling" ]
             ~doc:"also run the E23 scalable-lock grids (queue-lock tier \
                   plus epoch readers-writers scaling; standalone as \
                   $(b,bloom_eval scaling))")
  in
  let adaptive =
    Arg.(value & flag
         & info [ "adaptive" ]
             ~doc:"also run the E27 self-tuning grid (adaptive tier vs \
                   every static tier under steady/diurnal/bursty arrivals; \
                   standalone as $(b,bloom_eval adapt))")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"also write the whole scorecard as a JSON document")
  in
  let run fast robustness perf observability service hierarchy scaling
      adaptive json =
    let card =
      Sync_eval.Scorecard.build ~run_conformance:(not fast)
        ~run_robustness:robustness ~run_perf:perf
        ~run_observability:observability ~run_service:service
        ~run_hierarchy:hierarchy ~run_scaling:scaling ~run_adaptive:adaptive ()
    in
    Sync_eval.Scorecard.pp ppf card;
    (match json with
    | None -> ()
    | Some file ->
      Sync_metrics.Emit.write_file file (Sync_eval.Scorecard.to_json card);
      Format.fprintf ppf "@.wrote %s@." file);
    if
      Sync_eval.Conformance.regressions card.conformance <> []
      || not (Sync_eval.Robustness.all_recovered card.robustness)
      || not (Sync_eval.Observability.all_ok card.observability)
      || not (Sync_eval.Service_axis.all_ok card.service)
      || not (Sync_eval.Hierarchy_axis.all_ok card.hierarchy)
      || not (Sync_eval.Scaling_axis.all_ok card.scaling)
      || not (Sync_eval.Adaptive_axis.all_ok card.adaptive)
    then exit 1
  in
  Cmd.v (Cmd.info "scorecard" ~doc)
    Term.(const run $ fast $ robustness $ perf $ observability $ service
          $ hierarchy $ scaling $ adaptive $ json)

let load_cmd =
  let doc =
    "Drive one mechanism x problem pair with the multicore load engine \
     (experiment E20): concurrent workers on real domains (or threads), \
     closed or open loop, latency histograms over the steady-state window. \
     With $(b,--sweep), re-run across increasing domain counts."
  in
  let open Sync_workload in
  let mechanism =
    Arg.(required & opt (some string) None
         & info [ "mechanism" ] ~docv:"MECHANISM"
             ~doc:"semaphore | monitor | serializer | pathexpr | csp | ccr \
                   (eventcount for the buffer problems)")
  in
  let problem =
    Arg.(required & opt (some string) None
         & info [ "problem" ] ~docv:"PROBLEM"
             ~doc:"bounded-buffer | one-slot-buffer | readers-writers | \
                   fcfs | disk-scheduler")
  in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains"; "workers" ] ~docv:"N"
             ~doc:"concurrent workers (each is a domain, or a thread with \
                   $(b,--backend thread))")
  in
  let duration_ms =
    Arg.(value & opt (some int) None
         & info [ "duration-ms" ] ~docv:"MS"
             ~doc:"steady-state window (default: $(b,SYNC_LOAD_MS) or 1000)")
  in
  let warmup_ms =
    Arg.(value & opt int 200 & info [ "warmup-ms" ] ~docv:"MS"
           ~doc:"discarded warmup window")
  in
  let mode_arg =
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE"
           ~doc:"closed | open")
  in
  let rate =
    Arg.(value & opt float 50_000. & info [ "rate" ] ~docv:"OPS_PER_S"
           ~doc:"open loop: total offered arrival rate")
  in
  let arrival_arg =
    Arg.(value & opt string "poisson" & info [ "arrival" ] ~docv:"DIST"
           ~doc:"open loop: poisson | uniform | diurnal | bursty")
  in
  let backend_arg =
    Arg.(value & opt string "domain" & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"domain | thread")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"arrival schedules and op-mix draws")
  in
  let capacity =
    Arg.(value & opt int Target.default_params.capacity
         & info [ "capacity" ] ~docv:"N" ~doc:"bounded-buffer slots")
  in
  let work =
    Arg.(value & opt int Target.default_params.work
         & info [ "work" ] ~docv:"N"
             ~doc:"busywork iterations inside each resource body")
  in
  let read_pct =
    Arg.(value & opt int Target.default_params.read_pct
         & info [ "read-pct" ] ~docv:"PCT"
             ~doc:"readers-writers read share, 0..100")
  in
  let tracks =
    Arg.(value & opt int Target.default_params.tracks
         & info [ "tracks" ] ~docv:"N" ~doc:"disk cylinders")
  in
  let hot_pct =
    Arg.(value & opt int Target.default_params.hot_pct
         & info [ "hot-pct" ] ~docv:"PCT"
             ~doc:"disk skew: share of requests aimed at the first tenth \
                   of the tracks")
  in
  let think_us_arg =
    Arg.(value & opt int 0
         & info [ "think-us" ] ~docv:"US"
             ~doc:"closed-loop think time per operation, microseconds, \
                   slept outside the latency window (E23 scaling runs)")
  in
  let sweep =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"run a domain-scaling sweep (1, 2, 4, all recommended \
                   cores) instead of a single run; $(b,--domains) is \
                   ignored")
  in
  let tier_arg =
    Arg.(value & opt string "default"
         & info [ "tier" ] ~docv:"TIER"
             ~doc:"platform substrate: $(b,default) for the stdlib-backed \
                   tier, $(b,fast) for the contention-adaptive fast paths \
                   (E22: adaptive mutex, fetch-and-add weak semaphore, \
                   Vyukov bounded buffer), a restricted atomic class \
                   (E25: $(b,rw), $(b,cas), $(b,faa), $(b,llsc), \
                   $(b,native)), a local-spin queue lock kind (E23: \
                   $(b,mcs), $(b,clh), $(b,ticket)), or $(b,adaptive) \
                   (E27: hot-swappable sites the feedback controller \
                   retiers live; implies probe tracing)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the run (or sweep) as a JSON document")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"print per-op CSV rows instead \
                                             of the human table")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"record structured sync events during the run (E21) and \
                   write them as a Chrome trace_event JSON file \
                   (chrome://tracing, Perfetto); also prints the \
                   contention profile. Not compatible with $(b,--sweep).")
  in
  let fail msg =
    Format.fprintf ppf "%s@." msg;
    exit 2
  in
  let run mechanism problem domains duration_ms warmup_ms mode_arg rate
      arrival_arg backend_arg seed capacity work read_pct tracks hot_pct
      think_us sweep tier_arg json csv trace_out =
    let tier =
      match tier_arg with
      | "default" -> `Default
      | "fast" -> `Fast
      | "adaptive" -> `Adaptive
      | s -> (
        match Sync_prims.Queuelock.kind_of_string s with
        | Some k -> `Queue k
        | None -> (
          match Sync_prims.Prims.cls_of_string s with
          | Some c -> `Prim c
          | None ->
            fail
              (Printf.sprintf
                 "unknown tier %S (default | fast | rw | cas | faa | llsc | \
                  native | mcs | clh | ticket | adaptive)"
                 s)))
    in
    let arrival =
      match Loadgen.arrival_of_string arrival_arg with
      | Some a -> a
      | None ->
        fail
          (Printf.sprintf
             "unknown arrival %S (poisson | uniform | diurnal | bursty)"
             arrival_arg)
    in
    let mode =
      match mode_arg with
      | "closed" -> Loadgen.Closed
      | "open" -> Loadgen.Open_loop { rate_per_s = rate; arrival }
      | s -> fail (Printf.sprintf "unknown mode %S (closed | open)" s)
    in
    let backend =
      match backend_arg with
      | "domain" -> `Domain
      | "thread" -> `Thread
      | s -> fail (Printf.sprintf "unknown backend %S (domain | thread)" s)
    in
    let duration_ms =
      match duration_ms with
      | Some ms -> ms
      | None -> Loadgen.duration_from_env ~default:1000
    in
    let params =
      { Target.capacity; work; read_pct; tracks; hot_pct }
    in
    let base =
      { Loadgen.workers = domains; backend; duration_ms; warmup_ms; mode;
        seed; think_us }
    in
    if sweep && trace_out <> None then
      fail "--trace records a single run; drop --sweep";
    (match tier with
    | `Adaptive when sweep ->
      fail "--tier adaptive drives a live controller; drop --sweep"
    | _ -> ());
    if sweep then begin
      let domain_counts = Sweep.default_domain_counts () in
      let progress (c : Sweep.cell) =
        Format.fprintf ppf "%a@." Report.pp c.Sweep.report
      in
      match
        Sweep.run ~params ~tier ~progress ~problem ~mechanism ~base
          ~domain_counts ()
      with
      | Error e -> fail e
      | Ok cells ->
        (match json with
        | None -> ()
        | Some file ->
          Sync_metrics.Emit.write_file file
            (Sweep.sweep_to_json ~problem ~mechanism ~base cells);
          Format.fprintf ppf "wrote %s@." file)
    end
    else
      match Target.create ~params ~tier ~problem ~mechanism () with
      | Error e -> fail e
      | Ok instance ->
        let flips = ref 0 in
        let decisions = ref [] in
        let samples = ref 0 in
        let go () =
          let exec () =
            try Loadgen.run instance base
            with Invalid_argument m -> fail ("invalid config: " ^ m)
          in
          match tier with
          | `Adaptive ->
            let r, ctrl = Sync_adaptive.Controller.with_controller exec in
            flips := Sync_adaptive.Controller.flips ctrl;
            decisions := Sync_adaptive.Controller.decisions ctrl;
            samples := Sync_adaptive.Controller.samples ctrl;
            r
          | _ -> exec ()
        in
        (* The adaptive controller reads the live probe rings, so the
           run is traced even without --trace. *)
        let traced =
          trace_out <> None
          || match tier with `Adaptive -> true | _ -> false
        in
        let report, events =
          if traced then Sync_trace.Probe.with_tracing go else (go (), [])
        in
        (match tier with
        | `Adaptive ->
          Format.fprintf ppf
            "adaptive controller: %d tier flip(s) over %d sample(s)@." !flips
            !samples;
          List.iter
            (fun (d : Sync_adaptive.Controller.decision) ->
              Format.fprintf ppf
                "  flip %-24s -> %-8s (wait %.0f ns, wait/hold %.2f)@."
                d.Sync_adaptive.Controller.d_site
                (Sync_platform.Mutex.tier_name
                   d.Sync_adaptive.Controller.d_tier)
                d.Sync_adaptive.Controller.d_wait_ns
                d.Sync_adaptive.Controller.d_ratio)
            !decisions
        | _ -> ());
        if csv then begin
          print_endline Report.csv_header;
          List.iter print_endline (Report.csv_rows report)
        end
        else Format.fprintf ppf "%a@." Report.pp report;
        (match trace_out with
        | None -> ()
        | Some file ->
          let label = Printf.sprintf "%s/%s" mechanism problem in
          let profile =
            Sync_trace.Profile.of_events
              ~dropped:(Sync_trace.Probe.dropped ()) events
          in
          Format.fprintf ppf "@.%a@." Sync_trace.Profile.pp profile;
          Sync_trace.Chrome.write_file file [ (label, events) ];
          Format.fprintf ppf "wrote %s (%d events)@." file
            (List.length events));
        (match json with
        | None -> ()
        | Some file ->
          Report.write_json file report;
          Format.fprintf ppf "wrote %s@." file)
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(const run $ mechanism $ problem $ domains $ duration_ms $ warmup_ms
          $ mode_arg $ rate $ arrival_arg $ backend_arg $ seed $ capacity
          $ work $ read_pct $ tracks $ hot_pct $ think_us_arg $ sweep
          $ tier_arg $ json $ csv $ trace_out)

let hierarchy_cmd =
  let doc =
    "Score the hardware-primitive hierarchy (experiment E25): rebuild every \
     mechanism x problem load target with the platform's mutexes and \
     semaphores constructed from one restricted atomic class — read/write \
     registers (bakery), CAS, fetch-and-add (ticket), emulated LL/SC — \
     drive each supported cell with the E20 workload engine, and record \
     typed unsupported reasons for the rest."
  in
  let list_arg name ~doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"LIST" ~doc)
  in
  let classes_arg =
    list_arg "classes"
      ~doc:"comma-separated atomic classes to run (rw, cas, faa, llsc, \
            native); default all five"
  in
  let problems_arg =
    list_arg "problems"
      ~doc:"comma-separated problems (default bounded-buffer,fcfs,\
            readers-writers)"
  in
  let mechanisms_arg =
    list_arg "mechanisms"
      ~doc:"comma-separated mechanisms (default: every mechanism the \
            workload engine offers for each problem)"
  in
  let domains_arg =
    list_arg "domains"
      ~doc:"comma-separated worker domain counts (default 1,4)"
  in
  let duration_ms =
    Arg.(value & opt (some int) None
         & info [ "duration" ] ~docv:"MS"
             ~doc:"steady-state window per cell (default $(b,SYNC_LOAD_MS) \
                   or 100)")
  in
  let warmup_ms =
    Arg.(value & opt int 30
         & info [ "warmup" ] ~docv:"MS" ~doc:"warmup window per cell")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"workload seed")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"also write the scorecard grid as a JSON document (the \
                   committed BENCH_E25.json shape)")
  in
  let fail msg =
    Format.fprintf ppf "%s@." msg;
    exit 2
  in
  let split = function
    | None -> None
    | Some s ->
      Some
        (List.filter (fun x -> x <> "")
           (List.map String.trim (String.split_on_char ',' s)))
  in
  let run classes problems mechanisms domains duration_ms warmup_ms seed json
      =
    let module H = Sync_eval.Hierarchy_axis in
    let dflt = H.default_spec () in
    let classes =
      match split classes with
      | None -> dflt.H.classes
      | Some cs ->
        List.map
          (fun s ->
            match Sync_prims.Prims.cls_of_string s with
            | Some c -> c
            | None ->
              fail
                (Printf.sprintf
                   "unknown class %S (rw | cas | faa | llsc | native)" s))
          cs
    in
    let domains =
      match split domains with
      | None -> dflt.H.domains
      | Some ds ->
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some d when d >= 1 -> d
            | _ -> fail (Printf.sprintf "bad domain count %S" s))
          ds
    in
    let spec =
      { H.classes;
        problems = Option.value (split problems) ~default:dflt.H.problems;
        mechanisms = split mechanisms;
        domains;
        duration_ms =
          (match duration_ms with
          | Some ms -> ms
          | None -> dflt.H.duration_ms);
        warmup_ms; seed }
    in
    let progress (r : H.row) =
      Format.fprintf ppf "%-6s %-16s %-12s d=%-2d %s@."
        (Sync_prims.Prims.cls_name r.H.cls)
        r.H.problem r.H.mechanism r.H.domains
        (H.status_string r.H.status)
    in
    let rows = H.run ~progress spec in
    Format.fprintf ppf "@.%a" H.pp rows;
    (match json with
    | None -> ()
    | Some file ->
      Sync_metrics.Emit.write_file file (H.to_json spec rows);
      Format.fprintf ppf "wrote %s@." file);
    if not (H.all_ok rows) then exit 1
  in
  Cmd.v (Cmd.info "hierarchy" ~doc)
    Term.(const run $ classes_arg $ problems_arg $ mechanisms_arg
          $ domains_arg $ duration_ms $ warmup_ms $ seed $ json)

let scaling_cmd =
  let doc =
    "Score the scalable-lock tier (experiment E23): rebuild mechanism x \
     problem load targets with every platform mutex a local-spin queue \
     lock (MCS, CLH, proportional-backoff ticket) and measure each cell; \
     absent pairs become typed unsupported rows. Then drive the \
     readers-writers database on the epoch read-mostly path at increasing \
     domain counts with closed-loop think time and report whether read \
     throughput scales monotonically."
  in
  let list_arg name ~doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"LIST" ~doc)
  in
  let kinds_arg =
    list_arg "kinds"
      ~doc:"comma-separated queue-lock kinds (mcs, clh, ticket); default \
            all three"
  in
  let problems_arg =
    list_arg "problems"
      ~doc:"comma-separated problems (default bounded-buffer,\
            readers-writers)"
  in
  let mechanisms_arg =
    list_arg "mechanisms"
      ~doc:"comma-separated mechanisms for the queue grid (default \
            semaphore,monitor,ccr,eventcount,epoch; absent pairs yield \
            typed rows)"
  in
  let domains_arg =
    list_arg "domains"
      ~doc:"comma-separated worker domain counts for the queue grid \
            (default 1,4)"
  in
  let epoch_domains_arg =
    list_arg "epoch-domains"
      ~doc:"comma-separated domain counts for the epoch scaling rows \
            (default 1,2,4)"
  in
  let think_us =
    Arg.(value & opt (some int) None
         & info [ "think-us" ] ~docv:"US"
             ~doc:"closed-loop think time for the epoch rows (default 500)")
  in
  let duration_ms =
    Arg.(value & opt (some int) None
         & info [ "duration" ] ~docv:"MS"
             ~doc:"steady-state window per cell (default $(b,SYNC_LOAD_MS) \
                   or 150)")
  in
  let warmup_ms =
    Arg.(value & opt int 50
         & info [ "warmup" ] ~docv:"MS" ~doc:"warmup window per cell")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"workload seed")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"also write the grids as a JSON document (the committed \
                   BENCH_E23.json shape)")
  in
  let fail msg =
    Format.fprintf ppf "%s@." msg;
    exit 2
  in
  let split = function
    | None -> None
    | Some s ->
      Some
        (List.filter (fun x -> x <> "")
           (List.map String.trim (String.split_on_char ',' s)))
  in
  let run kinds problems mechanisms domains epoch_domains think_us duration_ms
      warmup_ms seed json =
    let module S = Sync_eval.Scaling_axis in
    let dflt = S.default_spec () in
    let kinds =
      match split kinds with
      | None -> dflt.S.kinds
      | Some ks ->
        List.map
          (fun s ->
            match Sync_prims.Queuelock.kind_of_string s with
            | Some k -> k
            | None ->
              fail (Printf.sprintf "unknown kind %S (mcs | clh | ticket)" s))
          ks
    in
    let ints name dflt = function
      | None -> dflt
      | Some ds ->
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some d when d >= 1 -> d
            | _ -> fail (Printf.sprintf "bad %s count %S" name s))
          ds
    in
    let spec =
      { S.kinds;
        problems = Option.value (split problems) ~default:dflt.S.problems;
        mechanisms =
          Option.value (split mechanisms) ~default:dflt.S.mechanisms;
        domains = ints "domain" dflt.S.domains (split domains);
        epoch_mechanisms = dflt.S.epoch_mechanisms;
        epoch_domains =
          ints "domain" dflt.S.epoch_domains (split epoch_domains);
        think_us = Option.value think_us ~default:dflt.S.think_us;
        read_pct = dflt.S.read_pct;
        duration_ms =
          (match duration_ms with
          | Some ms -> ms
          | None -> dflt.S.duration_ms);
        warmup_ms; seed }
    in
    let progress_queue (r : S.queue_row) =
      Format.fprintf ppf "%-7s %-16s %-12s d=%-2d %s@."
        (Sync_prims.Queuelock.kind_name r.S.kind)
        r.S.problem r.S.mechanism r.S.domains
        (S.status_string r.S.status)
    in
    let progress_epoch (r : S.epoch_row) =
      Format.fprintf ppf "epoch   %-12s d=%-2d %s@." r.S.e_mechanism
        r.S.e_domains
        (S.status_string r.S.e_status)
    in
    let t = S.run ~progress_queue ~progress_epoch spec in
    Format.fprintf ppf "@.%a" S.pp t;
    (match json with
    | None -> ()
    | Some file ->
      Sync_metrics.Emit.write_file file (S.to_json spec t);
      Format.fprintf ppf "wrote %s@." file);
    if not (S.all_ok t) then exit 1
  in
  Cmd.v (Cmd.info "scaling" ~doc)
    Term.(const run $ kinds_arg $ problems_arg $ mechanisms_arg $ domains_arg
          $ epoch_domains_arg $ think_us $ duration_ms $ warmup_ms $ seed
          $ json)

let adapt_cmd =
  let doc =
    "Score the self-tuning tier (experiment E27): run each problem x \
     arrival-process x domain cell on every static platform tier and on \
     the adaptive tier, where a feedback controller retiers hot-swappable \
     mutex sites live from the contention probes. Probe tracing is on for \
     every row so tier-to-tier ratios stay honest. Reports whether the \
     adaptive rows ever fall below the worst static tier and how often \
     they match the best."
  in
  let list_arg name ~doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"LIST" ~doc)
  in
  let cells_arg =
    list_arg "cells"
      ~doc:"comma-separated problem:mechanism cells (default \
            bounded-buffer:semaphore,readers-writers:monitor,\
            alarm-clock:wheel)"
  in
  let arrivals_arg =
    list_arg "arrivals"
      ~doc:"comma-separated arrival processes (poisson, uniform, diurnal, \
            bursty); default poisson,diurnal,bursty"
  in
  let domains_arg =
    list_arg "domains"
      ~doc:"comma-separated worker domain counts (default 4)"
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"OPS_PER_S"
             ~doc:"open-loop aggregate arrival rate (default 20000)")
  in
  let duration_ms =
    Arg.(value & opt (some int) None
         & info [ "duration" ] ~docv:"MS"
             ~doc:"steady-state window per cell (default $(b,SYNC_LOAD_MS) \
                   or 150)")
  in
  let warmup_ms =
    Arg.(value & opt int 50
         & info [ "warmup" ] ~docv:"MS" ~doc:"warmup window per cell")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"workload seed")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"also write the grid as a JSON document (the E27 \
                   experiment envelope)")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"exit 1 unless the adaptive rows held the \
                   never-below-worst-static claim (the CI sanity gate)")
  in
  let fail msg =
    Format.fprintf ppf "%s@." msg;
    exit 2
  in
  let split = function
    | None -> None
    | Some s ->
      Some
        (List.filter (fun x -> x <> "")
           (List.map String.trim (String.split_on_char ',' s)))
  in
  let run cells arrivals domains rate duration_ms warmup_ms seed json strict =
    let module A = Sync_eval.Adaptive_axis in
    let dflt = A.default_spec () in
    let cells =
      match split cells with
      | None -> dflt.A.cells
      | Some cs ->
        List.map
          (fun s ->
            match String.split_on_char ':' s with
            | [ p; m ] -> (p, m)
            | _ -> fail (Printf.sprintf "bad cell %S (problem:mechanism)" s))
          cs
    in
    let arrivals =
      match split arrivals with
      | None -> dflt.A.arrivals
      | Some xs ->
        List.map
          (fun s ->
            match Sync_workload.Loadgen.arrival_of_string s with
            | Some a -> a
            | None ->
              fail
                (Printf.sprintf
                   "unknown arrival %S (poisson | uniform | diurnal | \
                    bursty)"
                   s))
          xs
    in
    let domains =
      match split domains with
      | None -> dflt.A.domains
      | Some ds ->
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some d when d >= 1 -> d
            | _ -> fail (Printf.sprintf "bad domain count %S" s))
          ds
    in
    let spec =
      { dflt with
        A.cells; arrivals; domains;
        rate_per_s = Option.value rate ~default:dflt.A.rate_per_s;
        duration_ms =
          (match duration_ms with
          | Some ms -> ms
          | None -> dflt.A.duration_ms);
        warmup_ms; seed }
    in
    let progress (r : A.row) =
      Format.fprintf ppf "%-16s %-10s %-8s d=%-2d %-9s %s@." r.A.problem
        r.A.mechanism
        (Sync_workload.Loadgen.arrival_name r.A.arrival)
        r.A.domains r.A.tier
        (A.status_string r.A.status)
    in
    let t = A.run ~progress spec in
    Format.fprintf ppf "@.%a" A.pp t;
    (match json with
    | None -> ()
    | Some file ->
      Sync_metrics.Emit.write_file file (A.to_json spec t);
      Format.fprintf ppf "wrote %s@." file);
    if not (A.all_ok t) then exit 1;
    if strict && not (A.never_worst ~slack:spec.A.never_worst_slack t) then begin
      Format.fprintf ppf
        "adaptive fell below the worst static tier on some cell@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "adapt" ~doc)
    Term.(const run $ cells_arg $ arrivals_arg $ domains_arg $ rate
          $ duration_ms $ warmup_ms $ seed $ json $ strict)

let anomaly_cmd =
  let doc =
    "Reproduce footnote 3 (experiment E1): in the Figure 1 path solution a \
     second writer overtakes a waiting reader; the monitor, serializer, \
     baton-semaphore and CSP readers-priority solutions hand the resource \
     to the reader in the identical staging."
  in
  let run () =
    let show name m =
      let outcome = Sync_problems.Rw_harness.scenario_writer_handoff m in
      Format.fprintf ppf "%-34s -> %s@." name
        (Sync_problems.Rw_harness.outcome_to_string outcome)
    in
    Format.fprintf ppf
      "Staging: W1 mid-write; W2 then R queue up; W1 releases.@.";
    Format.fprintf ppf
      "Correct readers-priority hands over to R (reader-first).@.@.";
    show "pathexpr fig1 (paper Figure 1)" (module Sync_problems.Rw_path.Fig1);
    show "monitor readers-priority" (module Sync_problems.Rw_mon.Readers_prio);
    show "serializer readers-priority"
      (module Sync_problems.Rw_ser.Readers_prio);
    show "semaphore baton readers-priority"
      (module Sync_problems.Rw_sem.Readers_prio_baton);
    show "semaphore Courtois problem 1"
      (module Sync_problems.Rw_sem.Readers_prio);
    show "csp readers-priority" (module Sync_problems.Rw_csp.Readers_prio)
  in
  Cmd.v (Cmd.info "anomaly" ~doc) Term.(const run $ const ())

let trace_cmd =
  let doc =
    "Two modes. With $(b,--out FILE): run a short traced contended load on \
     every registered mechanism (experiment E21) and write the combined \
     structured event trace as Chrome trace_event JSON — load it in \
     chrome://tracing or Perfetto; one process lane per mechanism. \
     Without $(b,--out): print the annotated event trace of the \
     footnote-3 staging (E1) for a readers-writers solution (pids 200/201 \
     are the writers, pid 1 the reader)."
  in
  let which =
    Arg.(value & pos 0 string "fig1" & info [] ~docv:"SOLUTION"
           ~doc:"E1 mode: fig1 | monitor | serializer | baton | courtois | \
                 csp | ccr")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"E21 mode: write the all-mechanism Chrome trace here")
  in
  let duration_ms =
    Arg.(value & opt int 25 & info [ "duration-ms" ] ~docv:"MS"
           ~doc:"E21 mode: traced steady-state window per mechanism")
  in
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"E21 mode: also print each mechanism's compact text \
                   timeline (first 40 events)")
  in
  let run_traced out duration_ms timeline =
    let traced =
      Sync_eval.Observability.run_traced ~duration_ms ()
    in
    let rows = List.map (fun t -> t.Sync_eval.Observability.row) traced in
    Sync_eval.Observability.pp ppf rows;
    List.iter
      (fun (t : Sync_eval.Observability.traced) ->
        Format.fprintf ppf "@.-- %s --@.%a"
          t.Sync_eval.Observability.row.Sync_eval.Observability.mechanism
          Sync_trace.Profile.pp t.Sync_eval.Observability.profile;
        if timeline then begin
          let rec take n = function
            | x :: rest when n > 0 -> x :: take (n - 1) rest
            | _ -> []
          in
          Sync_trace.Timeline.pp ppf (take 40 t.Sync_eval.Observability.events)
        end)
      traced;
    let groups =
      List.map
        (fun (t : Sync_eval.Observability.traced) ->
          ( t.Sync_eval.Observability.row.Sync_eval.Observability.mechanism,
            t.Sync_eval.Observability.events ))
        traced
    in
    Sync_trace.Chrome.write_file out groups;
    Format.fprintf ppf "@.wrote %s (%d mechanisms)@." out (List.length groups);
    if not (Sync_eval.Observability.all_ok rows) then exit 1
  in
  let run which out duration_ms timeline =
    match out with
    | Some out -> run_traced out duration_ms timeline
    | None ->
    let m =
      match which with
      | "fig1" -> Some (module Sync_problems.Rw_path.Fig1 : Sync_problems.Rw_intf.S)
      | "monitor" -> Some (module Sync_problems.Rw_mon.Readers_prio)
      | "serializer" -> Some (module Sync_problems.Rw_ser.Readers_prio)
      | "baton" -> Some (module Sync_problems.Rw_sem.Readers_prio_baton)
      | "courtois" -> Some (module Sync_problems.Rw_sem.Readers_prio)
      | "csp" -> Some (module Sync_problems.Rw_csp.Readers_prio)
      | "ccr" -> Some (module Sync_problems.Rw_ccr.Readers_prio)
      | _ -> None
    in
    match m with
    | None ->
      Format.fprintf ppf "unknown solution %S@." which;
      exit 2
    | Some m ->
      let outcome, events =
        Sync_problems.Rw_harness.scenario_writer_handoff_trace m
      in
      List.iter
        (fun e -> Format.fprintf ppf "%a@." Sync_platform.Trace.pp_event e)
        events;
      Format.fprintf ppf "outcome: %s@."
        (Sync_problems.Rw_harness.outcome_to_string outcome)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ which $ out $ duration_ms $ timeline)

let run_cmd =
  let doc = "Run one solution's conformance checks." in
  let problem =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROBLEM")
  in
  let mechanism =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"MECHANISM")
  in
  let variant =
    Arg.(value & opt string "default" & info [ "variant" ] ~docv:"VARIANT")
  in
  let run problem mechanism variant =
    match Sync_eval.Registry.find ~problem ~variant ~mechanism with
    | None ->
      Format.fprintf ppf "unknown solution %s/%s@%s (try 'list')@." problem
        variant mechanism;
      exit 2
    | Some e -> (
      match e.verify () with
      | Ok () -> Format.fprintf ppf "pass@."
      | Error msg ->
        Format.fprintf ppf "FAIL: %s@." msg;
        if e.expect_conformant then exit 1
        else Format.fprintf ppf "(expected: documented anomaly)@.")
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ problem $ mechanism $ variant)

let paths_cmd =
  let doc = "Parse a path-expression spec and echo its AST rendering." in
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let run src =
    match Sync_pathexpr.Parser.parse src with
    | spec ->
      Format.fprintf ppf "%s@.operations: %s@."
        (Sync_pathexpr.Ast.to_string spec)
        (String.concat ", " (Sync_pathexpr.Ast.ops spec))
    | exception Sync_pathexpr.Parser.Syntax_error msg ->
      Format.fprintf ppf "syntax error: %s@." msg;
      exit 1
  in
  Cmd.v (Cmd.info "paths" ~doc) Term.(const run $ src)

let nested_cmd =
  let doc =
    "Demonstrate the nested-monitor-call problem (experiment E11): the \
     naive structure deadlocks, the paper's Section-2 structure does not."
  in
  let run () =
    let open Sync_monitor in
    let open Sync_platform in
    let demo ~structure access_fn =
      let outer = Monitor.create () in
      let inner = Monitor.create () in
      let cond = Monitor.Cond.create inner in
      let l = Latch.create 2 in
      let consumer =
        Process.spawn ~backend:`Thread (fun () ->
            access_fn outer (fun () ->
                Monitor.with_monitor inner (fun () -> Monitor.Cond.wait cond));
            Latch.arrive l)
      in
      ignore consumer;
      Thread.delay 0.1;
      let producer =
        Process.spawn ~backend:`Thread (fun () ->
            access_fn outer (fun () ->
                Monitor.with_monitor inner (fun () ->
                    Monitor.Cond.signal cond));
            Latch.arrive l)
      in
      ignore producer;
      let finished = Latch.wait_timeout l ~timeout_ns:500_000_000L in
      Format.fprintf ppf "%-28s -> %s@." structure
        (if finished then "completes" else "DEADLOCK (detected by timeout)")
    in
    demo ~structure:"resource inside monitor" (fun m f ->
        Protected.access_inside m f);
    demo ~structure:"paper's Section-2 structure" (fun m f ->
        Protected.access m ~before:(fun () -> ()) ~after:(fun () -> ()) f)
  in
  Cmd.v (Cmd.info "nested" ~doc) Term.(const run $ const ())

let explore_cmd =
  let doc =
    "Explore deterministic schedules of a scenario (E18): run the real \
     mechanism implementation under controlled interleavings with a seeded \
     random walk, PCT priority fuzzing, bounded exhaustive DFS or DPOR. \
     Failing schedules print their seed and schedule string and shrink to \
     a minimal counterexample; with no SCENARIO, lists the catalog. Exits \
     0 when no failure is found (dfs/dpor: over the whole tree), 1 on a \
     failing schedule, 2 on a usage error, and 3 when dfs/dpor spent the \
     schedule budget without covering the tree."
  in
  let open Sync_detsched in
  let scenario_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCENARIO"
           ~doc:"Scenario name from the catalog (try with no argument).")
  in
  let strategy =
    Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:"random | pct | dfs | dpor")
  in
  let dpor_flag =
    Arg.(value & flag & info [ "dpor" ]
           ~doc:"Shorthand for --strategy dpor (dynamic partial-order \
                 reduction: complete coverage of the dependency-equivalence \
                 classes within the schedule budget).")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Domains for dpor: partitions the top-level backtrack \
                 frontier. Keep 1 for scenarios using the process-global \
                 fault registry (the storm-* entries).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Base seed for random/pct.")
  in
  let runs =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N"
           ~doc:"Seeds to try for random/pct.")
  in
  let max_schedules =
    Arg.(value & opt int 10_000 & info [ "max-schedules" ] ~docv:"N"
           ~doc:"Schedule budget for dfs and dpor. A search that spends \
                 it without covering the whole tree and without finding a \
                 failure exits 3.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"SCHEDULE"
             ~doc:"Replay one recorded schedule string (as printed by a \
                   failing run) under event tracing and print the compact \
                   timeline of what every task did, instead of exploring.")
  in
  let list_catalog () =
    List.iter
      (fun (e : Scenarios.entry) ->
        Format.fprintf ppf "%-16s %s  [%s]@." e.scen.Detsched.name
          e.scen.Detsched.descr
          (match e.expect with
          | Scenarios.Pass -> "expected: pass"
          | Scenarios.Fail -> "expected: failing schedules exist"))
      Scenarios.all
  in
  let report_failure sc seed v =
    Format.fprintf ppf "FAIL seed=%d: %s@." seed (Detsched.verdict_message v);
    Format.fprintf ppf "  schedule: %s@."
      (Detsched.Schedule.to_string v.Detsched.outcome.Detsched.schedule);
    let s = Detsched.shrink sc v.Detsched.outcome.Detsched.schedule in
    Format.fprintf ppf "  shrunk (%d replays): %s@." s.Detsched.attempts
      (Detsched.Schedule.to_string s.Detsched.shrunk);
    Format.fprintf ppf "  %s@." s.Detsched.message
  in
  (* Exit 1 on a failing schedule, 3 when the budget ran out before the
     tree was covered: an incomplete search proves nothing. *)
  let report_search ~complete failures =
    match failures with
    | (sched, msg) :: _ ->
      Format.fprintf ppf "%d failing schedule(s), first:@.  %s@.  %s@."
        (List.length failures)
        (Detsched.Schedule.to_string sched)
        msg;
      exit 1
    | [] when complete -> Format.fprintf ppf "no failing schedule@."
    | [] ->
      Format.fprintf ppf
        "no failing schedule within the budget; the search is incomplete@.";
      exit 3
  in
  let replay_traced sc sched_str =
    let sched =
      try Detsched.Schedule.of_string sched_str
      with _ ->
        Format.fprintf ppf "unparseable schedule %S@." sched_str;
        exit 2
    in
    let v, events =
      Sync_trace.Probe.with_tracing (fun () -> Detsched.replay sc sched)
    in
    Sync_trace.Timeline.pp ppf events;
    if Detsched.verdict_ok v then Format.fprintf ppf "verdict: ok@."
    else begin
      Format.fprintf ppf "verdict: %s@." (Detsched.verdict_message v);
      exit 1
    end
  in
  let run name strategy dpor_flag workers seed runs max_schedules replay =
    let strategy = if dpor_flag then "dpor" else strategy in
    match name with
    | None -> list_catalog ()
    | Some name -> (
      match Scenarios.find name with
      | None ->
        Format.fprintf ppf "unknown scenario %S; catalog:@." name;
        list_catalog ();
        exit 2
      | Some e -> (
        let sc = e.Scenarios.scen in
        match replay with
        | Some sched_str -> replay_traced sc sched_str
        | None -> (
        match strategy with
        | "random" | "pct" -> (
          let strat = if strategy = "pct" then `Pct else `Random in
          let r =
            Detsched.sample ~runs ~base_seed:seed ~strategy:strat sc
          in
          match r.Detsched.failure with
          | None ->
            Format.fprintf ppf "%s: %d %s runs ok (seeds %d..%d)@." name
              r.Detsched.runs strategy seed (seed + runs - 1)
          | Some (bad_seed, v) ->
            report_failure sc bad_seed v;
            exit 1)
        | "dfs" ->
          let r = Detsched.explore_dfs ~max_schedules sc in
          Format.fprintf ppf
            "%s: %d schedules explored (%s), deepest %d decisions@." name
            r.Detsched.explored
            (if r.Detsched.complete then "complete" else "budget hit")
            r.Detsched.deepest;
          report_search ~complete:r.Detsched.complete r.Detsched.failures
        | "dpor" ->
          let r = Detsched.explore_dpor ~max_schedules ~workers sc in
          Format.fprintf ppf
            "%s: %d schedules explored (%s), deepest %d decisions, %d \
             races, %d workers, %.0f sched/s@."
            name r.Detsched.explored
            (if r.Detsched.complete then "complete: every equivalence class"
             else "budget hit")
            r.Detsched.deepest r.Detsched.races r.Detsched.workers
            r.Detsched.per_sec;
          let per_class s =
            s *. 1e6 /. float_of_int (max 1 r.Detsched.explored)
          in
          Format.fprintf ppf
            "  replay %.3f s (%.1f us/class), analysis %.3f s (%.1f \
             us/class)@."
            r.Detsched.replay_secs
            (per_class r.Detsched.replay_secs)
            r.Detsched.analysis_secs
            (per_class r.Detsched.analysis_secs);
          report_search ~complete:r.Detsched.complete r.Detsched.failures
        | s ->
          Format.fprintf ppf
            "unknown strategy %S (random | pct | dfs | dpor)@." s;
          exit 2)))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const run $ scenario_arg $ strategy $ dpor_flag $ workers $ seed
          $ runs $ max_schedules $ replay_arg)

let exploration_cmd =
  let doc =
    "Run the exploration axis (experiment E26): naive bounded DFS vs \
     dynamic partial-order reduction over the scenario catalog at a shared \
     schedule budget per row. Rows where DFS completes cross-check the two \
     engines (identical failure modes, DPOR explores no more); rows where \
     only DPOR completes verify every dependency-equivalence class of \
     trees DFS cannot finish. Exits non-zero if any ground-truth row \
     disagrees."
  in
  let deep =
    Arg.(value & flag & info [ "deep" ]
           ~doc:"Add the frontier shapes (larger instances and budgets; \
                 used by the non-blocking dpor-deep CI job).")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Domains per DPOR run (storm rows stay on 1).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the rows as a JSON document.")
  in
  let run deep workers json =
    let progress (r : Sync_eval.Exploration.row) =
      Format.fprintf ppf "  [%s] dfs %d%s  dpor %d%s@." r.scenario
        r.dfs.Sync_eval.Exploration.explored
        (if r.dfs.Sync_eval.Exploration.complete then " (complete)" else "")
        r.dpor.Sync_eval.Exploration.explored
        (if r.dpor.Sync_eval.Exploration.complete then " (complete)" else "")
    in
    let rows = Sync_eval.Exploration.run ~deep ~workers ~progress () in
    Format.fprintf ppf "@.";
    Sync_eval.Exploration.pp ppf rows;
    (match json with
    | None -> ()
    | Some file ->
      Sync_metrics.Emit.write_file file (Sync_eval.Exploration.to_json rows);
      Format.fprintf ppf "@.rows written to %s@." file);
    if Sync_eval.Exploration.sound rows then
      Format.fprintf ppf "@.all ground-truth rows agree@."
    else begin
      Format.fprintf ppf "@.EXPLORATION DISAGREEMENT — see rows above@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "exploration" ~doc) Term.(const run $ deep $ workers $ json)

let faults_cmd =
  let doc =
    "Run the robustness matrix (experiment E19): every mechanism x {bounded \
     buffer, readers-writers, FCFS} under injected aborts (threaded, \
     deterministic fault plans) and cancellation/timeout storms \
     (deterministic runtime: seeded random schedules + bounded DFS). Exits \
     non-zero unless every run recovered with its invariants intact."
  in
  let storm_runs =
    Arg.(value & opt int 8 & info [ "storm-runs" ] ~docv:"N"
           ~doc:"Random-schedule seeds per storm scenario.")
  in
  let run storm_runs =
    Format.fprintf ppf
      "fault plans seeded (mixed-prob seed 42, storm plan seed 7); storm \
       schedules use seeds 1..%d — failing rows name the seed or DFS \
       schedule to replay@.@."
      storm_runs;
    let progress r =
      Format.fprintf ppf "  [%s/%s %s] %d/%d  %s@."
        r.Sync_eval.Robustness.mechanism r.Sync_eval.Robustness.problem
        r.Sync_eval.Robustness.scenario r.Sync_eval.Robustness.recovered
        r.Sync_eval.Robustness.runs r.Sync_eval.Robustness.detail
    in
    let rows = Sync_eval.Robustness.run ~storm_runs ~progress () in
    Format.fprintf ppf "@.";
    Sync_eval.Robustness.pp ppf rows;
    if Sync_eval.Robustness.all_recovered rows then
      Format.fprintf ppf "@.all runs recovered@."
    else begin
      Format.fprintf ppf "@.ROBUSTNESS FAILURE(S) — see rows above@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const run $ storm_runs)

let serve_cmd =
  let doc =
    "Run the service-tier robustness scenarios (experiment E24): spawn real \
     bloom_serve daemons and check the load, chaos and crash-recovery \
     stories end to end — typed outcomes only, zero hung connections, \
     clean SIGTERM drains. Exits non-zero unless every scenario passed."
  in
  let run () =
    let progress (r : Sync_eval.Service_axis.row) =
      Format.fprintf ppf "  [%s] %s@." r.Sync_eval.Service_axis.scenario
        r.Sync_eval.Service_axis.detail
    in
    let rows = Sync_eval.Service_axis.run ~progress () in
    Format.fprintf ppf "@.";
    Sync_eval.Service_axis.pp ppf rows;
    if Sync_eval.Service_axis.all_ok rows then
      Format.fprintf ppf "@.every scenario recovered@."
    else begin
      Format.fprintf ppf "@.SERVICE FAILURE(S) — see rows above@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "serve" ~doc) Term.(const run $ const ())

let () =
  let doc =
    "Mechanized evaluation of synchronization mechanisms (Bloom, SOSP'79)"
  in
  let info = Cmd.info "bloom-eval" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; matrix_cmd; independence_cmd; modularity_cmd;
            conformance_cmd; scorecard_cmd; anomaly_cmd; run_cmd; paths_cmd;
            trace_cmd; nested_cmd; explore_cmd; exploration_cmd;
            faults_cmd; load_cmd; hierarchy_cmd; scaling_cmd; adapt_cmd;
            serve_cmd ]))
