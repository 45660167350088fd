(* The repo benchmark. One command runs one workload and prints, as its
   last line, one JSON object: whether every output checked out, how
   many operations were attempted and failed, and the metrics.

     main.exe --workload serve|contend|ladder|certify --seed N
              --seconds S --trace 0|1 --serve-exe PATH

   --trace 0 measures the workload for S seconds and reports the
   end-to-end metrics. --trace 1 is the separate traced run: it records
   spans around the benchmark's calls into each layer and reports every
   per-layer metric, so it runs each of the four workloads once on a
   shorter budget, and measures the tracing overhead on the selected
   workload against an untraced pass of it. See README.md. *)

let workloads = [ "serve"; "contend"; "ladder"; "certify" ]

let span_layers =
  [ "calib"; "platform"; "prims"; "trace"; "mechanism"; "problems";
    "resources"; "workload"; "serve"; "client"; "detsched" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve|contend|ladder|certify --seed N \
     --seconds S --trace 0|1 [--serve-exe PATH] [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and exe = ref "" and dir = ref ".perfbench" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--serve-exe", Arg.Set_string exe, "PATH to bloom_serve.exe");
      ("--out-dir", Arg.Set_string dir, "DIR for sockets and span files") ]
    (fun _ -> usage ())
    "perfbench";
  if not (List.mem !workload workloads) || !seed < 0 || !seconds <= 0.
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  Out.say "perfbench: workload %s, seed %d, %g s, trace %d" !workload !seed
    !seconds !trace;
  let run_one ~out ~spans ~seconds = function
    | "serve" ->
      if !exe = "" then usage ();
      Serve.run ~out ~spans ~seed:!seed ~seconds ~exe:!exe ~dir:!dir
    | "contend" -> Contend.run ~out ~spans ~seed:!seed ~seconds
    | "ladder" -> Ladder.run ~out ~spans ~seconds
    | _ -> Certify.run ~out ~spans ~seconds
  in
  let spans = Spans.buffer () in
  let result = Out.create () in
  let metrics =
    if !trace = 0 then begin
      run_one ~out:result ~spans ~seconds:!seconds !workload;
      List.rev result.e2e
    end
    else begin
      (* The overhead pass: the selected workload untraced, then traced,
         on the same short budget. *)
      let short = Float.max 2. (!seconds /. 4.) in
      let rate (r : Out.t) =
        List.find_map
          (fun (m : Out.metric) ->
            if m.name = "throughput_ops_s" then Some m.value else None)
          r.e2e
      in
      (* A workload that raises counts as one failure, and the run goes
         on to the next, so the result line is still printed. *)
      let run_caught ~out ~seconds w =
        try run_one ~out ~spans ~seconds w
        with e -> Out.fail out (Printf.sprintf "%s: %s" w (Printexc.to_string e))
      in
      let plain = Out.create () in
      run_caught ~out:plain ~seconds:short !workload;
      Out.merge_counts ~into:result plain;
      Spans.enable ();
      let layers =
        List.map
          (fun w ->
            let r = Out.create () in
            run_caught ~out:r ~seconds:short w;
            Out.merge_counts ~into:result r;
            (match (w = !workload, rate plain, rate r) with
            | true, Some untraced, Some traced ->
              let overhead = 100. *. ((untraced /. traced) -. 1.) in
              Out.say "tracing overhead on %s: throughput_ops_s %.1f traced vs \
                       %.1f untraced (%+.1f%%)"
                w traced untraced overhead;
              Out.layer result "bench.trace_overhead_pct" "%" overhead
            | _ -> ());
            List.rev r.layer)
          workloads
      in
      let all = Spans.all () in
      let file =
        Filename.concat !dir
          (Printf.sprintf "spans-%s-%d-%d.jsonl" !workload !seed (Unix.getpid ()))
      in
      Spans.write_file file all;
      let self = Spans.self_by_layer all in
      Out.say "spans: %d written to %s; self time per layer:" (List.length all) file;
      let self_metrics =
        List.map
          (fun l ->
            let ns = Option.value (List.assoc_opt l self) ~default:0 in
            Out.say "  %-10s %10.3f ms" l (float_of_int ns /. 1e6);
            { Out.name = "self_ms." ^ l; value = float_of_int ns /. 1e6; unit_ = "ms" })
          span_layers
      in
      List.concat layers @ List.rev result.layer @ self_metrics
    end
  in
  let fail_ratio =
    float_of_int result.failed /. float_of_int (max 1 result.attempted)
  in
  let metrics =
    if !trace = 1 then
      metrics @ [ { Out.name = "fail_ratio"; value = fail_ratio; unit_ = "ratio" } ]
    else metrics
  in
  Out.say "fail_ratio %.6f (%d failed of %d attempted)" fail_ratio result.failed
    result.attempted;
  List.iter
    (fun (m : Out.metric) ->
      if not (Float.is_finite m.value) then
        Out.fail result (Printf.sprintf "metric %s is not finite" m.name))
    metrics;
  let correct = result.failed = 0 in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1" in
  let body =
    String.concat ", "
      (List.map
         (fun (m : Out.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
             m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 result.attempted) result.failed body;
  exit (if correct then 0 else 1)
