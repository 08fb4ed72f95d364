(* swmodel: command-line front end.

   Predict, simulate and tune SWACC kernels on the simulated SW26010,
   and regenerate the paper's experiments. *)

open Cmdliner

let scale_arg =
  let doc = "Workload scale factor (1.0 = default evaluation size)." in
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun scale ->
        Sw_workloads.Registry.check_scale scale
        |> Result.map (fun () -> scale)
        |> Result.map_error (fun msg -> `Msg msg))
  in
  let scale = Arg.conv (parse, Arg.conv_printer Arg.float) in
  Arg.(value & opt scale 1.0 & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let kernel_arg =
  let doc = "Kernel name (see $(b,swmodel list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

let cgs_arg =
  let doc = "Core groups to use (1-4)." in
  Arg.(value & opt int 1 & info [ "cgs" ] ~docv:"N" ~doc)

let grain_arg =
  let doc = "Copy granularity in elements (the tile intrinsic)." in
  Arg.(value & opt (some int) None & info [ "grain" ] ~docv:"G" ~doc)

let unroll_arg =
  let doc = "Loop unroll factor." in
  Arg.(value & opt (some int) None & info [ "unroll" ] ~docv:"U" ~doc)

let cpes_arg =
  let doc = "Active CPEs." in
  Arg.(value & opt (some int) None & info [ "cpes" ] ~docv:"N" ~doc)

let db_arg =
  let doc = "Enable double buffering." in
  Arg.(value & flag & info [ "double-buffer" ] ~doc)

let domains_arg =
  let doc =
    "Assess work on $(docv) OCaml domains (0 = auto: \\$SWPM_DOMAINS or the host's recommended \
     count minus one).  Results are identical to a sequential run."
  in
  Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N" ~doc)

let pool_of domains =
  match domains with
  | None -> None
  | Some 0 -> Some (Sw_util.Pool.create ())
  | Some n -> Some (Sw_util.Pool.create ~size:n ())

let params_of_cgs cgs = Sw_arch.Params.with_cgs Sw_arch.Params.default cgs

let seed_arg =
  let doc =
    "Process-wide PRNG seed: the simulator's start jitter and every fault plan derive from it, \
     so two runs with the same seed are bit-identical."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let faults_arg =
  let doc =
    "Inject deterministic faults planned from $(docv): jittered latency/bandwidth, transient \
     DMA failures (modeled retry + exponential backoff), straggler CPEs and throttled memory \
     controllers.  Same seed, same faults."
  in
  Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"SEED" ~doc)

let fault_level_arg =
  let doc = "Fault severity for --faults: $(b,none), $(b,mild) or $(b,harsh)." in
  Arg.(value & opt string "mild" & info [ "fault-level" ] ~docv:"LEVEL" ~doc)

let fault_spec_of level =
  match Sw_fault.Fault.of_string level with
  | Some spec -> spec
  | None ->
      Printf.eprintf "swmodel: unknown fault level %S (available: none, mild, harsh)\n" level;
      exit 1

(* --seed sets the process-wide default and reseeds the simulator's
   start jitter; --faults then perturbs the configuration itself *)
let config_of params ~seed ~faults ~fault_level =
  Option.iter Sw_util.Prng.set_global_seed seed;
  let config =
    { (Sw_sim.Config.default params) with Sw_sim.Config.seed = Sw_util.Prng.global_seed () }
  in
  match faults with
  | None -> config
  | Some fseed -> Sw_fault.Fault.plan ~spec:(fault_spec_of fault_level) ~seed:fseed config

let backend_arg =
  let doc =
    "Cost backend: $(b,model) (static model), $(b,sim) (cycle-level simulator), $(b,hybrid) \
     (model + one profile), $(b,roofline) or $(b,surrogate) (learned ridge regressor fitted on \
     simulator-labelled samples).  Aliases: static, static-model, empirical, simulator."
  in
  Arg.(value & opt string "model" & info [ "backend"; "method" ] ~docv:"BACKEND" ~doc)

let json_arg =
  let doc = "Print the outcome as a JSON object instead of the human summary." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of this run's telemetry to $(docv) — load it at \
     chrome://tracing or https://ui.perfetto.dev.  Machine tracks tick in simulated cycles, \
     host tracks in wall-clock microseconds; results are unchanged by tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* write the sink out and tell the user what landed in it *)
let write_trace path sink =
  Sw_obs.Chrome.write path sink;
  Printf.printf "wrote %s (%d spans, %d counters)\n" path (Sw_obs.Sink.span_count sink)
    (List.length (Sw_obs.Sink.counters sink))

let variant_of entry grain unroll cpes db =
  let base = entry.Sw_workloads.Registry.variant in
  {
    Sw_swacc.Kernel.grain = Option.value grain ~default:base.Sw_swacc.Kernel.grain;
    unroll = Option.value unroll ~default:base.Sw_swacc.Kernel.unroll;
    active_cpes = Option.value cpes ~default:base.Sw_swacc.Kernel.active_cpes;
    double_buffer = db || base.Sw_swacc.Kernel.double_buffer;
  }

let lower_entry params entry scale variant =
  let kernel = entry.Sw_workloads.Registry.build ~scale in
  Sw_swacc.Lower.lower_exn params kernel variant

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Sw_workloads.Registry.entry) ->
        Printf.printf "%-14s %-9s %s\n" e.name
          (match e.kind with Sw_workloads.Registry.Regular -> "regular" | Irregular -> "irregular")
          e.description)
      Sw_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available kernels.") Term.(const run $ const ())

let table1_cmd =
  let run () = Format.printf "%a@." Sw_arch.Params.pp Sw_arch.Params.default in
  Cmd.v (Cmd.info "table1" ~doc:"Print the Table I machine parameters.") Term.(const run $ const ())

(* predict/tune/timeline delegate to Sw_serve.Handler — the same code
   path the daemon runs, so `--json` output here is bit-identical to a
   serve response's "result" for the same request *)
let handler_error msg =
  Printf.eprintf "swmodel: %s\n" msg;
  exit 1

let predict_cmd =
  let run name scale cgs grain unroll cpes db backend_name trace seed faults fault_level json =
    Option.iter Sw_util.Prng.set_global_seed seed;
    let req =
      {
        (Sw_serve.Handler.predict_defaults ~kernel:name) with
        Sw_serve.Handler.p_scale = scale;
        p_cgs = cgs;
        p_grain = grain;
        p_unroll = unroll;
        p_cpes = cpes;
        p_db = db;
        p_backend = backend_name;
        p_seed = seed;
        p_faults = faults;
        p_fault_level = fault_level;
      }
    in
    match (backend_name, trace, faults, json) with
    | ("model" | "static" | "static-model"), None, None, false ->
        let entry = Sw_workloads.Registry.find_exn name in
        let params = params_of_cgs cgs in
        let lowered = lower_entry params entry scale (variant_of entry grain unroll cpes db) in
        Format.printf "%a@.@.%a@." Sw_swacc.Lowered.pp_summary lowered.Sw_swacc.Lowered.summary
          Swpm.Predict.pp
          (Swpm.Predict.predict_lowered params lowered)
    | _ -> (
        let sink = Option.map (fun _ -> Sw_obs.Sink.create ()) trace in
        let state = Sw_serve.Handler.create () in
        match Sw_serve.Handler.predict state ?obs:sink req with
        | Error msg -> handler_error msg
        | Ok pr ->
            let v = pr.Sw_serve.Handler.pr_verdict in
            if json then
              print_endline (Sw_obs.Json.to_string (Sw_serve.Handler.predict_payload req pr))
            else begin
              (match v.Sw_backend.Backend.breakdown with
              | Some p -> Format.printf "%a@.@." Swpm.Predict.pp p
              | None -> ());
              Format.printf "%s: %.0f cycles (host %.3f s, machine %.0f us)@."
                pr.Sw_serve.Handler.pr_backend v.Sw_backend.Backend.cycles
                v.Sw_backend.Backend.cost.Sw_backend.Backend.host_wall_s
                v.Sw_backend.Backend.cost.Sw_backend.Backend.machine_us
            end;
            Option.iter (fun path -> write_trace path (Option.get sink)) trace)
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Price a kernel variant through a cost backend (default: the model).")
    Term.(
      const run $ kernel_arg $ scale_arg $ cgs_arg $ grain_arg $ unroll_arg $ cpes_arg $ db_arg
      $ backend_arg $ trace_arg $ seed_arg $ faults_arg $ fault_level_arg $ json_arg)

let simulate_cmd =
  let run name scale cgs grain unroll cpes db seed faults fault_level =
    let entry = Sw_workloads.Registry.find_exn name in
    let params = params_of_cgs cgs in
    let config = config_of params ~seed ~faults ~fault_level in
    let lowered =
      lower_entry config.Sw_sim.Config.params entry scale (variant_of entry grain unroll cpes db)
    in
    let row = Sw_backend.Accuracy.evaluate config lowered in
    Format.printf "%a@.@.Prediction:@.%a@.@.error: %.1f%%@." Sw_sim.Metrics.pp
      row.Sw_backend.Accuracy.measured Swpm.Predict.pp row.Sw_backend.Accuracy.predicted
      (Sw_backend.Accuracy.error row *. 100.0)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a kernel and compare against the model.")
    Term.(
      const run $ kernel_arg $ scale_arg $ cgs_arg $ grain_arg $ unroll_arg $ cpes_arg $ db_arg
      $ seed_arg $ faults_arg $ fault_level_arg)

let strategy_arg =
  let doc =
    "Search strategy: $(b,exhaustive) (assess every point), $(b,shortlist) (rank the space \
     with the $(b,--rank) backend, assess only the top $(b,--shortlist) points), \
     $(b,adaptive) (shortlist whose K doubles until the incumbent survives a whole rung) or \
     $(b,halving) (successive halving over event budgets).  Pruned strategies cut tuning cost; \
     the shortlist returns the exhaustive argmin whenever the ranker places the true best \
     into the top K."
  in
  Arg.(value & opt string "exhaustive" & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let rank_arg =
  let doc =
    "Ranking backend for $(b,--strategy) shortlist/adaptive/robust: any backend name \
     (e.g. $(b,surrogate) for the learned ranker); default the static model."
  in
  Arg.(value & opt (some string) None & info [ "rank" ] ~docv:"BACKEND" ~doc)

let shortlist_arg =
  let doc = "Shortlist size K for --strategy shortlist (0 = a quarter of the space)." in
  Arg.(value & opt int 0 & info [ "shortlist" ] ~docv:"K" ~doc)

let rungs_arg =
  let doc = "Number of budget rungs for --strategy halving." in
  Arg.(value & opt int 3 & info [ "rungs" ] ~docv:"N" ~doc)

let checkpoint_arg =
  let doc =
    "Crash-safe tuning: journal every assessed point to $(docv) (append-only JSON lines, \
     flushed per point).  Rerunning with the same $(docv) after an interruption replays the \
     journaled points and reaches a bit-identical argmin without re-assessing them."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let robust_arg =
  let doc =
    "Robust tuning: after the shortlist pass, re-assess every surviving point under $(docv) \
     seeded fault plans (severity from --fault-level) and pick the min-of-worst-case variant \
     (0 = off)."
  in
  Arg.(value & opt int 0 & info [ "robust" ] ~docv:"SEEDS" ~doc)

let workers_arg =
  let doc =
    "Sharded tuning: partition the space across $(docv) worker processes (by a stable hash of \
     the variant key), each journaling its shard and pruning against the global incumbent; the \
     coordinator merges the journals and returns the single-process argmin.  With --checkpoint \
     the per-shard journals persist as FILE.shard<i>of<N>, so a killed run resumes."
  in
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)

let max_restarts_arg =
  let doc =
    "Sharded tuning: relaunch a crashed (or hung, see --hang-timeout) worker up to $(docv) \
     times per shard, resuming from its journal to a bit-identical argmin.  A shard that \
     exhausts the budget is quarantined: the tune completes as a partial argmin over the \
     surviving shards and reports the quarantined shard numbers."
  in
  Arg.(value & opt int 2 & info [ "max-restarts" ] ~docv:"N" ~doc)

let hang_timeout_arg =
  let doc =
    "Sharded tuning: a worker whose link stays silent for $(docv) seconds (workers heartbeat \
     every 0.25s) is presumed hung, killed and relaunched under the --max-restarts budget \
     (0 = no hang detection)."
  in
  Arg.(value & opt float 0.0 & info [ "hang-timeout" ] ~docv:"SECS" ~doc)

let grains_arg =
  let doc =
    "Override the kernel's grain axis: $(b,lo..hi), $(b,lo..hi:step) or a comma list \
     $(b,a,b,c)."
  in
  Arg.(value & opt (some string) None & info [ "grains" ] ~docv:"AXIS" ~doc)

let unrolls_arg =
  let doc = "Override the kernel's unroll axis (same syntax as --grains)." in
  Arg.(value & opt (some string) None & info [ "unrolls" ] ~docv:"AXIS" ~doc)

let db_both_arg =
  let doc = "Search both double-buffer settings instead of only off." in
  Arg.(value & flag & info [ "db-both" ] ~doc)

let tune_cmd =
  let run name scale backend_name strategy_name rank shortlist_k rungs json domains trace seed
      faults fault_level checkpoint robust_seeds workers max_restarts hang_timeout grains
      unrolls db_both =
    Option.iter Sw_util.Prng.set_global_seed seed;
    let req =
      {
        (Sw_serve.Handler.tune_defaults ~kernel:name) with
        Sw_serve.Handler.t_scale = scale;
        t_backend = backend_name;
        t_strategy = strategy_name;
        t_rank = rank;
        t_shortlist = shortlist_k;
        t_rungs = rungs;
        t_robust = robust_seeds;
        t_seed = seed;
        t_faults = faults;
        t_fault_level = fault_level;
        t_checkpoint = checkpoint;
        t_workers = workers;
        t_max_restarts = max_restarts;
        t_hang_timeout_s = (if hang_timeout > 0.0 then Some hang_timeout else None);
        t_grains = grains;
        t_unrolls = unrolls;
        t_db_both = db_both;
      }
    in
    let sink = Option.map (fun _ -> Sw_obs.Sink.create ()) trace in
    let state = Sw_serve.Handler.create () in
    match Sw_serve.Handler.tune state ?pool:(pool_of domains) ?obs:sink req with
    | Error msg -> handler_error msg
    | Ok tr ->
        let outcome = tr.Sw_serve.Handler.tr_outcome in
        if json then
          print_endline (Sw_obs.Json.to_string (Sw_serve.Handler.tune_payload req tr))
        else
          Format.printf "%a@." Sw_tuning.Tuner.pp_outcome
            { outcome with Sw_tuning.Tuner.backend = tr.Sw_serve.Handler.tr_backend };
        Option.iter
          (fun path ->
            let sink = Option.get sink in
            (* one traced validation run of the winning variant gives
               the trace its machine timeline, reconciled against the
               simulator's own accounting *)
            let config =
              match Sw_serve.Handler.tune_config req with
              | Ok config -> config
              | Error msg -> handler_error msg
            in
            let entry = Sw_workloads.Registry.find_exn name in
            let kernel = entry.Sw_workloads.Registry.build ~scale in
            let lowered =
              Sw_swacc.Lower.lower_exn config.Sw_sim.Config.params kernel
                outcome.Sw_tuning.Tuner.best
            in
            let metrics, tr =
              Sw_obs.Probe.run_traced sink ~name:("best:" ^ name) config
                lowered.Sw_swacc.Lowered.programs
            in
            (match Sw_obs.Probe.reconcile metrics tr with
            | Ok () -> ()
            | Error msg -> Printf.eprintf "swmodel: trace reconciliation failed: %s\n" msg);
            write_trace path sink)
          trace
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Auto-tune a kernel's tile size and unroll factor under a cost backend.")
    Term.(
      const run $ kernel_arg $ scale_arg $ backend_arg $ strategy_arg $ rank_arg $ shortlist_arg
      $ rungs_arg $ json_arg $ domains_arg $ trace_arg $ seed_arg $ faults_arg $ fault_level_arg
      $ checkpoint_arg $ robust_arg $ workers_arg $ max_restarts_arg $ hang_timeout_arg
      $ grains_arg $ unrolls_arg $ db_both_arg)

let shard_worker_cmd =
  let run spec =
    match Sw_serve.Handler.worker_main spec with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "swmodel shard-worker: %s\n%!" msg;
        exit 1
  in
  let spec_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spec" ] ~docv:"JSON" ~doc:"Worker spec built by the coordinating tune.")
  in
  Cmd.v
    (Cmd.info "shard-worker"
       ~doc:
         "Internal: one shard of a sharded tune.  Launched by $(b,tune --workers N); searches \
          its shard with the cutoff link on stdin/stdout and journals every resolved point."
       ~docs:Cmdliner.Manpage.s_none)
    Term.(const run $ spec_arg)

let fig6_cmd =
  let run scale domains =
    Sw_experiments.Fig6.print (Sw_experiments.Fig6.run ~scale ?pool:(pool_of domains) ())
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Reproduce Fig. 6: model accuracy over the suite.")
    Term.(const run $ scale_arg $ domains_arg)

let fig7_cmd =
  let run () =
    Sw_experiments.Fig7.print_a (Sw_experiments.Fig7.run_a ());
    print_newline ();
    Sw_experiments.Fig7.print_b (Sw_experiments.Fig7.run_b ())
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Reproduce Fig. 7: K-Means DMA granularity and partition sweeps.")
    Term.(const run $ const ())

let fig8_cmd =
  let run scale = Sw_experiments.Fig8.print (Sw_experiments.Fig8.run ~scale ()) in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Reproduce Fig. 8: double-buffer benefit on N-body.")
    Term.(const run $ scale_arg)

let fig9_cmd =
  let run scale =
    let dyn = Sw_experiments.Fig9_10.run_dynamics ~scale () in
    let phys = Sw_experiments.Fig9_10.run_physics ~scale () in
    Sw_experiments.Fig9_10.print_fig9 dyn;
    print_newline ();
    Sw_experiments.Fig9_10.print_fig9 phys
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Reproduce Fig. 9: WRF kernels vs #active_CPEs.")
    Term.(const run $ scale_arg)

let fig10_cmd =
  let run scale =
    let dyn = Sw_experiments.Fig9_10.run_dynamics ~scale () in
    let phys = Sw_experiments.Fig9_10.run_physics ~scale () in
    Sw_experiments.Fig9_10.print_fig10 dyn;
    print_newline ();
    Sw_experiments.Fig9_10.print_fig10 phys
  in
  Cmd.v
    (Cmd.info "fig10" ~doc:"Reproduce Fig. 10: WRF measured time breakdown.")
    Term.(const run $ scale_arg)

let table2_cmd =
  let run scale domains =
    Sw_experiments.Table2.print (Sw_experiments.Table2.run ~scale ?pool:(pool_of domains) ())
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce Table II: static vs empirical auto-tuning.")
    Term.(const run $ scale_arg $ domains_arg)

let asm_cmd =
  let run name scale grain unroll cpes db annotate cpe_index =
    let entry = Sw_workloads.Registry.find_exn name in
    let params = Sw_arch.Params.default in
    let lowered = lower_entry params entry scale (variant_of entry grain unroll cpes db) in
    let programs = lowered.Sw_swacc.Lowered.programs in
    if cpe_index < 0 || cpe_index >= Array.length programs then
      invalid_arg (Printf.sprintf "CPE %d out of range (0..%d)" cpe_index (Array.length programs - 1));
    let annotate = if annotate then Some params else None in
    print_string (Sw_isa.Asm.render_program ?annotate programs.(cpe_index))
  in
  let annotate_arg =
    Arg.(value & flag & info [ "annotate" ] ~doc:"Include predicted issue cycles and ILP.")
  in
  let cpe_index_arg =
    Arg.(value & opt int 0 & info [ "cpe" ] ~docv:"N" ~doc:"Which CPE's program to print.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Print a lowered kernel's CPE program as annotated assembly.")
    Term.(
      const run $ kernel_arg $ scale_arg $ grain_arg $ unroll_arg $ cpes_arg $ db_arg
      $ annotate_arg $ cpe_index_arg)

let timeline_cmd =
  let run name scale grain unroll cpes db trace_out seed faults fault_level json =
    Option.iter Sw_util.Prng.set_global_seed seed;
    let req =
      {
        (Sw_serve.Handler.timeline_defaults ~kernel:name) with
        Sw_serve.Handler.l_scale = scale;
        l_grain = grain;
        l_unroll = unroll;
        l_cpes = cpes;
        l_db = db;
        l_seed = seed;
        l_faults = faults;
        l_fault_level = fault_level;
      }
    in
    let sink = Option.map (fun _ -> Sw_obs.Sink.create ()) trace_out in
    let state = Sw_serve.Handler.create () in
    match Sw_serve.Handler.timeline state ?obs:sink req with
    | Error msg -> handler_error msg
    | Ok payload ->
        if json then print_endline (Sw_obs.Json.to_string payload)
        else begin
          let field name conv = Option.get (Option.bind (Sw_obs.Json.member name payload) conv) in
          print_string (field "rendered" Sw_obs.Json.to_str);
          Format.printf "makespan %a@." Sw_util.Units.pp_cycles
            (field "makespan_cycles" Sw_obs.Json.to_float);
          let retries = field "retries" Sw_obs.Json.to_int in
          if retries > 0 then
            Format.printf "dma retries %d (%.0f backoff cycles)@." retries
              (field "backoff_cycles" Sw_obs.Json.to_float)
        end;
        Option.iter (fun path -> write_trace path (Option.get sink)) trace_out
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Render a simulated per-CPE activity timeline (Fig. 4 style).")
    Term.(
      const run $ kernel_arg $ scale_arg $ grain_arg $ unroll_arg $ cpes_arg $ db_arg $ trace_arg
      $ seed_arg $ faults_arg $ fault_level_arg $ json_arg)

let ablation_cmd =
  let run scale = Sw_experiments.Ablation_study.print (Sw_experiments.Ablation_study.run ~scale ()) in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Measure the accuracy cost of each modeling ingredient.")
    Term.(const run $ scale_arg)

let compare_cmd =
  let run scale =
    Sw_experiments.Model_comparison.print_suite (Sw_experiments.Model_comparison.run_suite ~scale ());
    print_newline ();
    Sw_experiments.Model_comparison.print_sweep (Sw_experiments.Model_comparison.run_fig7_sweep ())
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare the paper's model against Roofline.")
    Term.(const run $ scale_arg)

let sensitivity_cmd =
  let run () = Sw_experiments.Input_sensitivity.print (Sw_experiments.Input_sensitivity.run ()) in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"Model error across input scales (Section V-D).")
    Term.(const run $ const ())

let gflops_cmd =
  let run scale = Sw_experiments.Gflops.print (Sw_experiments.Gflops.run ~scale ()) in
  Cmd.v
    (Cmd.info "gflops" ~doc:"Achieved GFlops: hand-picked vs statically tuned variants.")
    Term.(const run $ scale_arg)

let coalescing_cmd =
  let run scale = Sw_experiments.Coalescing.print (Sw_experiments.Coalescing.run ~scale ()) in
  Cmd.v
    (Cmd.info "coalescing" ~doc:"Gload coalescing on the irregular kernels.")
    Term.(const run $ scale_arg)

let calibrate_cmd =
  let run scale sweeps =
    Sw_experiments.Calibration_study.print
      (Sw_experiments.Calibration_study.run ~scale ~sweeps ())
  in
  let sweeps_arg =
    Arg.(
      value & opt int 3
      & info [ "sweeps" ] ~docv:"N" ~doc:"Coordinate-descent sweeps over the parameter set.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Calibration study: recover perturbed simulator parameters (latency, bandwidth) from \
          measured cycles alone, DiffTune-style.")
    Term.(const run $ scale_arg $ sweeps_arg)

let robustness_cmd =
  let run scale domains seeds fault_level csv_out =
    let rows =
      Sw_experiments.Robustness_study.run ~scale ?pool:(pool_of domains) ~seeds
        ~spec:(fault_spec_of fault_level) ()
    in
    Sw_experiments.Robustness_study.print rows;
    match csv_out with
    | Some path ->
        Sw_util.Csv.save (Sw_experiments.Robustness_study.csv rows) path;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let seeds_arg =
    Arg.(
      value & opt int 8
      & info [ "seeds" ] ~docv:"N" ~doc:"Fault plans (seeds) to assess each kernel under.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "o"; "csv" ] ~docv:"FILE" ~doc:"Write rows as CSV.")
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Argmin survival under fault plans: nominal vs min-of-worst-case tuning.")
    Term.(const run $ scale_arg $ domains_arg $ seeds_arg $ fault_level_arg $ csv_arg)

let csv_out_arg =
  let doc = "Write the sweep as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "csv" ] ~docv:"FILE" ~doc)

let sweep_cmd =
  let run name scale what csv_out =
    let entry = Sw_workloads.Registry.find_exn name in
    let params = Sw_arch.Params.default in
    let config = Sw_sim.Config.default params in
    let kernel = entry.Sw_workloads.Registry.build ~scale in
    let base = entry.Sw_workloads.Registry.variant in
    let points =
      match what with
      | "grain" ->
          List.map
            (fun g -> (g, { base with Sw_swacc.Kernel.grain = g }))
            entry.Sw_workloads.Registry.grains
      | "unroll" ->
          List.map
            (fun u -> (u, { base with Sw_swacc.Kernel.unroll = u }))
            entry.Sw_workloads.Registry.unrolls
      | "cpes" ->
          List.map
            (fun c -> (c, { base with Sw_swacc.Kernel.active_cpes = c }))
            [ 8; 16; 32; 48; 64 ]
      | other -> invalid_arg (Printf.sprintf "unknown sweep %S (grain|unroll|cpes)" other)
    in
    let doc = Sw_util.Csv.create [ what; "measured_cycles"; "predicted_cycles"; "error" ] in
    let t =
      Sw_util.Table.create
        ~title:(Printf.sprintf "%s sweep over %s" what name)
        [
          (what, Sw_util.Table.Right);
          ("measured", Sw_util.Table.Right);
          ("predicted", Sw_util.Table.Right);
          ("error", Sw_util.Table.Right);
        ]
    in
    List.iter
      (fun (x, variant) ->
        match Sw_swacc.Lower.lower params kernel variant with
        | Error msg -> Sw_util.Table.add_row t [ string_of_int x; "infeasible: " ^ msg; ""; "" ]
        | Ok lowered ->
            let row = Sw_backend.Accuracy.evaluate config lowered in
            let meas = row.Sw_backend.Accuracy.measured.Sw_sim.Metrics.cycles in
            let pred = row.Sw_backend.Accuracy.predicted.Swpm.Predict.t_total in
            Sw_util.Csv.add_floats doc
              [ float_of_int x; meas; pred; Sw_backend.Accuracy.error row ];
            Sw_util.Table.add_row t
              [
                string_of_int x;
                Sw_util.Table.cell_f meas;
                Sw_util.Table.cell_f pred;
                Sw_util.Table.cell_pct (Sw_backend.Accuracy.error row);
              ])
      points;
    Sw_util.Table.print t;
    match csv_out with
    | Some path ->
        Sw_util.Csv.save doc path;
        Printf.printf "wrote %s
" path
    | None -> ()
  in
  let what_arg =
    Arg.(value & opt string "grain" & info [ "over" ] ~docv:"DIM" ~doc:"grain, unroll or cpes")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one tuning dimension, printing measured vs predicted.")
    Term.(const run $ kernel_arg $ scale_arg $ what_arg $ csv_out_arg)

let serve_cmd =
  let run socket state_dir queue watermark metrics_every sim_timeout domains =
    let state = Sw_serve.Handler.create ?state_dir ?sim_timeout_s:sim_timeout () in
    let pool = pool_of domains in
    let config =
      {
        Sw_serve.Server.queue_capacity = queue;
        shed_watermark = watermark;
        metrics_every;
      }
    in
    let stats =
      match socket with
      | Some path -> Sw_serve.Server.serve_socket ~config ?pool state ~path
      | None -> Sw_serve.Server.serve ~config ?pool state ~input:Unix.stdin ~output:stdout
    in
    Printf.eprintf
      "swmodel serve: %d served (%d degraded, %d errors, %d resumed) in %d batches (deepest %d)\n"
      stats.Sw_serve.Server.served stats.Sw_serve.Server.degraded stats.Sw_serve.Server.errors
      stats.Sw_serve.Server.resumed stats.Sw_serve.Server.batches stats.Sw_serve.Server.max_batch
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv) instead of stdin/stdout.")
  in
  let state_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "Crash recovery: log accepted requests under $(docv) and auto-checkpoint in-flight \
             tunes there; on restart, interrupted requests are replayed (responses marked \
             $(b,resumed)) and interrupted tunes resume from their journals.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Bounded request queue: at most $(docv) requests per batch.")
  in
  let watermark_arg =
    Arg.(
      value & opt int 8
      & info [ "watermark" ] ~docv:"N"
          ~doc:
            "Overload shedding: tune requests queued at or past position $(docv) in a batch are \
             answered by model-only shortlist scoring and marked $(b,degraded).")
  in
  let metrics_every_arg =
    Arg.(
      value & opt int 0
      & info [ "metrics-every" ] ~docv:"N"
          ~doc:"Dump Prometheus-style metrics to stderr every $(docv) responses (0 = never).")
  in
  let sim_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "sim-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Degrade predict requests whose simulation exceeds $(docv) host seconds to the \
             static model (responses marked $(b,degraded)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning-as-a-service daemon: line-delimited JSON requests (predict, tune, \
          timeline, ping, metrics, shutdown) in, one JSON response line out per request.")
    Term.(
      const run $ socket_arg $ state_arg $ queue_arg $ watermark_arg $ metrics_every_arg
      $ sim_timeout_arg $ domains_arg)

let metrics_cmd =
  let run trace =
    match trace with
    | None ->
        Printf.eprintf "swmodel: metrics needs --trace FILE (a Chrome trace written by --trace)\n";
        exit 1
    | Some path -> (
        match Sw_serve.Handler.metrics_of_trace path with
        | Ok text -> print_string text
        | Error msg -> handler_error msg)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Render the counters of a recorded Chrome trace (--trace FILE) as the same \
          Prometheus-style text the serve daemon's metrics request returns.")
    Term.(const run $ trace_arg)

let main =
  let info = Cmd.info "swmodel" ~doc:"SW26010 static performance model and auto-tuner." in
  Cmd.group info
    [
      list_cmd;
      table1_cmd;
      predict_cmd;
      simulate_cmd;
      tune_cmd;
      shard_worker_cmd;
      serve_cmd;
      metrics_cmd;
      fig6_cmd;
      fig7_cmd;
      fig8_cmd;
      fig9_cmd;
      fig10_cmd;
      table2_cmd;
      asm_cmd;
      timeline_cmd;
      ablation_cmd;
      compare_cmd;
      sensitivity_cmd;
      gflops_cmd;
      coalescing_cmd;
      robustness_cmd;
      calibrate_cmd;
      sweep_cmd;
    ]

let () =
  (* make "surrogate" resolvable even on code paths that never build a
     handler (plain Backend.find users) *)
  Sw_learn.Surrogate.install ();
  exit (Cmd.eval main)
