(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) against the simulated SW26010, plus the
   full-scale runs behind the repository's speed and robustness claims
   (pruning, learned ranking, fault plans, traces, engine throughput,
   sharded and chaos-injected tuning).  Checks that a test or a CI step
   already makes live there, not here.

   Run: dune exec bench/main.exe
   A single section: dune exec bench/main.exe -- fig7
   Machine-readable:  dune exec bench/main.exe -- table2 backends --json BENCH_tuning.json *)

module J = Sw_obs.Json
module Tuner = Sw_tuning.Tuner
module Registry = Sw_workloads.Registry

let section title = Printf.printf "\n===== %s =====\n\n%!" title

let params = Sw_arch.Params.default

let config = Sw_sim.Config.default params

(* ------------------------------------------------------------------ *)
(* Machine-readable output: sections add one JSON value per key and
   --json <path> writes them as one object. *)

let json_fields : (string * J.t) list ref = ref []

let add_json key v = json_fields := !json_fields @ [ (key, v) ]

let write_json path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string (J.Obj (("generated_by", J.Str "bench/main.exe") :: !json_fields)));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n%!" path

(* A tune outcome as the bench records it: the section's own fields,
   then every field of [Tuner.outcome_to_json]. *)
let outcome_json fields o =
  match Tuner.outcome_to_json o with J.Obj outcome -> J.Obj (fields @ outcome) | j -> j

(* Gates: a failed gate prints why and fails the run, which still runs
   the remaining sections and writes --json before it exits 1. *)
let failed_gates = ref 0

let gate ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        Printf.printf "GATE FAILED: %s\n%!" msg;
        incr failed_gates
      end)
    fmt

(* Raised after a failed gate the rest of its section cannot run without. *)
exception Abort

(* [f ()] and its host wall seconds *)
let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let points_of (entry : Registry.entry) =
  Sw_tuning.Space.enumerate ~grains:entry.grains ~unrolls:entry.unrolls ()

let pp_best (o : Tuner.outcome) =
  Printf.sprintf "best grain=%d unroll=%d db=%b (%.0f cycles)" o.best.grain o.best.unroll
    o.best.double_buffer o.best_cycles

let same_best (a : Tuner.outcome) (b : Tuner.outcome) =
  a.best = b.best && a.best_cycles = b.best_cycles

(* ------------------------------------------------------------------ *)
(* Paper experiment reproductions                                      *)

(* Shared domain pool for the heavy sweeps (size from SWPM_DOMAINS,
   default one less than the host's recommended domain count). *)
let pool = lazy (Sw_util.Pool.create ())

let table1 () =
  section "Table I: model parameters";
  Format.printf "%a@." Sw_arch.Params.pp params

let fig6 () =
  section "Fig 6: model accuracy across the benchmark suite";
  let rows = Sw_experiments.Fig6.run ~pool:(Lazy.force pool) () in
  Sw_experiments.Fig6.print rows;
  Printf.printf "paper: 5%% average error, 9.6%% max (BFS)\n"

let fig7 () =
  section "Fig 7: K-Means DMA granularity effects";
  Sw_experiments.Fig7.print_a (Sw_experiments.Fig7.run_a ~pool:(Lazy.force pool) ());
  Printf.printf
    "paper: up to 20%% faster as granularity shrinks 256 -> 32; Gloads spike below 16\n\n";
  Sw_experiments.Fig7.print_b (Sw_experiments.Fig7.run_b ~pool:(Lazy.force pool) ());
  Printf.printf "paper: normalized time per element falls as the partition grows\n"

let fig8 () =
  section "Fig 8: double-buffer benefit on N-body";
  Sw_experiments.Fig8.print (Sw_experiments.Fig8.run ());
  Printf.printf "paper: 3.7%% measured improvement, predicted within 3.3%%\n"

let fig9_10 () =
  section "Fig 9/10: WRF kernels vs #active_CPEs";
  let dyn = Sw_experiments.Fig9_10.run_dynamics ~pool:(Lazy.force pool) () in
  let phys = Sw_experiments.Fig9_10.run_physics ~pool:(Lazy.force pool) () in
  Sw_experiments.Fig9_10.print_fig9 dyn;
  print_newline ();
  Sw_experiments.Fig9_10.print_fig9 phys;
  Printf.printf
    "paper: dynamics peaks below 64 CPEs (48 beats 64 by ~10%%); physics keeps scaling\n\n";
  Sw_experiments.Fig9_10.print_fig10 dyn;
  print_newline ();
  Sw_experiments.Fig9_10.print_fig10 phys

let table2 () =
  section "Table II: static vs empirical auto-tuning";
  let rows = Sw_experiments.Table2.run ~pool:(Lazy.force pool) () in
  Sw_experiments.Table2.print rows;
  Printf.printf
    "paper: 1.67x-3.77x speedups, 26x-43x tuning-time savings, <6%% quality loss, same pick on \
     3/5 kernels\n";
  add_json "table2"
    (J.Arr
       (List.map
          (fun (r : Sw_experiments.Table2.row) ->
            J.Obj
              [
                ("kernel", J.Str r.name);
                ("savings", J.Float r.savings);
                ("quality_loss", J.Float r.quality_loss);
                ("same_pick", J.Bool r.same_pick);
                ("static", Tuner.outcome_to_json r.static);
                ("empirical", Tuner.outcome_to_json r.empirical);
              ])
          rows))

(* The Table II empirical sweep under each search strategy: exhaustive
   (every point simulated) vs model-guided shortlist (rank with the
   static model, simulate only the top quarter) vs successive halving.
   All strategies share the guideline default so speedups and picks are
   comparable; caches are cleared before every timed run.  Gates: the
   shortlist must return the exhaustive argmin on every kernel, and cut
   total simulated machine time by at least 3x. *)
let prune () =
  section "Prune: Table II empirical sweep under each search strategy";
  let pool = Lazy.force pool in
  let t =
    Sw_util.Table.create ~title:"empirical search: exhaustive vs pruned strategies"
      [
        ("kernel", Sw_util.Table.Left);
        ("strategy", Sw_util.Table.Left);
        ("host", Sw_util.Table.Right);
        ("machine_us", Sw_util.Table.Right);
        ("assessed", Sw_util.Table.Right);
        ("pruned", Sw_util.Table.Right);
        ("best", Sw_util.Table.Left);
        ("same pick", Sw_util.Table.Left);
      ]
  in
  let totals : (string, float * float) Hashtbl.t = Hashtbl.create 4 in
  let shortlist_same = ref true in
  let rows =
    List.concat_map
      (fun (entry : Registry.entry) ->
        let kernel = entry.build ~scale:1.0 in
        let points = points_of entry in
        let default =
          Sw_experiments.Table2.guideline_default params kernel ~grains:entry.grains
        in
        let k = Stdlib.max 1 (List.length points / 4) in
        let strategies =
          [
            ("exhaustive", Sw_tuning.Search.exhaustive);
            ("shortlist", Sw_tuning.Search.shortlist ~k ());
            ("halving", Sw_tuning.Search.successive_halving ~rungs:3);
          ]
        in
        let exhaustive_best = ref None in
        List.map
          (fun (sname, strategy) ->
            Sw_isa.Schedule.clear_cache ();
            Sw_swacc.Lower.clear_cache ();
            let o =
              Tuner.tune_exn ~backend:Sw_backend.Backend.simulator ~strategy ~default ~pool config
                kernel ~points
            in
            if sname = "exhaustive" then exhaustive_best := Some o.best;
            let same = match !exhaustive_best with Some b -> b = o.best | None -> true in
            if sname = "shortlist" && not same then shortlist_same := false;
            let host_s, us = Option.value (Hashtbl.find_opt totals sname) ~default:(0.0, 0.0) in
            Hashtbl.replace totals sname (host_s +. o.tuning_host_s, us +. o.machine_time_us);
            Sw_util.Table.add_row t
              [
                entry.name;
                sname;
                Printf.sprintf "%.3fs" o.tuning_host_s;
                Printf.sprintf "%.0f" o.machine_time_us;
                string_of_int o.evaluated;
                string_of_int o.points_pruned;
                Printf.sprintf "g%d u%d%s" o.best.grain o.best.unroll
                  (if o.best.double_buffer then " db" else "");
                (if same then "yes" else "NO");
              ];
            outcome_json
              [ ("kernel", J.Str entry.name); ("same_pick_as_exhaustive", J.Bool same) ]
              o)
          strategies)
      Registry.tuning_subset
  in
  Sw_util.Table.print t;
  let total name = Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0.0) in
  let ex_host, ex_us = total "exhaustive" in
  let sl_host, sl_us = total "shortlist" in
  let ha_host, ha_us = total "halving" in
  let reduction us = ex_us /. Stdlib.max 1e-9 us in
  Printf.printf
    "total: exhaustive %.3fs host / %.0f us machine; shortlist %.3fs / %.0f us (%.1fx less \
     machine time); halving %.3fs / %.0f us (%.1fx)\n"
    ex_host ex_us sl_host sl_us (reduction sl_us) ha_host ha_us (reduction ha_us);
  gate !shortlist_same "shortlist changed the argmin on some kernel";
  gate (reduction sl_us >= 3.0) "shortlist machine-time reduction %.2fx < 3x" (reduction sl_us);
  add_json "prune"
    (J.Obj
       [
         ("exhaustive_host_s", J.Float ex_host);
         ("exhaustive_machine_us", J.Float ex_us);
         ("shortlist_host_s", J.Float sl_host);
         ("shortlist_machine_us", J.Float sl_us);
         ("shortlist_machine_reduction", J.Float (reduction sl_us));
         ("halving_host_s", J.Float ha_host);
         ("halving_machine_us", J.Float ha_us);
         ("halving_machine_reduction", J.Float (reduction ha_us));
         ("shortlist_same_pick", J.Bool !shortlist_same);
         ("rows", J.Arr rows);
       ])

(* The Table II search priced by every registered cost backend, with
   per-backend tuning-cost accounting (host seconds and simulated
   machine time).  The sim row is the quality yardstick. *)
let backends () =
  section "Backend matrix: Table II search under every cost backend";
  let rows = Sw_experiments.Backend_matrix.run ~pool:(Lazy.force pool) () in
  Sw_experiments.Backend_matrix.print rows;
  add_json "backends"
    (J.Arr
       (List.map
          (fun (r : Sw_experiments.Backend_matrix.row) ->
            outcome_json
              [
                ("kernel", J.Str r.kernel);
                ("quality_loss_vs_sim", J.Float r.quality_loss_vs_sim);
                ("same_pick_as_sim", J.Bool r.same_pick_as_sim);
              ]
              r.outcome)
          rows))

(* Argmin survival under deterministic fault plans: nominal pick vs the
   Search.robust min-of-worst-case pick across SWPM_ROBUST_SEEDS (default
   8) perturbed machines.  Gate: the robust pick's worst case is never
   worse than the nominal pick's (gain >= 1). *)
let robust () =
  let seeds =
    match Sys.getenv_opt "SWPM_ROBUST_SEEDS" with
    | Some s -> (try Stdlib.max 1 (int_of_string s) with _ -> 8)
    | None -> 8
  in
  section (Printf.sprintf "Robust: argmin survival under %d fault plans" seeds);
  let rows = Sw_experiments.Robustness_study.run ~pool:(Lazy.force pool) ~seeds () in
  Sw_experiments.Robustness_study.print rows;
  let mean_survival =
    List.fold_left (fun acc (r : Sw_experiments.Robustness_study.row) -> acc +. r.survival) 0.0 rows
    /. float_of_int (Stdlib.max 1 (List.length rows))
  in
  let gain_ok =
    List.for_all
      (fun (r : Sw_experiments.Robustness_study.row) -> r.worst_case_gain >= 1.0 -. 1e-9)
      rows
  in
  Printf.printf "mean argmin survival %.0f%%; robust pick never worse in the worst case: %b\n"
    (100.0 *. mean_survival) gain_ok;
  gate gain_ok "the robust pick is worse than the nominal pick in the worst case";
  add_json "robust"
    (J.Obj
       [
         ("seeds", J.Int seeds);
         ("mean_survival", J.Float mean_survival);
         ("robust_never_worse", J.Bool gain_ok);
         ( "kernels",
           J.Arr
             (List.map
                (fun (r : Sw_experiments.Robustness_study.row) ->
                  J.Obj
                    [
                      ("kernel", J.Str r.name);
                      ("points", J.Int r.points);
                      ("survival", J.Float r.survival);
                      ("same_pick", J.Bool r.same_pick);
                      ("nominal_worst", J.Float r.nominal_worst);
                      ("robust_worst", J.Float r.robust_worst);
                      ("worst_case_gain", J.Float r.worst_case_gain);
                    ])
                rows) );
       ])

(* ------------------------------------------------------------------ *)
(* Observability: emit Chrome trace files for the Figure 4 scenarios
   and one Table II search, and prove they parse.  This is the CI obs
   smoke: the uploaded TRACE_*.json artifacts load in chrome://tracing
   or Perfetto. *)

let obs () =
  section "Obs: Chrome traces of the Figure 4 scenarios and a Table II search";
  let report path sink =
    Sw_obs.Chrome.write path sink;
    let ok =
      match J.validate_file path with
      | Ok () -> true
      | Error msg ->
          Printf.printf "  %s: INVALID JSON (%s)\n" path msg;
          false
    in
    Printf.printf "  wrote %s (%d spans, %d counters, parses: %b)\n" path
      (Sw_obs.Sink.span_count sink)
      (List.length (Sw_obs.Sink.counters sink))
      ok;
    gate ok "%s does not parse" path;
    J.Obj
      [
        ("file", J.Str path);
        ("spans", J.Int (Sw_obs.Sink.span_count sink));
        ("parses", J.Bool ok);
      ]
  in
  (* Figure 4: both overlap scenarios into one machine timeline file *)
  let fig4_sink = Sw_obs.Sink.create () in
  ignore (Sw_experiments.Fig4_timeline.run_compute_bound ~obs:fig4_sink ());
  ignore (Sw_experiments.Fig4_timeline.run_memory_bound ~obs:fig4_sink ());
  let fig4_file = report "TRACE_fig4.json" fig4_sink in
  (* Table II: the kmeans empirical search plus the winner's validation
     run, reconciled against the simulator's metrics *)
  let entry = Registry.find_exn "kmeans" in
  let kernel = entry.build ~scale:1.0 in
  let tune_sink = Sw_obs.Sink.create () in
  let outcome =
    Tuner.tune_exn ~backend:Sw_backend.Backend.simulator ~obs:tune_sink config kernel
      ~points:(points_of entry)
  in
  let lowered = Sw_swacc.Lower.lower_exn params kernel outcome.best in
  let metrics, trace =
    Sw_obs.Probe.run_traced tune_sink ~name:"best:kmeans" config lowered.Sw_swacc.Lowered.programs
  in
  let reconciled =
    match Sw_obs.Probe.reconcile metrics trace with
    | Ok () -> true
    | Error msg ->
        Printf.printf "  reconciliation FAILED: %s\n" msg;
        false
  in
  let tune_file = report "TRACE_table2_kmeans.json" tune_sink in
  Printf.printf "  kmeans search: %d evaluated, %d infeasible, machine %.0f us, reconciled: %b\n"
    outcome.evaluated outcome.infeasible outcome.machine_time_us reconciled;
  gate reconciled "the kmeans trace does not reconcile with the simulator's metrics";
  add_json "obs"
    (J.Obj
       [
         ("traces", J.Arr [ fig4_file; tune_file ]);
         ("reconciled", J.Bool reconciled);
         ("tuner", Tuner.outcome_to_json outcome);
       ])

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures                                *)

let fig4 () =
  section "Fig 4: overlap scenarios as simulated timelines";
  Sw_experiments.Fig4_timeline.print (Sw_experiments.Fig4_timeline.run_compute_bound ());
  Sw_experiments.Fig4_timeline.print (Sw_experiments.Fig4_timeline.run_memory_bound ())

let coalescing () =
  section "Gload coalescing on irregular kernels";
  Sw_experiments.Coalescing.print (Sw_experiments.Coalescing.run ())

let ablation () =
  section "Ablation: what each modeling ingredient buys";
  Sw_experiments.Ablation_study.print (Sw_experiments.Ablation_study.run ())

let model_comparison () =
  section "Model comparison: swpm vs Roofline (Section VI)";
  Sw_experiments.Model_comparison.print_suite
    (Sw_experiments.Model_comparison.run_suite ~pool:(Lazy.force pool) ());
  print_newline ();
  Sw_experiments.Model_comparison.print_sweep
    (Sw_experiments.Model_comparison.run_fig7_sweep ~pool:(Lazy.force pool) ())

let input_sensitivity () =
  section "Input sensitivity (Section V-D)";
  Sw_experiments.Input_sensitivity.print
    (Sw_experiments.Input_sensitivity.run ~pool:(Lazy.force pool) ())

let hybrid () =
  section "Hybrid model: static + one lightweight profile (Section III-F)";
  Sw_experiments.Hybrid_study.print (Sw_experiments.Hybrid_study.run ())

let gflops () =
  section "Achieved GFlops, hand-picked vs statically tuned (Section V-D)";
  Sw_experiments.Gflops.print (Sw_experiments.Gflops.run ())

(* ------------------------------------------------------------------ *)
(* The learned surrogate: prediction throughput, DiffTune-style
   calibration recovery, and the dense-space tuning claim.  (Held-out
   fit quality is gated in test_learn.)

   Gates: >= 2 of 3 perturbed simulator parameters recovered within
   10%; on a dense tuning space the adaptive surrogate-ranked search
   returns the sim-exhaustive argmin for >= 5x less simulated machine
   time, training bill included. *)

let learn_bench () =
  section "Learned surrogate: throughput, calibration recovery, dense-space cut";
  let pool = Lazy.force pool in
  (* --- prediction throughput: a trained surrogate vs the simulator --- *)
  let entry = Registry.find_exn "kmeans" in
  let kernel = entry.build ~scale:1.0 in
  let variant = entry.variant in
  Sw_learn.Surrogate.clear_cache ();
  let surrogate = Sw_learn.Surrogate.make () in
  ignore (Sw_backend.Backend.assess surrogate config kernel variant) (* train *);
  let timed_rate n f =
    let (), dt = time (fun () -> for _ = 1 to n do f () done) in
    float_of_int n /. Float.max 1e-9 dt
  in
  let surrogate_per_s =
    timed_rate 200 (fun () -> ignore (Sw_backend.Backend.assess surrogate config kernel variant))
  in
  let sim_per_s =
    timed_rate 3 (fun () ->
        ignore (Sw_backend.Backend.assess Sw_backend.Backend.simulator config kernel variant))
  in
  Printf.printf
    "throughput (kmeans, scale 1.0): surrogate %.0f assessments/s, simulator %.1f/s (%.0fx)\n\n"
    surrogate_per_s sim_per_s
    (surrogate_per_s /. Float.max 1e-9 sim_per_s);
  (* --- DiffTune inverse: recover perturbed simulator parameters --- *)
  let calib = Sw_experiments.Calibration_study.run () in
  Sw_experiments.Calibration_study.print calib;
  let recovered =
    List.filter
      (fun (r : Sw_experiments.Calibration_study.recovery) -> r.r_error <= 0.10)
      calib.recoveries
  in
  Printf.printf "\n%d of %d parameters within 10%% (gate: >= 2)\n\n" (List.length recovered)
    (List.length calib.recoveries);
  (* --- the dense-space claim: on the spaces a learned ranker exists
     for, exhaustive simulation pays per point while the adaptive
     search pays one twin-trained model plus a couple of rungs --- *)
  let dense_grains = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ] in
  let dense_unrolls = [ 1; 2; 4; 8; 16 ] in
  let dense_table =
    Sw_util.Table.create ~title:"dense space (50 points), sim-exhaustive vs adaptive(surrogate)"
      Sw_util.Table.
        [
          ("kernel", Left);
          ("points", Right);
          ("exhaustive us", Right);
          ("adaptive us", Right);
          ("cut", Right);
          ("same argmin", Left);
        ]
  in
  Sw_learn.Surrogate.clear_cache ();
  let dense =
    List.map
      (fun name ->
        let kernel = (Registry.find_exn name).build ~scale:1.0 in
        let points = Sw_tuning.Space.enumerate ~grains:dense_grains ~unrolls:dense_unrolls () in
        let default =
          Sw_experiments.Table2.guideline_default params kernel ~grains:dense_grains
        in
        let tune strategy =
          Sw_isa.Schedule.clear_cache ();
          Sw_swacc.Lower.clear_cache ();
          Tuner.tune_exn ~backend:Sw_backend.Backend.simulator ~strategy ~default ~pool config
            kernel ~points
        in
        let exhaustive = tune Sw_tuning.Search.exhaustive in
        let adaptive =
          tune (Sw_tuning.Search.adaptive_shortlist ~rank:(Sw_learn.Surrogate.make ()) ~k:6 ())
        in
        let same = adaptive.best = exhaustive.best in
        Sw_util.Table.add_row dense_table
          [
            name;
            string_of_int (List.length points);
            Printf.sprintf "%.0f" exhaustive.machine_time_us;
            Printf.sprintf "%.0f" adaptive.machine_time_us;
            Printf.sprintf "%.1fx"
              (exhaustive.machine_time_us /. Float.max 1e-9 adaptive.machine_time_us);
            (if same then "yes" else "NO");
          ];
        (exhaustive.machine_time_us, adaptive.machine_time_us, same))
      [ "kmeans"; "vector-add" ]
  in
  Sw_util.Table.print dense_table;
  let dense_same = List.for_all (fun (_, _, same) -> same) dense in
  let ex_total = List.fold_left (fun acc (e, _, _) -> acc +. e) 0.0 dense in
  let ad_total = List.fold_left (fun acc (_, a, _) -> acc +. a) 0.0 dense in
  let dense_cut = ex_total /. Float.max 1e-9 ad_total in
  Printf.printf "dense-space machine-time cut %.1fx, training bill included (gate: >= 5x)\n"
    dense_cut;
  let calib_ok = List.length recovered >= 2 in
  gate calib_ok "fewer than 2 parameters recovered within 10%%";
  gate dense_same "adaptive surrogate changed the argmin on a dense space";
  gate ((not dense_same) || dense_cut >= 5.0) "dense-space machine-time cut %.2fx < 5x" dense_cut;
  add_json "learn"
    (J.Obj
       [
         ("surrogate_per_s", J.Float surrogate_per_s);
         ("simulator_per_s", J.Float sim_per_s);
         ( "calibration",
           J.Arr
             (List.map
                (fun (r : Sw_experiments.Calibration_study.recovery) ->
                  J.Obj
                    [
                      ("name", J.Str r.r_name);
                      ("truth", J.Float r.r_truth);
                      ("fitted", J.Float r.r_fitted);
                      ("error", J.Float r.r_error);
                    ])
                calib.recoveries) );
         ("calibration_recovered", J.Int (List.length recovered));
         ("dense_exhaustive_machine_us", J.Float ex_total);
         ("dense_adaptive_machine_us", J.Float ad_total);
         ("dense_machine_reduction", J.Float dense_cut);
         ("dense_same_pick", J.Bool dense_same);
         ("gates_ok", J.Bool (calib_ok && dense_same && dense_cut >= 5.0));
       ])

(* ------------------------------------------------------------------ *)
(* The engine-throughput gate behind the tuning-time claims: events/sec
   and minor-heap words/event on the Table II workloads at scale 8,
   optimized {!Sw_sim.Engine} vs the preserved reference path
   {!Sw_oracle.Engine_ref}.  Cold includes program lowering (compile
   caches emptied first); warm is best-of-5 with the caches populated —
   the regime a tuning sweep or robustness study actually lives in.
   Gates: aggregate warm speedup >= 5x, and under one minor-heap word
   per event on warm runs (the reference path spends ~30+ on heap
   entries, boxed events and per-request records). *)
let engine () =
  section "Engine: event throughput vs the reference engine";
  let scale = 8.0 and reps = 5 in
  let t =
    Sw_util.Table.create ~title:(Printf.sprintf "engine throughput, Table II kernels at scale %g" scale)
      [
        ("kernel", Sw_util.Table.Left);
        ("events", Sw_util.Table.Right);
        ("ref Mev/s", Sw_util.Table.Right);
        ("cold Mev/s", Sw_util.Table.Right);
        ("warm Mev/s", Sw_util.Table.Right);
        ("speedup", Sw_util.Table.Right);
        ("words/ev", Sw_util.Table.Right);
        ("ref words/ev", Sw_util.Table.Right);
      ]
  in
  let time_once f = snd (time f) in
  let time_best f = List.fold_left Float.min infinity (List.init reps (fun _ -> time_once f)) in
  let sum_ev = ref 0 and sum_warm = ref 0.0 and sum_ref = ref 0.0 in
  let sum_words = ref 0.0 and sum_ref_words = ref 0.0 in
  let rows =
    List.map
      (fun (entry : Registry.entry) ->
        let kernel = entry.build ~scale in
        let progs = (Sw_swacc.Lower.lower_exn params kernel entry.variant).programs in
        (* cold: lowering + validation included *)
        Sw_sim.Engine.clear_compile_cache ();
        Sw_isa.Schedule.clear_cache ();
        let t_cold = time_once (fun () -> Sw_sim.Engine.run config progs) in
        let events = (Sw_sim.Engine.run config progs).events in
        let t_warm = time_best (fun () -> Sw_sim.Engine.run config progs) in
        ignore (Sw_oracle.Engine_ref.run config progs);
        let t_ref = time_best (fun () -> Sw_oracle.Engine_ref.run config progs) in
        let words run =
          let w0 = Gc.minor_words () in
          ignore (run config progs);
          (Gc.minor_words () -. w0) /. float_of_int events
        in
        let wpe = words Sw_sim.Engine.run in
        let ref_wpe = words Sw_oracle.Engine_ref.run in
        sum_ev := !sum_ev + events;
        sum_warm := !sum_warm +. t_warm;
        sum_ref := !sum_ref +. t_ref;
        sum_words := !sum_words +. (wpe *. float_of_int events);
        sum_ref_words := !sum_ref_words +. (ref_wpe *. float_of_int events);
        let per_s dt = float_of_int events /. dt in
        Sw_util.Table.add_row t
          [
            entry.name;
            string_of_int events;
            Printf.sprintf "%.2f" (per_s t_ref /. 1e6);
            Printf.sprintf "%.2f" (per_s t_cold /. 1e6);
            Printf.sprintf "%.2f" (per_s t_warm /. 1e6);
            Printf.sprintf "%.2fx" (t_ref /. t_warm);
            Printf.sprintf "%.2f" wpe;
            Printf.sprintf "%.1f" ref_wpe;
          ];
        J.Obj
          [
            ("kernel", J.Str entry.name);
            ("events", J.Int events);
            ("ref_events_per_s", J.Float (per_s t_ref));
            ("cold_events_per_s", J.Float (per_s t_cold));
            ("warm_events_per_s", J.Float (per_s t_warm));
            ("speedup", J.Float (t_ref /. t_warm));
            ("words_per_event", J.Float wpe);
            ("ref_words_per_event", J.Float ref_wpe);
          ])
      Registry.tuning_subset
  in
  Sw_util.Table.print t;
  let fev = float_of_int !sum_ev in
  let speedup = !sum_ref /. !sum_warm in
  let agg_wpe = !sum_words /. fev in
  Printf.printf
    "aggregate: %d events; ref %.2f Mev/s; warm %.2f Mev/s (%.2fx); %.3f words/event (ref %.1f)\n"
    !sum_ev (fev /. !sum_ref /. 1e6) (fev /. !sum_warm /. 1e6) speedup agg_wpe
    (!sum_ref_words /. fev);
  gate (speedup >= 5.0) "warm engine speedup %.2fx < 5x over the reference" speedup;
  gate (agg_wpe < 1.0) "%.3f minor words/event >= 1.0 on warm runs" agg_wpe;
  add_json "engine"
    (J.Obj
       [
         ("scale", J.Float scale);
         ("reps", J.Int reps);
         ("events", J.Int !sum_ev);
         ("ref_events_per_s", J.Float (fev /. !sum_ref));
         ("warm_events_per_s", J.Float (fev /. !sum_warm));
         ("speedup", J.Float speedup);
         ("words_per_event", J.Float agg_wpe);
         ("ref_words_per_event", J.Float (!sum_ref_words /. fev));
         ("rows", J.Arr rows);
       ])

(* ------------------------------------------------------------------ *)
(* Sharded multi-process tuning over a ~10^6-variant synthetic space.
   Gates: the sharded argmin equals the single-process oracle's on the
   same space; the median of three alternating oracle/sharded timings
   gives a host speedup >= 0.7 x min(workers, cores) (2.8x at 4 workers
   on a 4-core host, ~1x on a 1-core one — the workers then timeshare);
   and a worker SIGKILLed mid-run leaves journals a rerun resumes from
   (journal hits >= 1) to a bit-identical argmin. *)

(* Point shard workers at the built swmodel and return a tune through
   the handler; a missing executable or a tune error fails its gate
   and aborts the section. *)
let sharded_tune () =
  let swmodel =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "swmodel.exe")
  in
  if not (Sys.file_exists swmodel) then begin
    gate false "worker executable %s not built (run dune build first)" swmodel;
    raise Abort
  end;
  Unix.putenv "SWPM_WORKER_EXE" swmodel;
  fun req ->
    match Sw_serve.Handler.tune (Sw_serve.Handler.create ()) req with
    | Ok tr -> tr
    | Error msg ->
        gate false "tune: %s" msg;
        raise Abort

let shard_bench () =
  section "Shard: sharded multi-process tuning on a million-point space";
  let module H = Sw_serve.Handler in
  let workers = 4 and runs = 3 in
  let cores = Domain.recommended_domain_count () in
  let tune =
    let run = sharded_tune () in
    fun req -> (run req).H.tr_outcome
  in
  (* The synthetic space: grain x unroll x double-buffer product around
     vector-add.  Grains run far past the SPM limit, so most points are
     compile-time infeasible — exactly how a real million-point space
     looks — and the feasible band sits at large grains where a model
     assessment is cheap. *)
  let n_points =
    Sw_tuning.Space.size ~grains:(Sw_tuning.Space.range 1000 4905)
      ~unrolls:(Sw_tuning.Space.range 1 128) ~double_buffers:[ false; true ] ()
  in
  let req =
    {
      (H.tune_defaults ~kernel:"vector-add") with
      H.t_scale = 0.01;
      t_strategy = "shortlist";
      t_shortlist = 64;
      t_seed = Some 17;
      t_grains = Some "1000..4905";
      t_unrolls = Some "1..128";
      t_db_both = true;
    }
  in
  Printf.printf
    "space: %d points; %d alternating oracle (1 process) / sharded (%d workers) runs\n%!"
    n_points runs workers;
  let timed label req =
    let o, s = time (fun () -> tune req) in
    Printf.printf "%s: %.2fs, %s\n%!" label s (pp_best o);
    (o, s)
  in
  let oracles, shardeds =
    List.split
      (List.init runs (fun _ ->
           (* every oracle run starts from the cold caches the first one sees *)
           Sw_isa.Schedule.clear_cache ();
           Sw_swacc.Lower.clear_cache ();
           Sw_sim.Engine.clear_compile_cache ();
           let oracle = timed "oracle" req in
           (oracle, timed "sharded" { req with H.t_workers = workers })))
  in
  let oracle = fst (List.hd oracles) and sharded = fst (List.hd shardeds) in
  let wall_s = List.map snd in
  let median runs = Sw_util.Stats.median (Array.of_list (wall_s runs)) in
  let speedup = median oracles /. Stdlib.max 1e-9 (median shardeds) in
  let speedup_gate = 0.7 *. float_of_int (Stdlib.min workers cores) in
  let same_pick = List.for_all (fun (o, _) -> same_best oracle o) (oracles @ shardeds) in
  Printf.printf "median speedup %.2fx on %d core(s) (gate >= %.2fx), same argmin: %b\n%!" speedup
    cores speedup_gate same_pick;
  (* Crash resume: an exhaustive 2-worker tune over a smaller all-
     feasible slab (so journals fill steadily from the start), with
     worker 0 SIGKILLed mid-run.  The journals persist under the
     checkpoint path; the rerun replays them to the oracle argmin. *)
  let ckpt = Filename.temp_file "swpm-bench-shard" ".journal" in
  let shard_journal shard = Printf.sprintf "%s.shard%dof2" ckpt shard in
  let kill_req =
    {
      (H.tune_defaults ~kernel:"vector-add") with
      H.t_scale = 0.01;
      t_seed = Some 17;
      t_grains = Some "1000..2730:2";
      t_unrolls = Some "1..16";
      t_checkpoint = Some ckpt;
    }
  in
  let kill_oracle = tune { kill_req with H.t_checkpoint = None } in
  let count_lines path =
    if not (Sys.file_exists path) then 0
    else List.length (In_channel.with_open_bin path In_channel.input_lines)
  in
  let victim =
    Sw_tuning.Shard.launch ~shard:0
      ~argv:(H.worker_argv kill_req ~shard:0 ~shards:2 ~journal:(shard_journal 0))
      ()
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  (* wait for the journal header plus a few resolved entries *)
  while count_lines (shard_journal 0) < 8 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  (try Unix.kill (Sw_tuning.Shard.pid victim) Sys.sigkill with Unix.Unix_error _ -> ());
  let killed =
    (Sw_tuning.Shard.supervise ~max_restarts:0 [ victim ]).Sw_tuning.Shard.health
    <> Sw_tuning.Shard.Completed
  in
  let lines_at_kill = count_lines (shard_journal 0) in
  Printf.printf "killed worker 0 (mid-run: %b) with %d journal lines; rerunning ...\n%!" killed
    lines_at_kill;
  let resumed = tune { kill_req with H.t_workers = 2 } in
  let resume_identical = same_best resumed kill_oracle in
  let resume_hits = resumed.journal_hits in
  Printf.printf "resumed: %s, %d journal hits, identical: %b\n%!" (pp_best resumed) resume_hits
    resume_identical;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ ckpt; shard_journal 0; shard_journal 1 ];
  gate same_pick "sharded argmin differs from the single-process oracle";
  gate (speedup >= speedup_gate) "sharded median speedup %.2fx < %.2fx on %d core(s)" speedup
    speedup_gate cores;
  gate
    (resume_identical && (lines_at_kill < 2 || resume_hits >= 1))
    "killed-worker rerun (argmin identical: %b, journal hits %d, lines at kill %d)"
    resume_identical resume_hits lines_at_kill;
  let wall_json runs = J.Arr (List.map (fun s -> J.Float s) (wall_s runs)) in
  add_json "shard"
    (J.Obj
       [
         ("points", J.Int n_points);
         ("workers", J.Int workers);
         ("cores", J.Int cores);
         ("oracle", outcome_json [ ("wall_s", wall_json oracles) ] oracle);
         ("sharded", outcome_json [ ("wall_s", wall_json shardeds) ] sharded);
         ("speedup", J.Float speedup);
         ("speedup_gate", J.Float speedup_gate);
         ("same_pick", J.Bool same_pick);
         ("killed_mid_run", J.Bool killed);
         ("journal_lines_at_kill", J.Int lines_at_kill);
         ("resumed", Tuner.outcome_to_json resumed);
         ("resume_identical", J.Bool resume_identical);
       ])

(* ------------------------------------------------------------------ *)
(* Chaos: a seeded sweep of process-level fault plans (SWPM_CHAOS)
   against supervised sharded tuning.  Gates: every chaos run
   terminates within the wall cap (no hangs); when no shard was
   quarantined the argmin is bit-identical to the fault-free
   single-process oracle; a quarantined shard always surfaces as a
   degraded result; restarts stay within the per-shard budget; and
   every seed that arms drop: counts a dropped line. *)

let chaos_bench () =
  section "Chaos: fault-injected sharded tuning";
  let module H = Sw_serve.Handler in
  let module Chaos = Sw_fault.Fault.Chaos in
  let tune = sharded_tune () in
  (* an all-feasible slab, so shard journals fill steadily from the
     first assessment and every generated kill/stall trigger fires.
     Halving publishes an incumbent at every improvement (exhaustive
     publishes none, a model-ranked shortlist one per shard), so the
     drop:/dup: plans have a stream to act on; the sharded argmin still
     equals the in-process oracle run under the same strategy *)
  let req =
    {
      (H.tune_defaults ~kernel:"vector-add") with
      H.t_scale = 0.01;
      t_strategy = "halving";
      t_seed = Some 17;
      t_grains = Some "1000..1640:4";
      t_unrolls = Some "1..8";
    }
  in
  let workers = 2 and max_restarts = 2 in
  let seeds = 25 and wall_cap_s = 120.0 in
  let oracle = (tune req).H.tr_outcome in
  Printf.printf "oracle: %s; sweeping %d chaos seeds ...\n%!" (pp_best oracle) seeds;
  let identical = ref 0
  and quarantined_runs = ref 0
  and restarts_total = ref 0
  and dropped_total = ref 0
  and max_run_s = ref 0.0 in
  for seed = 0 to seeds - 1 do
    let plans = Chaos.generate ~seed ~shards:workers in
    Unix.putenv Chaos.env_var (Chaos.to_spec plans);
    let tr, elapsed =
      Fun.protect
        ~finally:(fun () -> Unix.putenv Chaos.env_var "")
        (fun () ->
          time (fun () ->
              tune
                {
                  req with
                  H.t_workers = workers;
                  t_max_restarts = max_restarts;
                  t_hang_timeout_s = Some 1.0;
                }))
    in
    max_run_s := Float.max !max_run_s elapsed;
    let o = tr.H.tr_outcome in
    restarts_total := !restarts_total + o.restarts;
    dropped_total := !dropped_total + o.link_lines_dropped;
    let same = same_best o oracle in
    Printf.printf "seed %2d  %-40s  %.2fs  restarts=%d dropped=%d %s\n%!" seed
      (Chaos.to_spec plans) elapsed o.restarts o.link_lines_dropped
      (match o.quarantined with
      | [] -> if same then "argmin identical" else "ARGMIN DIFFERS"
      | q -> Printf.sprintf "quarantined [%s]" (String.concat ";" (List.map string_of_int q)));
    gate (elapsed <= wall_cap_s) "seed %d ran %.2fs > %.0fs wall cap" seed elapsed wall_cap_s;
    let drops =
      List.exists
        (fun p -> match p.Chaos.action with Chaos.Drop_incumbents _ -> true | _ -> false)
        plans
    in
    gate
      ((not drops) || o.link_lines_dropped > 0)
      "seed %d armed drop: but reports no dropped line" seed;
    gate
      (o.restarts <= workers * max_restarts)
      "seed %d made %d restarts > budget %d" seed o.restarts (workers * max_restarts);
    match o.quarantined with
    | [] ->
        if same then incr identical;
        gate same "seed %d argmin differs with no shard quarantined" seed
    | _ :: _ ->
        incr quarantined_runs;
        gate tr.H.tr_degraded "seed %d quarantined a shard but was not degraded" seed
  done;
  Printf.printf
    "sweep: %d/%d argmin-identical, %d quarantined (degraded), %d restarts, %d link lines \
     dropped, slowest run %.2fs\n%!"
    !identical seeds !quarantined_runs !restarts_total !dropped_total !max_run_s;
  add_json "chaos"
    (J.Obj
       [
         ("seeds", J.Int seeds);
         ("workers", J.Int workers);
         ("max_restarts", J.Int max_restarts);
         ("argmin_identical", J.Int !identical);
         ("quarantined_runs", J.Int !quarantined_runs);
         ("restarts_total", J.Int !restarts_total);
         ("link_lines_dropped_total", J.Int !dropped_total);
         ("slowest_run_s", J.Float !max_run_s);
         ("wall_cap_s", J.Float wall_cap_s);
       ])

(* ------------------------------------------------------------------ *)

let all =
  [
    ("table1", table1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9_10);
    ("table2", table2);
    ("prune", prune);
    ("backends", backends);
    ("robust", robust);
    ("obs", obs);
    ("fig4", fig4);
    ("coalescing", coalescing);
    ("ablation", ablation);
    ("model-comparison", model_comparison);
    ("input-sensitivity", input_sensitivity);
    ("gflops", gflops);
    ("hybrid", hybrid);
    ("learn", learn_bench);
    ("engine", engine);
    ("shard", shard_bench);
    ("chaos", chaos_bench);
  ]

let () =
  (* args: zero or more section names, plus an optional --json <path> *)
  let rec parse args (sections, json_path) =
    match args with
    | [] -> (List.rev sections, json_path)
    | "--json" :: path :: rest -> parse rest (sections, Some path)
    | [ "--json" ] ->
        Printf.eprintf "--json needs a path\n";
        exit 1
    | name :: rest -> parse rest (name :: sections, json_path)
  in
  let names, json_path = parse (List.tl (Array.to_list Sys.argv)) ([], None) in
  let sections =
    if names = [] then List.map snd all
    else
      List.map
        (fun name ->
          match List.assoc_opt name all with
          | Some f -> f
          | None ->
              Printf.eprintf "unknown section %S; available: %s\n" name
                (String.concat ", " (List.map fst all));
              exit 1)
        names
  in
  List.iter (fun f -> try f () with Abort -> ()) sections;
  Option.iter write_json json_path;
  if !failed_gates > 0 then begin
    Printf.printf "%d gate(s) failed\n" !failed_gates;
    exit 1
  end
