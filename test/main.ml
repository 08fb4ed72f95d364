let suites =
  [
    Test_prng.tests;
    Test_stats.tests;
    Test_heap.tests;
    Test_calendar_queue.tests;
    Test_pool.tests;
    Test_memo.tests;
    Test_table.tests;
    Test_csv.tests;
    Test_units.tests;
    Test_params.tests;
    Test_mem_req.tests;
    Test_instr.tests;
    Test_schedule.tests;
    Test_program.tests;
    Test_engine.tests;
    Test_engine_props.tests;
    Test_engine_diff.tests;
    Test_body.tests;
    Test_codegen.tests;
    Test_layout.tests;
    Test_kernel.tests;
    Test_lower.tests;
    Test_equations.tests;
    Test_predict.tests;
    Test_analysis.tests;
    Test_accuracy.tests;
    Test_backend.tests;
    Test_journal.tests;
    Test_tuning.tests;
    Test_search.tests;
    Test_features.tests;
    Test_learn.tests;
    Test_workloads.tests;
    Test_experiments.tests;
    Test_loopnest.tests;
    Test_trace.tests;
    Test_trace_props.tests;
    Test_obs.tests;
    Test_golden.tests;
    Test_ablation_roofline.tests;
    Test_asm.tests;
    Test_transforms.tests;
    Test_spm_alloc.tests;
    Test_hybrid.tests;
    Test_app.tests;
    Test_crossval.tests;
    Test_experiments_ext.tests;
    Test_fault.tests;
    Test_resilience.tests;
    Test_serve.tests;
    Test_shard.tests;
    Test_chaos.tests;
  ]

(* The suite's own binary doubles as the shard worker of the sharded
   tunes it runs (test_shard.ml points SWPM_WORKER_EXE at it). *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "shard-worker" :: "--spec" :: spec :: _ -> (
      match Sw_serve.Handler.worker_main spec with
      | Ok () -> exit 0
      | Error msg ->
          prerr_endline ("shard-worker: " ^ msg);
          exit 1)
  | _ -> Alcotest.run "swpm" suites
