(* The domain pool: order preservation, exception propagation, and the
   bit-identical-results guarantee the parallel tuners rely on.  Also
   covers the shared schedule-cost cache the pooled runs lean on. *)

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let pool n = Sw_util.Pool.create ~size:n ()

let sizes = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let test_map_matches_sequential () =
  let xs = List.init 57 (fun i -> i) in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f xs in
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "map, %d domains" n)
        expected
        (Sw_util.Pool.map (pool n) f xs))
    sizes

let test_filter_map_matches_sequential () =
  let xs = List.init 40 (fun i -> i) in
  let f x = if x mod 3 = 0 then Some (x * 2) else None in
  let expected = List.filter_map f xs in
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "filter_map, %d domains" n)
        expected
        (Sw_util.Pool.filter_map (pool n) f xs))
    sizes

let test_empty_and_tiny_lists () =
  List.iter
    (fun n ->
      Alcotest.(check (list int)) "empty list" [] (Sw_util.Pool.map (pool n) (fun x -> x) []);
      Alcotest.(check (list int))
        "fewer items than domains" [ 10 ]
        (Sw_util.Pool.map (pool n) (fun x -> x * 10) [ 1 ]))
    sizes

let test_map_array () =
  let input = Array.init 23 (fun i -> i) in
  Alcotest.(check (array int))
    "map_array" (Array.map succ input)
    (Sw_util.Pool.map_array (pool 4) succ input)

exception Boom of int

let test_exception_propagation () =
  (* several items fail; the earliest index must win, whatever the
     domain interleaving *)
  let xs = List.init 30 (fun i -> i) in
  let f x = if x mod 7 = 5 then raise (Boom x) else x in
  List.iter
    (fun n ->
      match Sw_util.Pool.map (pool n) f xs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          Alcotest.(check int) (Printf.sprintf "earliest failure, %d domains" n) 5 x)
    sizes

let test_size_clamped () =
  Alcotest.(check int) "size 0 clamps to 1" 1 (Sw_util.Pool.size (pool 0));
  Alcotest.(check int) "sequential is size 1" 1 (Sw_util.Pool.size Sw_util.Pool.sequential);
  Alcotest.(check bool) "default size positive" true (Sw_util.Pool.default_size () >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism of the pooled tuners and sweeps *)

let tuner_outcomes backend =
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:entry.Sw_workloads.Registry.grains
      ~unrolls:entry.Sw_workloads.Registry.unrolls ()
  in
  let baseline = Sw_tuning.Tuner.tune_exn ~backend config kernel ~points in
  let pooled =
    List.map (fun n -> (n, Sw_tuning.Tuner.tune_exn ~backend ~pool:(pool n) config kernel ~points)) sizes
  in
  (baseline, pooled)

let check_same_outcome name (a : Sw_tuning.Tuner.outcome) (b : Sw_tuning.Tuner.outcome) =
  Alcotest.(check bool) (name ^ ": best variant") true (a.Sw_tuning.Tuner.best = b.Sw_tuning.Tuner.best);
  Alcotest.(check (float 0.0)) (name ^ ": best cycles") a.Sw_tuning.Tuner.best_cycles
    b.Sw_tuning.Tuner.best_cycles;
  Alcotest.(check (float 0.0))
    (name ^ ": machine time")
    a.Sw_tuning.Tuner.machine_time_us b.Sw_tuning.Tuner.machine_time_us;
  Alcotest.(check int) (name ^ ": evaluated") a.Sw_tuning.Tuner.evaluated b.Sw_tuning.Tuner.evaluated;
  Alcotest.(check int) (name ^ ": infeasible") a.Sw_tuning.Tuner.infeasible
    b.Sw_tuning.Tuner.infeasible

let test_tuner_deterministic_static () =
  let baseline, pooled = tuner_outcomes Sw_backend.Backend.static_model in
  List.iter
    (fun (n, o) -> check_same_outcome (Printf.sprintf "static, %d domains" n) baseline o)
    pooled

let test_tuner_deterministic_empirical () =
  let baseline, pooled = tuner_outcomes Sw_backend.Backend.simulator in
  List.iter
    (fun (n, o) -> check_same_outcome (Printf.sprintf "empirical, %d domains" n) baseline o)
    pooled

let test_fig6_rows_identical () =
  let baseline = Sw_experiments.Fig6.run ~scale:0.25 () in
  List.iter
    (fun n ->
      let rows = Sw_experiments.Fig6.run ~scale:0.25 ~pool:(pool n) () in
      Alcotest.(check bool)
        (Printf.sprintf "fig6 rows, %d domains" n)
        true (rows = baseline))
    sizes

let test_tuner_wall_clock_sane () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let points =
    Sw_tuning.Space.enumerate ~grains:entry.Sw_workloads.Registry.grains
      ~unrolls:entry.Sw_workloads.Registry.unrolls ()
  in
  let o = Sw_tuning.Tuner.tune_exn ~backend:Sw_backend.Backend.simulator config kernel ~points in
  Alcotest.(check bool) "wall clock non-negative" true (o.Sw_tuning.Tuner.tuning_host_s >= 0.0);
  Alcotest.(check bool) "cpu seconds non-negative" true (o.Sw_tuning.Tuner.tuning_cpu_s >= 0.0)

(* ------------------------------------------------------------------ *)
(* Shared schedule-cost cache *)

let test_schedule_cache_consistent () =
  let kernel = Sw_workloads.Kmeans.kernel ~scale:0.25 in
  let block = Sw_swacc.Codegen.block ~unroll:4 kernel.Sw_swacc.Kernel.body in
  Sw_isa.Schedule.clear_cache ();
  let once_c, steady_c = Sw_isa.Schedule.block_costs p block in
  let once_direct = float_of_int (Sw_isa.Schedule.once p block).Sw_isa.Schedule.completion in
  let steady_direct = Sw_isa.Schedule.steady_cycles p block in
  Alcotest.(check (float 0.0)) "cached once = computed once" once_direct once_c;
  Alcotest.(check (float 0.0)) "cached steady = computed steady" steady_direct steady_c;
  (* a second lookup is a hit and returns the same pair *)
  let hits0, misses0 = Sw_isa.Schedule.cache_stats () in
  let once_c2, steady_c2 = Sw_isa.Schedule.block_costs p block in
  let hits1, misses1 = Sw_isa.Schedule.cache_stats () in
  Alcotest.(check (float 0.0)) "hit once" once_c once_c2;
  Alcotest.(check (float 0.0)) "hit steady" steady_c steady_c2;
  Alcotest.(check int) "one more hit" (hits0 + 1) hits1;
  Alcotest.(check int) "no more misses" misses0 misses1

let test_schedule_cache_keyed_by_params () =
  let kernel = Sw_workloads.Kmeans.kernel ~scale:0.25 in
  let block = Sw_swacc.Codegen.block ~unroll:2 kernel.Sw_swacc.Kernel.body in
  let slow = { p with Sw_arch.Params.l_float = p.Sw_arch.Params.l_float * 4 } in
  Sw_isa.Schedule.clear_cache ();
  let once_fast, _ = Sw_isa.Schedule.block_costs p block in
  let once_slow, _ = Sw_isa.Schedule.block_costs slow block in
  Alcotest.(check bool) "different params, different entries" true (once_slow > once_fast)

let test_engine_consistent_after_cache_clear () =
  (* a simulation served by a warm cache must equal a cold one *)
  let entry = Sw_workloads.Registry.find_exn "hotspot" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let lowered = Sw_swacc.Lower.lower_exn p kernel entry.Sw_workloads.Registry.variant in
  Sw_isa.Schedule.clear_cache ();
  let cold = Sw_backend.Machine.cycles config lowered in
  let warm = Sw_backend.Machine.cycles config lowered in
  Alcotest.(check (float 0.0)) "cold = warm" cold warm

let tests =
  ( "pool",
    [
      Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
      Alcotest.test_case "filter_map matches sequential" `Quick test_filter_map_matches_sequential;
      Alcotest.test_case "empty and tiny lists" `Quick test_empty_and_tiny_lists;
      Alcotest.test_case "map_array" `Quick test_map_array;
      Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
      Alcotest.test_case "size clamping" `Quick test_size_clamped;
      Alcotest.test_case "static tuner deterministic" `Slow test_tuner_deterministic_static;
      Alcotest.test_case "empirical tuner deterministic" `Slow test_tuner_deterministic_empirical;
      Alcotest.test_case "fig6 rows identical" `Slow test_fig6_rows_identical;
      Alcotest.test_case "tuner wall clock sane" `Quick test_tuner_wall_clock_sane;
      Alcotest.test_case "schedule cache consistent" `Quick test_schedule_cache_consistent;
      Alcotest.test_case "schedule cache keyed by params" `Quick test_schedule_cache_keyed_by_params;
      Alcotest.test_case "engine consistent across cache states" `Quick
        test_engine_consistent_after_cache_clear;
    ] )
