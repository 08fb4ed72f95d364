(* Graceful degradation and crash-safe tuning: timeout/fallback
   combinators, the single-flight memoizer under domain fan-out, the
   assessment journal (resume after a kill is bit-identical and never
   recomputes journaled points), the robust search strategy, and the
   sink's unbalanced-async guard. *)

module Backend = Sw_backend.Backend
module Fault = Sw_fault.Fault
module Tuner = Sw_tuning.Tuner
module Search = Sw_tuning.Search

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let entry name = Sw_workloads.Registry.find_exn name

let kernel_of name scale = (entry name).Sw_workloads.Registry.build ~scale

let points_of name =
  let e = entry name in
  Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
    ~unrolls:e.Sw_workloads.Registry.unrolls ()

let tmp_file suffix = Filename.temp_file "swpm_test_" suffix

exception Flaky of int

let always_raises : Backend.t =
  (module struct
    let name = "broken"

    let description = "always raises"

    let assess ?cutoff:_ ?event_budget:_ _ _ _ = raise (Flaky (-1))
  end)

(* ------------------------------------------------------------------ *)
(* with_timeout *)

let test_timeout_disqualifies () =
  let sink = Sw_obs.Sink.create () in
  let b = Backend.with_timeout ~sink ~limit_s:0.0 Backend.simulator in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  (match Backend.assess b config kernel v with
  | exception Backend.Timeout { backend; limit_s; elapsed_s } ->
      Alcotest.(check string) "names the inner backend" "sim" backend;
      Alcotest.(check (float 0.0)) "carries the limit" 0.0 limit_s;
      Alcotest.(check bool) "elapsed > limit" true (elapsed_s > 0.0)
  | _ -> Alcotest.fail "expected Timeout");
  Alcotest.(check (float 0.0)) "timeout counted" 1.0
    (Sw_obs.Sink.counter sink "backend.timeout.sim")

let test_generous_timeout_is_transparent () =
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let plain = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
  let wrapped =
    Result.get_ok (Backend.assess (Backend.with_timeout ~limit_s:3600.0 Backend.simulator) config kernel v)
  in
  Alcotest.(check (float 0.0)) "verdict unchanged" plain.Backend.cycles wrapped.Backend.cycles

(* ------------------------------------------------------------------ *)
(* fallback *)

let test_fallback_degrades_and_counts () =
  let sink = Sw_obs.Sink.create () in
  let chain =
    Backend.fallback ~sink
      [ always_raises; Backend.with_timeout ~sink ~limit_s:0.0 Backend.simulator; Backend.static_model ]
  in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let verdict = Result.get_ok (Backend.assess chain config kernel v) in
  let expected = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
  Alcotest.(check (float 0.0)) "the surviving backend answers" expected.Backend.cycles
    verdict.Backend.cycles;
  Alcotest.(check (float 0.0)) "first hop counted" 1.0
    (Sw_obs.Sink.counter sink "backend.degraded.broken");
  Alcotest.(check (float 0.0)) "second hop counted" 1.0
    (Sw_obs.Sink.counter sink "backend.degraded.timeout(sim)")

let test_fallback_exhaustion_is_infeasible_not_raise () =
  let sink = Sw_obs.Sink.create () in
  let chain = Backend.fallback ~sink [ always_raises; always_raises ] in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  (match Backend.assess chain config kernel v with
  | Error { Backend.reason; _ } ->
      Alcotest.(check bool) "names the last failure" true
        (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected Infeasible");
  Alcotest.(check (float 0.0)) "exhaustion counted" 1.0
    (Sw_obs.Sink.counter sink "backend.fallback.exhausted")

(* Acceptance: the sim > hybrid > model chain never raises on any Table
   II point, under fault plans and a zero-second timeout that forces the
   simulator hop to fail every time. *)
let test_fallback_never_raises_on_table2_under_faults () =
  let sink = Sw_obs.Sink.create () in
  let chain =
    Backend.fallback ~sink
      [
        Backend.with_timeout ~sink ~limit_s:0.0 Backend.simulator;
        Backend.hybrid ();
        Backend.static_model;
      ]
  in
  let plan = Fault.plan ~spec:Fault.harsh ~seed:3 config in
  let assessed = ref 0 in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let kernel = e.build ~scale:0.25 in
      List.iter
        (fun pt ->
          let v = Sw_tuning.Space.to_variant pt ~active_cpes:64 in
          match Backend.assess chain plan kernel v with
          | Ok _ | Error _ -> incr assessed
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "fallback raised %s on %s" (Printexc.to_string e)
                   kernel.Sw_swacc.Kernel.name))
        (points_of e.name))
    Sw_workloads.Registry.tuning_subset;
  Alcotest.(check bool) "assessed the whole table" true (!assessed > 0);
  Alcotest.(check (float 0.0)) "every simulator hop visibly degraded"
    (float_of_int !assessed)
    (Sw_obs.Sink.counter sink "backend.degraded.timeout(sim)")

(* ------------------------------------------------------------------ *)
(* Memoizer hammered from concurrent domains (satellite) *)

let test_memo_hammered_from_domains () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let kernel = kernel_of "kmeans" 0.25 in
  let points = points_of "kmeans" in
  let variants = List.map (Sw_tuning.Space.to_variant ~active_cpes:64) points in
  let distinct = List.length (List.sort_uniq compare variants) in
  (* 4 domains x 3 rounds over the same keys: every key is computed
     exactly once, everything else is a hit *)
  let rounds = 3 in
  let jobs = List.concat (List.init rounds (fun _ -> variants)) in
  let pool = Sw_util.Pool.create ~size:4 () in
  let results = Sw_util.Pool.map pool (fun v -> Backend.assess b config kernel v) jobs in
  let total = List.length jobs in
  Alcotest.(check int) "misses = distinct keys" distinct (Backend.memo_misses memo);
  Alcotest.(check int) "hits = everything else" (total - distinct) (Backend.memo_hits memo);
  (* all rounds agree bit-for-bit *)
  let cycles_of = function
    | Ok v -> v.Backend.cycles
    | Error _ -> Float.nan
  in
  let first_round = List.filteri (fun i _ -> i < distinct) results in
  List.iteri
    (fun i r ->
      let expected = List.nth first_round (i mod distinct) in
      Alcotest.(check bool) "hit equals first computation" true
        (cycles_of r = cycles_of expected || (Result.is_error r && Result.is_error expected)))
    results

(* ------------------------------------------------------------------ *)
(* Crash-safe journal *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let test_checkpointed_sweep_resumes_bit_identical () =
  let path = tmp_file ".journal" in
  Sys.remove path;
  let kernel = kernel_of "kmeans" 0.25 in
  let points = points_of "kmeans" in
  let uninterrupted =
    Tuner.tune_exn ~backend:Backend.simulator config kernel ~points
  in
  (* first checkpointed run: everything is a miss, all journaled *)
  let o1 =
    Tuner.tune_exn ~backend:Backend.simulator ~checkpoint:path config kernel ~points
  in
  Alcotest.(check int) "first run replays nothing" 0 o1.Tuner.journal_hits;
  Alcotest.(check int) "first run journals every point" (List.length points)
    o1.Tuner.journal_misses;
  (* simulate a kill mid-write: truncate the file into a partial tail *)
  let full = count_lines path in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let cut = String.length contents - 37 in
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 cut);
  close_out oc;
  (* resume: the intact prefix replays, the lost tail (the truncated
     line and anything after it) recomputes, the argmin is bit-identical *)
  let memo = Backend.memoize Backend.simulator in
  let o2 =
    Tuner.tune_exn ~backend:(Backend.memoized memo) ~checkpoint:path config kernel ~points
  in
  Alcotest.(check bool) "same pick" true (o2.Tuner.best = uninterrupted.Tuner.best);
  Alcotest.(check (float 0.0)) "bit-identical cycles" uninterrupted.Tuner.best_cycles
    o2.Tuner.best_cycles;
  Alcotest.(check bool) "most points replayed, not recomputed" true
    (o2.Tuner.journal_hits >= full - 2);
  (* the inner memo proves replay never touched the backend *)
  Alcotest.(check int) "recomputed only the lost tail" o2.Tuner.journal_misses
    (Backend.memo_misses memo);
  (* a third run replays everything and recomputes nothing *)
  let memo3 = Backend.memoize Backend.simulator in
  let o3 =
    Tuner.tune_exn ~backend:(Backend.memoized memo3) ~checkpoint:path config kernel ~points
  in
  Alcotest.(check int) "third run recomputes nothing" 0 (Backend.memo_misses memo3);
  Alcotest.(check int) "third run is all hits" (List.length points) o3.Tuner.journal_hits;
  Alcotest.(check bool) "third run same pick" true (o3.Tuner.best = uninterrupted.Tuner.best);
  Sys.remove path

let test_journal_bound_to_config () =
  let path = tmp_file ".journal" in
  Sys.remove path;
  let kernel = kernel_of "nbody" 0.25 in
  let points = points_of "nbody" in
  let o1 = Tuner.tune_exn ~backend:Backend.static_model ~checkpoint:path config kernel ~points in
  Alcotest.(check int) "journaled" (List.length points) o1.Tuner.journal_misses;
  (* different machine parameters: the journal must not replay *)
  let other =
    Sw_sim.Config.default { p with Sw_arch.Params.mem_bw_bytes_per_s = p.Sw_arch.Params.mem_bw_bytes_per_s /. 2.0 }
  in
  let o2 = Tuner.tune_exn ~backend:Backend.static_model ~checkpoint:path other kernel ~points in
  Alcotest.(check int) "stale journal replays nothing" 0 o2.Tuner.journal_hits;
  Sys.remove path

let test_journal_replays_infeasibility () =
  let path = tmp_file ".journal" in
  Sys.remove path;
  let j1 = Backend.journal ~path config Backend.static_model in
  let kernel = kernel_of "lud" 1.0 in
  let bad = { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false } in
  (match Backend.assess (Backend.journaled j1) config kernel bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection");
  Backend.journal_close j1;
  let j2 = Backend.journal ~path config Backend.static_model in
  (match Backend.assess (Backend.journaled j2) config kernel bad with
  | Error { Backend.reason; _ } ->
      Alcotest.(check bool) "reason survives the round-trip" true (String.length reason > 0)
  | Ok _ -> Alcotest.fail "expected replayed rejection");
  Alcotest.(check int) "replayed, not recomputed" 1 (Backend.journal_hits j2);
  Backend.journal_close j2;
  Sys.remove path

(* A resumed ranked search repeats no work: every verification of the
   second run — the cut-off ones included, as journaled bounds — is
   answered from the first run's journal, and the outcome is the first
   run's. *)
let test_resumed_search_repeats_no_work () =
  List.iter
    (fun (name, strategy) ->
      let path = tmp_file ".journal" in
      Sys.remove path;
      let kernel = kernel_of name 0.25 in
      let points = points_of name in
      let run () =
        Tuner.tune_exn ~backend:Backend.simulator ~strategy ~checkpoint:path config kernel
          ~points
      in
      let o1 = run () in
      let o2 = run () in
      let what = Printf.sprintf "%s %s: " name o1.Tuner.strategy in
      (match Backend.journal_read ~config path with
      | Ok entries ->
          Alcotest.(check bool) (what ^ "the first run journaled a cut-off") true
            (List.exists (function _, Backend.Journal_cutoff _ -> true | _ -> false) entries)
      | Error issue -> Alcotest.fail (Backend.journal_issue_string issue));
      Alcotest.(check int) (what ^ "resume recomputes nothing") 0 o2.Tuner.journal_misses;
      Alcotest.(check bool) (what ^ "same pick") true (o1.Tuner.best = o2.Tuner.best);
      Alcotest.(check (float 0.0)) (what ^ "best cycles") o1.Tuner.best_cycles
        o2.Tuner.best_cycles;
      Alcotest.(check (float 0.0)) (what ^ "default cycles") o1.Tuner.default_cycles
        o2.Tuner.default_cycles;
      Alcotest.(check int) (what ^ "evaluated") o1.Tuner.evaluated o2.Tuner.evaluated;
      Alcotest.(check int) (what ^ "infeasible") o1.Tuner.infeasible o2.Tuner.infeasible;
      Alcotest.(check int) (what ^ "pruned") o1.Tuner.points_pruned o2.Tuner.points_pruned;
      Sys.remove path)
    [
      ("lud", Search.shortlist ~k:8 ());
      ("lud", Search.adaptive_shortlist ~k:4 ());
      ("kmeans", Search.shortlist ~k:8 ());
      ("kmeans", Search.adaptive_shortlist ~k:4 ());
    ]

(* ------------------------------------------------------------------ *)
(* Robust search *)

let test_robust_strategy_picks_min_of_worst_case () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points = points_of "kmeans" in
  let seeds = [ 1; 2; 3 ] in
  let spec = Fault.harsh in
  (* with k = |space| the robust pick must equal the brute-force
     min-of-worst-case argmin *)
  let o =
    Tuner.tune_exn ~backend:Backend.simulator
      ~strategy:(Search.robust ~k:(List.length points) ~seeds ~spec ())
      ~default:e.Sw_workloads.Registry.variant config kernel ~points
  in
  let plans = List.map (fun seed -> Fault.plan ~spec ~seed config) seeds in
  let worst v =
    List.fold_left
      (fun acc plan ->
        match Backend.assess Backend.simulator plan kernel v with
        | Ok r -> Stdlib.max acc r.Backend.cycles
        | Error _ -> Float.infinity)
      0.0 plans
  in
  let brute =
    List.fold_left
      (fun best pt ->
        let v = Sw_tuning.Space.to_variant pt ~active_cpes:64 in
        let w = worst v in
        match best with Some (_, bw) when bw <= w -> best | _ -> Some (v, w))
      None points
  in
  (match brute with
  | Some (v, w) ->
      Alcotest.(check bool) "argmin = brute-force min-of-worst-case" true (o.Tuner.best = v);
      Alcotest.(check bool) "robust pick has a finite worst case" true (Float.is_finite w);
      (* best_cycles is the tuner's validation re-run on the *nominal*
         machine (quality is always judged there), not the robust score *)
      let nominal =
        Result.get_ok (Backend.assess Backend.simulator config kernel v)
      in
      Alcotest.(check (float 0.0)) "best_cycles = nominal validation run"
        nominal.Backend.cycles o.Tuner.best_cycles
  | None -> Alcotest.fail "space unexpectedly empty");
  (* every shortlisted survivor is robust-scored: the nominal incumbent
     cutoff must not prune points before the worst-case pass sees them *)
  let sink = Sw_obs.Sink.create () in
  let ok =
    Tuner.tune_exn ~backend:Backend.simulator
      ~strategy:(Search.robust ~k:4 ~seeds ~spec ())
      ~default:e.Sw_workloads.Registry.variant ~obs:sink config kernel ~points
  in
  Alcotest.(check int) "all k survivors fully priced" 4 ok.Tuner.evaluated;
  Alcotest.(check (float 0.0)) "k x seeds fault-plan assessments"
    (float_of_int (4 * List.length seeds))
    (Sw_obs.Sink.counter sink "search.robust_assessments");
  (* pool invariance of the robust strategy *)
  let run pool =
    let o =
      Tuner.tune_exn ~backend:Backend.simulator
        ~strategy:(Search.robust ~k:4 ~seeds ~spec ())
        ~default:e.Sw_workloads.Registry.variant ?pool config kernel ~points
    in
    (o.Tuner.best, o.Tuner.best_cycles)
  in
  let baseline = run None in
  Alcotest.(check bool) "pool-invariant" true
    (run (Some (Sw_util.Pool.create ~size:4 ())) = baseline)

let test_robust_strategy_validates () =
  (match Search.robust ~k:2 ~seeds:[] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty seeds accepted");
  match Search.robust ~k:2 ~seeds:[ 1 ] ~quantile:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile out of range accepted"

(* ------------------------------------------------------------------ *)
(* Sink async guard (satellite) *)

let test_async_guard_drops_unbalanced () =
  let sink = Sw_obs.Sink.create () in
  let ok = Sw_obs.Sink.async_begin sink ~track:0 ~cat:"dma" ~t0_us:1.0 "balanced" in
  Sw_obs.Sink.async_end sink ~t1_us:2.0 ok;
  Alcotest.(check int) "balanced pair recorded" 1 (Sw_obs.Sink.async_count sink);
  Alcotest.(check int) "nothing dropped yet" 0 (Sw_obs.Sink.async_dropped sink);
  (* unknown id *)
  Sw_obs.Sink.async_end sink ~t1_us:3.0 4242;
  Alcotest.(check int) "unknown end dropped" 1 (Sw_obs.Sink.async_dropped sink);
  (* double end *)
  Sw_obs.Sink.async_end sink ~t1_us:4.0 ok;
  Alcotest.(check int) "double end dropped" 2 (Sw_obs.Sink.async_dropped sink);
  (* end travelling backwards in time *)
  let back = Sw_obs.Sink.async_begin sink ~track:0 ~cat:"dma" ~t0_us:10.0 "backwards" in
  Sw_obs.Sink.async_end sink ~t1_us:5.0 back;
  Alcotest.(check int) "backwards end dropped" 3 (Sw_obs.Sink.async_dropped sink);
  (* still-open operation counts as dropped until ended *)
  let open_id = Sw_obs.Sink.async_begin sink ~track:1 ~cat:"dma" ~t0_us:20.0 "open" in
  Alcotest.(check int) "open begin counted" 4 (Sw_obs.Sink.async_dropped sink);
  Sw_obs.Sink.async_end sink ~t1_us:21.0 open_id;
  Alcotest.(check int) "closing it uncounts" 3 (Sw_obs.Sink.async_dropped sink);
  Alcotest.(check int) "both balanced pairs recorded" 2 (Sw_obs.Sink.async_count sink);
  (* the guard keeps the Chrome export valid *)
  let path = tmp_file ".trace.json" in
  Sw_obs.Chrome.write path sink;
  (match Sw_obs.Json.validate_file path with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("corrupt Chrome export: " ^ msg));
  Sys.remove path

let test_faulty_run_trace_exports_valid_chrome () =
  let sink = Sw_obs.Sink.create () in
  let plan =
    {
      config with
      Sw_sim.Config.faults =
        {
          Sw_sim.Config.no_faults with
          Sw_sim.Config.fault_seed = 11;
          dma_fail_prob = 0.5;
          dma_max_retries = 4;
          dma_backoff_cycles = 32;
        };
    }
  in
  let lowered =
    Sw_swacc.Lower.lower_exn p (kernel_of "kmeans" 0.25)
      (entry "kmeans").Sw_workloads.Registry.variant
  in
  let metrics, _ =
    Sw_obs.Probe.run_traced sink ~name:"faulty:kmeans" plan lowered.Sw_swacc.Lowered.programs
  in
  Alcotest.(check bool) "retries recorded" true (metrics.Sw_sim.Metrics.retries > 0);
  Alcotest.(check (float 0.0)) "retry counter matches metrics"
    (float_of_int metrics.Sw_sim.Metrics.retries)
    (Sw_obs.Sink.counter sink "sim.dma_retries");
  Alcotest.(check int) "no unbalanced async events" 0 (Sw_obs.Sink.async_dropped sink);
  let path = tmp_file ".trace.json" in
  Sw_obs.Chrome.write path sink;
  (match Sw_obs.Json.validate_file path with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("corrupt Chrome export: " ^ msg));
  Sys.remove path

let tests =
  ( "resilience",
    [
      (* these two take the slots of two deleted cases, so every later
         case keeps its index *)
      Alcotest.test_case "robust strategy validates" `Quick test_robust_strategy_validates;
      Alcotest.test_case "async guard drops unbalanced" `Quick test_async_guard_drops_unbalanced;
      Alcotest.test_case "timeout disqualifies" `Quick test_timeout_disqualifies;
      Alcotest.test_case "generous timeout transparent" `Quick
        test_generous_timeout_is_transparent;
      Alcotest.test_case "fallback degrades and counts" `Quick test_fallback_degrades_and_counts;
      Alcotest.test_case "fallback exhaustion typed" `Quick
        test_fallback_exhaustion_is_infeasible_not_raise;
      Alcotest.test_case "fallback never raises on Table II" `Slow
        test_fallback_never_raises_on_table2_under_faults;
      Alcotest.test_case "memo hammered from 4 domains" `Quick test_memo_hammered_from_domains;
      Alcotest.test_case "checkpointed sweep resumes" `Slow
        test_checkpointed_sweep_resumes_bit_identical;
      Alcotest.test_case "journal bound to config" `Quick test_journal_bound_to_config;
      Alcotest.test_case "journal replays infeasibility" `Quick test_journal_replays_infeasibility;
      Alcotest.test_case "resumed search repeats no work" `Quick
        test_resumed_search_repeats_no_work;
      Alcotest.test_case "robust = min-of-worst-case" `Slow
        test_robust_strategy_picks_min_of_worst_case;
      Alcotest.test_case "faulty trace exports valid Chrome" `Quick
        test_faulty_run_trace_exports_valid_chrome;
    ] )
