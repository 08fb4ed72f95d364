(* The cost-backend layer: equivalence of each backend with the raw
   estimator it wraps, bit-identical pooled searches, the memoizer's
   accounting, the registry, and the hybrid's bracketing property. *)

module Backend = Sw_backend.Backend

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let pool n = Sw_util.Pool.create ~size:n ()

let entry name = Sw_workloads.Registry.find_exn name

let kernel_of name scale = (entry name).Sw_workloads.Registry.build ~scale

(* ------------------------------------------------------------------ *)
(* Equivalence with the raw estimators *)

let test_static_model_matches_predict () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let expected =
    match Sw_swacc.Lower.summarize p kernel v with
    | Ok s -> (Swpm.Predict.run p s).Swpm.Predict.t_total
    | Error msg -> failwith msg
  in
  let verdict = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Predict.run" expected verdict.Backend.cycles;
  Alcotest.(check (float 0.0)) "no machine time" 0.0
    verdict.Backend.cost.Backend.machine_us;
  Alcotest.(check bool) "carries the model breakdown" true
    (verdict.Backend.breakdown <> None)

let test_simulator_matches_engine () =
  let e = entry "lud" in
  let kernel = kernel_of "lud" 0.5 in
  let v = e.Sw_workloads.Registry.variant in
  let lowered = Sw_swacc.Lower.lower_exn p kernel v in
  let expected = Sw_backend.Machine.cycles config lowered in
  let verdict = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Engine.run" expected verdict.Backend.cycles;
  Alcotest.(check (float 0.0)) "machine time = execution time"
    (Sw_util.Units.cycles_to_us ~freq_hz:p.Sw_arch.Params.freq_hz expected)
    verdict.Backend.cost.Backend.machine_us

(* The tune tail prices its pick and default through [Backend.simulator]
   (a memoized one in the daemon).  It must read the bits of
   [Machine.cycles] on the cached lowering — unbudgeted, under a cutoff
   the run finishes within (the verdict a pruned search stores in the
   memo), and as a memo hit — at each Table II kernel's registry
   variant, the tuner's default and the in-process model and shortlist
   argmins. *)
let test_simulator_bitwise_machine_cycles () =
  let bits = Int64.bits_of_float in
  let check_bits what expected got =
    if bits expected <> bits got then Alcotest.failf "%s: %h <> %h" what got expected
  in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let name = e.Sw_workloads.Registry.name in
      let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
      let points =
        Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
          ~unrolls:e.Sw_workloads.Registry.unrolls ()
      in
      let model = Sw_tuning.Tuner.tune_exn ~backend:Backend.static_model config kernel ~points in
      let shortlist =
        Sw_tuning.Tuner.tune_exn ~backend:Backend.simulator
          ~strategy:(Sw_tuning.Search.shortlist ~k:4 ())
          config kernel ~points
      in
      let memo = Backend.memoize Backend.simulator in
      List.iter
        (fun (label, v, tuned) ->
          let what = Printf.sprintf "%s %s" name label in
          let expected =
            Sw_backend.Machine.cycles config (Sw_swacc.Lower.lower_cached_exn p kernel v)
          in
          check_bits (what ^ " simulator") expected
            (Backend.cycles_exn Backend.simulator config kernel v);
          List.iter
            (fun cutoff ->
              match Backend.assess_budget ~cutoff Backend.simulator config kernel v with
              | Backend.Assessed verdict ->
                  check_bits (what ^ " under a cutoff") expected verdict.Backend.cycles
              | _ -> Alcotest.failf "%s: cut off under cutoff %g" what cutoff)
            [ expected; 2.0 *. expected ];
          let b = Backend.memoized memo in
          check_bits (what ^ " memo miss") expected (Backend.cycles_exn b config kernel v);
          check_bits (what ^ " memo hit") expected (Backend.cycles_exn b config kernel v);
          Option.iter (check_bits (what ^ " outcome") expected) tuned)
        [
          ("registry variant", e.Sw_workloads.Registry.variant, None);
          ("model argmin", model.Sw_tuning.Tuner.best, Some model.Sw_tuning.Tuner.best_cycles);
          ( "shortlist argmin",
            shortlist.Sw_tuning.Tuner.best,
            Some shortlist.Sw_tuning.Tuner.best_cycles );
          ( "tuner default",
            (* the first point the model priced, at unroll 1 *)
            (let p0 =
               List.find
                 (fun pt ->
                   Result.is_ok
                     (Backend.assess Backend.static_model config kernel
                        (Sw_tuning.Space.to_variant pt ~active_cpes:64)))
                 points
             in
             Sw_tuning.Space.to_variant
               { p0 with Sw_tuning.Space.unroll = 1; double_buffer = false }
               ~active_cpes:64),
            Some model.Sw_tuning.Tuner.default_cycles );
        ])
    Sw_workloads.Registry.tuning_subset

let test_roofline_matches_analyze () =
  let e = entry "nbody" in
  let kernel = kernel_of "nbody" 0.5 in
  let v = e.Sw_workloads.Registry.variant in
  let expected =
    match Sw_swacc.Lower.summarize p kernel v with
    | Ok s -> (Swpm.Roofline.analyze p s).Swpm.Roofline.predicted_cycles
    | Error msg -> failwith msg
  in
  let verdict = Result.get_ok (Backend.assess Backend.roofline config kernel v) in
  Alcotest.(check (float 0.0)) "cycles = Roofline.analyze" expected verdict.Backend.cycles

let test_infeasible_variant_rejected () =
  let kernel = kernel_of "lud" 1.0 in
  let v = { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false } in
  List.iter
    (fun backend ->
      match Backend.assess backend config kernel v with
      | Error { Backend.backend = b; reason } ->
          Alcotest.(check string) "rejection names its backend" (Backend.name backend) b;
          Alcotest.(check bool) "reason non-empty" true (String.length reason > 0)
      | Ok _ -> Alcotest.fail (Backend.name backend ^ ": expected rejection"))
    [ Backend.static_model; Backend.simulator; Backend.hybrid (); Backend.roofline ]

(* ------------------------------------------------------------------ *)
(* Pre-refactor equivalence: the backend-driven tuner and Fig 6 rows
   must equal the hand-rolled search at pool sizes 1 and 4. *)

let hand_rolled_static_search kernel points =
  (* the pre-backend static tuner, inlined: summarize + Predict, argmin
     with strict < in enumeration order *)
  let scored =
    List.filter_map
      (fun (pt : Sw_tuning.Space.point) ->
        let v = Sw_tuning.Space.to_variant pt ~active_cpes:64 in
        match Sw_swacc.Lower.summarize p kernel v with
        | Error _ -> None
        | Ok s -> Some (pt, (Swpm.Predict.run p s).Swpm.Predict.t_total))
      points
  in
  match scored with
  | [] -> None
  | (p0, s0) :: rest ->
      Some
        (fst
           (List.fold_left
              (fun (bp, bs) (pt, s) -> if s < bs then (pt, s) else (bp, bs))
              (p0, s0) rest))

let test_tuner_matches_hand_rolled_search () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let expected_best =
    match hand_rolled_static_search kernel points with
    | Some pt -> Sw_tuning.Space.to_variant pt ~active_cpes:64
    | None -> Alcotest.fail "search space unexpectedly empty"
  in
  List.iter
    (fun pool_opt ->
      let o =
        Sw_tuning.Tuner.tune_exn ~backend:Backend.static_model ?pool:pool_opt config kernel
          ~points
      in
      Alcotest.(check bool) "same pick as the pre-backend tuner" true
        (o.Sw_tuning.Tuner.best = expected_best))
    [ None; Some (pool 1); Some (pool 4) ]

let test_table2_rows_pool_invariant () =
  let baseline = Sw_experiments.Table2.run ~scale:0.25 () in
  List.iter
    (fun n ->
      let rows = Sw_experiments.Table2.run ~scale:0.25 ~pool:(pool n) () in
      List.iter2
        (fun (a : Sw_experiments.Table2.row) (b : Sw_experiments.Table2.row) ->
          Alcotest.(check string) "kernel" a.Sw_experiments.Table2.name b.Sw_experiments.Table2.name;
          Alcotest.(check bool) "static pick" true
            (a.static.Sw_tuning.Tuner.best = b.static.Sw_tuning.Tuner.best);
          Alcotest.(check bool) "empirical pick" true
            (a.empirical.Sw_tuning.Tuner.best = b.empirical.Sw_tuning.Tuner.best);
          Alcotest.(check (float 0.0)) "static best cycles" a.static.Sw_tuning.Tuner.best_cycles
            b.static.Sw_tuning.Tuner.best_cycles;
          Alcotest.(check (float 0.0))
            "empirical machine time" a.empirical.Sw_tuning.Tuner.machine_time_us
            b.empirical.Sw_tuning.Tuner.machine_time_us)
        baseline rows)
    [ 1; 4 ]

let test_fig6_rows_pool_invariant () =
  let baseline = Sw_experiments.Fig6.run ~scale:0.25 () in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "fig6 rows, %d domains" n)
        true
        (Sw_experiments.Fig6.run ~scale:0.25 ~pool:(pool n) () = baseline))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Memoizer *)

let test_memo_hit_miss_accounting () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let v2 = { v with Sw_swacc.Kernel.unroll = v.Sw_swacc.Kernel.unroll + 1 } in
  let first = Result.get_ok (Backend.assess b config kernel v) in
  Alcotest.(check int) "one miss" 1 (Backend.memo_misses memo);
  Alcotest.(check int) "no hits yet" 0 (Backend.memo_hits memo);
  let second = Result.get_ok (Backend.assess b config kernel v) in
  Alcotest.(check int) "second is a hit" 1 (Backend.memo_hits memo);
  Alcotest.(check (float 0.0)) "same cycles" first.Backend.cycles second.Backend.cycles;
  Alcotest.(check (float 0.0)) "hit costs nothing" 0.0
    second.Backend.cost.Backend.host_wall_s;
  ignore (Backend.assess b config kernel v2);
  Alcotest.(check int) "different variant misses" 2 (Backend.memo_misses memo);
  Backend.memo_clear memo;
  ignore (Backend.assess b config kernel v);
  Alcotest.(check int) "cleared table misses again" 3 (Backend.memo_misses memo)

(* Every key of a dense 64-grain x 8-unroll x double-buffer sweep, on
   every Table II kernel, files under its own hash.  The generic
   structural hash reaches only the grain of such a key, which put
   1,024 keys in 64 buckets. *)
let test_memo_hash_distinct () =
  let variants =
    Sw_tuning.Space.enumerate ~grains:(List.init 64 succ) ~unrolls:(List.init 8 succ)
      ~double_buffers:[ false; true ] ()
    |> List.map (Sw_tuning.Space.to_variant ~active_cpes:64)
  in
  let hashes =
    List.concat_map
      (fun (e : Sw_workloads.Registry.entry) ->
        let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
        List.map (Backend.memo_hash config kernel) variants)
      Sw_workloads.Registry.tuning_subset
  in
  let keys = List.length variants * List.length Sw_workloads.Registry.tuning_subset in
  Alcotest.(check int) "one hash per key" keys (List.length (List.sort_uniq compare hashes));
  let kernel = kernel_of "kmeans" 0.25 in
  let v = List.hd variants in
  Alcotest.(check bool) "cpes count" true
    (Backend.memo_hash config kernel v
    <> Backend.memo_hash config kernel { v with Sw_swacc.Kernel.active_cpes = 32 });
  let faulty =
    { config with
      Sw_sim.Config.faults = { config.Sw_sim.Config.faults with Sw_sim.Config.fault_seed = 7 } }
  in
  Alcotest.(check bool) "fault seed counts" true
    (Backend.memo_hash config kernel v <> Backend.memo_hash faulty kernel v)

let test_memo_caches_infeasibility () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let kernel = kernel_of "lud" 1.0 in
  let v = { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false } in
  (match Backend.assess b config kernel v with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection");
  (match Backend.assess b config kernel v with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected cached rejection");
  Alcotest.(check int) "rejection cached" 1 (Backend.memo_hits memo);
  Alcotest.(check int) "computed once" 1 (Backend.memo_misses memo)

let test_memo_composes_with_pool () =
  let memo = Backend.memoize Backend.static_model in
  let b = Backend.memoized memo in
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let o1 = Sw_tuning.Tuner.tune_exn ~backend:b ~pool:(pool 4) config kernel ~points in
  let misses_after_first = Backend.memo_misses memo in
  let o2 = Sw_tuning.Tuner.tune_exn ~backend:b ~pool:(pool 4) config kernel ~points in
  Alcotest.(check bool) "same pick through the memo" true
    (o1.Sw_tuning.Tuner.best = o2.Sw_tuning.Tuner.best);
  Alcotest.(check int) "second search computes nothing new" misses_after_first
    (Backend.memo_misses memo);
  Alcotest.(check bool) "second search served from cache" true
    (Backend.memo_hits memo >= List.length points)

(* Cut-off bounds.  The fixture: lud at a small scale, a few feasible
   variants and one that does not fit in SPM, each with its unbudgeted
   cycles and event count from the bare simulator. *)

let bound_kernel = kernel_of "lud" 0.1

let bound_variants =
  Array.of_list
    (List.map
       (fun (grain, unroll) ->
         { Sw_swacc.Kernel.grain; unroll; active_cpes = 64; double_buffer = false })
       [ (8, 1); (16, 2); (32, 1); (4096, 1) ])

(* cycles and events of a full run; [None] for the infeasible variant *)
let bound_truth =
  Array.map
    (fun v ->
      match Backend.assess Backend.simulator config bound_kernel v with
      | Ok verdict -> Some (verdict.Backend.cycles, verdict.Backend.cost.Backend.machine_events)
      | Error _ -> None)
    bound_variants

(* the simulator, counting how often it is asked and raising while
   [fail] is set *)
let counting_simulator ?(fail = ref false) () =
  let calls = Atomic.make 0 in
  let module Counted = struct
    let name = "sim"
    let description = "counting simulator"

    let assess ?cutoff ?event_budget config kernel variant =
      Atomic.incr calls;
      if !fail then failwith "inner backend failed";
      Backend.assess_budget ?cutoff ?event_budget Backend.simulator config kernel variant
  end in
  ((module Counted : Backend.S), calls)

(* One call: (variant index, cutoff as a fraction of the variant's
   cycles, event budget as a fraction of its events). *)
let bound_call (vi, cut, budget) =
  let cycles, events =
    match bound_truth.(vi) with Some (c, e) -> (c, e) | None -> (1e4, 1_000)
  in
  let cutoff = Option.map (fun i -> cycles *. [| 0.25; 0.5; 0.9; 0.999; 1.0; 1.5 |].(i)) cut in
  let event_budget =
    Option.map (fun i -> Stdlib.max 1 (events * [| 1; 4; 16 |].(i) / 8)) budget
  in
  (vi, cutoff, event_budget)

(* A memoized answer agrees with the bare simulator's: the same
   constructor and bits, a cut-off on the same side of the cutoff —
   except that a stored verdict answers a call under an event budget in
   full, with the unbudgeted cycles.  An unbudgeted call under a cutoff
   gets a cut-off wherever the bare simulator gives one, so a warm memo
   prunes exactly what a cold one does. *)
let bound_agrees (vi, cutoff, event_budget) memo bare =
  let bits = Int64.bits_of_float in
  match (memo, bare) with
  | Backend.Assessed m, Backend.Assessed b -> bits m.Backend.cycles = bits b.Backend.cycles
  | Backend.Infeasible _, Backend.Infeasible _ -> true
  | Backend.Cut_off { at = a; _ }, Backend.Cut_off { at = b; _ } -> (
      match cutoff with Some c -> a > c = (b > c) | None -> bits a = bits b)
  | Backend.Assessed m, Backend.Cut_off _ when event_budget <> None -> (
      match bound_truth.(vi) with
      | Some (cycles, _) -> bits m.Backend.cycles = bits cycles
      | None -> false)
  | _ -> false

let run_bound_call b (vi, cutoff, event_budget) =
  Backend.assess_budget ?cutoff ?event_budget b config bound_kernel bound_variants.(vi)

(* [run inner calls] answers [calls] through a store over [inner] and
   reports its answers, hits and misses: every answer agrees with the
   bare simulator's, every call is a hit or a miss, and every miss asks
   the simulator once. *)
let prop_bounds_agree_with_simulator ~name run =
  let call =
    QCheck.(
      triple
        (int_range 0 (Array.length bound_variants - 1))
        (option (int_range 0 5))
        (option (int_range 0 2)))
  in
  QCheck.Test.make ~name ~count:40
    QCheck.(list_of_size Gen.(int_range 1 24) call)
    (fun calls ->
      let calls = List.map bound_call calls in
      let inner, inner_calls = counting_simulator () in
      let answers, hits, misses = run inner calls in
      List.for_all2
        (fun c r -> bound_agrees c r (run_bound_call Backend.simulator c))
        calls answers
      && hits + misses = List.length calls
      && misses = Atomic.get inner_calls)

let prop_memo_bounds_agree_with_simulator =
  prop_bounds_agree_with_simulator ~name:"memo with cut-off bounds = bare simulator"
    (fun inner calls ->
      let memo = Backend.memoize inner in
      let answers = List.map (run_bound_call (Backend.memoized memo)) calls in
      (answers, Backend.memo_hits memo, Backend.memo_misses memo))

(* The journal is the same store made durable: closed and reopened
   halfway through the calls, it answers from the file exactly what the
   memo answers from memory. *)
let prop_journal_bounds_agree_with_simulator =
  prop_bounds_agree_with_simulator ~name:"journal with cut-off bounds = bare simulator"
    (fun inner calls ->
      let path = Filename.temp_file "swpm_bounds" ".journal" in
      let session calls =
        let j = Backend.journal ~path config inner in
        let answers = List.map (run_bound_call (Backend.journaled j)) calls in
        Backend.journal_close j;
        (answers, Backend.journal_hits j, Backend.journal_misses j)
      in
      let half = List.length calls / 2 in
      let a1, h1, m1 = session (List.filteri (fun i _ -> i < half) calls) in
      let a2, h2, m2 = session (List.filteri (fun i _ -> i >= half) calls) in
      Sys.remove path;
      let memo = Backend.memoize Backend.simulator in
      List.iter (fun c -> ignore (run_bound_call (Backend.memoized memo) c)) calls;
      if m1 + m2 <> Backend.memo_misses memo then
        QCheck.Test.fail_reportf "the journal missed %d times, the memo %d" (m1 + m2)
          (Backend.memo_misses memo);
      (a1 @ a2, h1 + h2, m1 + m2))

let test_memo_keeps_bounds () =
  let fail = ref false in
  let inner, inner_calls = counting_simulator ~fail () in
  let sink = Sw_obs.Sink.create () in
  let memo = Backend.memoize ~sink inner in
  let b = Backend.memoized memo in
  let cycles, events = Option.get bound_truth.(0) in
  let v = bound_variants.(0) in
  let assess ?cutoff ?event_budget () =
    Backend.assess_budget ?cutoff ?event_budget b config bound_kernel v
  in
  let c = 0.5 *. cycles in
  let at =
    match assess ~cutoff:c () with
    | Backend.Cut_off { at; _ } -> at
    | _ -> Alcotest.fail "expected a cut-off under half the cycles"
  in
  let bound = ref at in
  let expect_bound_hit what =
    let hits = Backend.memo_hits memo and calls = Atomic.get inner_calls in
    (match assess ~cutoff:c () with
    | Backend.Cut_off { at = at'; cost } ->
        Alcotest.(check (float 0.0)) (what ^ ": the stored bound") !bound at';
        Alcotest.(check (float 0.0)) (what ^ ": free") 0.0 cost.Backend.machine_us
    | _ -> Alcotest.fail (what ^ ": expected a cut-off"));
    Alcotest.(check int) (what ^ ": a hit") (hits + 1) (Backend.memo_hits memo);
    Alcotest.(check int) (what ^ ": the simulator is not asked") calls (Atomic.get inner_calls)
  in
  expect_bound_hit "repeat";
  (* a budgeted lookup recomputes, and its earlier cut leaves the bound *)
  (match assess ~cutoff:c ~event_budget:(Stdlib.max 1 (events / 64)) () with
  | Backend.Cut_off { at = early; _ } ->
      Alcotest.(check bool) "the budget cut stops earlier" true (early < at)
  | _ -> Alcotest.fail "expected a budget cut");
  expect_bound_hit "after a budget cut";
  (* a cutoff the bound does not clear recomputes, and its later cut
     strengthens the bound *)
  let misses = Backend.memo_misses memo in
  (match assess ~cutoff:at () with
  | Backend.Cut_off { at = later; _ } ->
      Alcotest.(check bool) "a stronger bound" true (later > at);
      bound := later
  | _ -> Alcotest.fail "expected a cut-off at the bound");
  Alcotest.(check int) "a looser cutoff recomputes" (misses + 1) (Backend.memo_misses memo);
  (* an inner backend that raises leaves the bound in place *)
  fail := true;
  (match assess () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the inner failure");
  fail := false;
  expect_bound_hit "after a failure";
  Alcotest.(check (float 0.0)) "cut-off hits counted" 3.0
    (Sw_obs.Sink.counter sink "memo.cutoff_hits");
  Alcotest.(check (float 0.0)) "within the hits" (float_of_int (Backend.memo_hits memo))
    (Sw_obs.Sink.counter sink "memo.hits");
  (* the full verdict replaces the bound *)
  (match assess () with
  | Backend.Assessed verdict ->
      Alcotest.(check (float 0.0)) "full run" cycles verdict.Backend.cycles
  | _ -> Alcotest.fail "expected a verdict");
  (* a stored verdict past an unbudgeted cutoff answers a free cut-off,
     as a fresh run would; under an event budget it answers in full *)
  (match assess ~cutoff:c () with
  | Backend.Cut_off { at = at'; cost } ->
      Alcotest.(check (float 0.0)) "the verdict's cycles" cycles at';
      Alcotest.(check (float 0.0)) "a free cut-off" 0.0 cost.Backend.machine_us
  | _ -> Alcotest.fail "expected a cut-off from the stored verdict");
  Alcotest.(check (float 0.0)) "a verdict cut-off is a cut-off hit" 4.0
    (Sw_obs.Sink.counter sink "memo.cutoff_hits");
  match assess ~cutoff:c ~event_budget:(Stdlib.max 1 (events / 64)) () with
  | Backend.Assessed verdict ->
      Alcotest.(check (float 0.0)) "the verdict answers a budget" cycles verdict.Backend.cycles
  | _ -> Alcotest.fail "expected the stored verdict"

(* Four domains race over repeated calls: every call is a hit or a
   miss, every miss asks the simulator once, and every answer agrees
   with the bare simulator. *)
let test_memo_bounds_under_pool () =
  let inner, inner_calls = counting_simulator () in
  let memo = Backend.memoize inner in
  let b = Backend.memoized memo in
  let calls =
    List.concat
      (List.init 6 (fun r ->
           List.init (Array.length bound_variants) (fun vi ->
               bound_call (vi, Some (r mod 3), if r = 5 then Some 0 else None))))
  in
  let answers = Sw_util.Pool.map (pool 4) (run_bound_call b) calls in
  List.iter2
    (fun c r ->
      Alcotest.(check bool) "agrees with the simulator" true
        (bound_agrees c r (run_bound_call Backend.simulator c)))
    calls answers;
  Alcotest.(check int) "every call counted once" (List.length calls)
    (Backend.memo_hits memo + Backend.memo_misses memo);
  Alcotest.(check int) "one inner call per miss" (Backend.memo_misses memo)
    (Atomic.get inner_calls);
  Alcotest.(check bool) "some hits" true (Backend.memo_hits memo > 0)

(* ------------------------------------------------------------------ *)
(* Hybrid *)

let test_hybrid_no_gloads_equals_static () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let s = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
  let h = Result.get_ok (Backend.assess (Backend.hybrid ()) config kernel v) in
  Alcotest.(check (float 0.0)) "identical to the static model" s.Backend.cycles
    h.Backend.cycles;
  Alcotest.(check (float 0.0)) "never profiles" 0.0 h.Backend.cost.Backend.machine_us

let test_hybrid_profiles_once_per_kernel () =
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let v2 = { v with Sw_swacc.Kernel.unroll = v.Sw_swacc.Kernel.unroll + 1 } in
  let b = Backend.hybrid () in
  let first = Result.get_ok (Backend.assess b config kernel v) in
  let second = Result.get_ok (Backend.assess b config kernel v2) in
  Alcotest.(check bool) "first assessment pays the profile" true
    (first.Backend.cost.Backend.machine_us > 0.0);
  Alcotest.(check (float 0.0)) "later assessments are free" 0.0
    second.Backend.cost.Backend.machine_us

let test_hybrid_pool_deterministic () =
  (* same verdict cycles whatever the assessment order: compare a fresh
     sequential instance against a fresh pooled one *)
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let run pool_opt =
    let o =
      Sw_tuning.Tuner.tune_exn ~backend:(Backend.hybrid ()) ?pool:pool_opt config kernel ~points
    in
    (o.Sw_tuning.Tuner.best, o.Sw_tuning.Tuner.best_cycles, o.Sw_tuning.Tuner.evaluated)
  in
  let baseline = run None in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "hybrid search, %d domains" n)
        true
        (run (Some (pool n)) = baseline))
    [ 1; 4 ]

(* QCheck property: on the registry's kernels the hybrid estimate is
   bracketed by the static model and the simulator (with 5% slack for
   the calibration transfer); on gload-free kernels it equals the
   static model exactly. *)
let prop_hybrid_bracketed =
  let entries = Array.of_list Sw_workloads.Registry.all in
  QCheck.Test.make ~name:"hybrid bracketed by static model and simulator" ~count:25
    QCheck.(triple (int_range 0 (Array.length entries - 1)) (int_range 0 3) (int_range 1 4))
    (fun (ei, gi, unroll) ->
      let e = entries.(ei) in
      let kernel = e.Sw_workloads.Registry.build ~scale:0.25 in
      let grain = List.nth [ 8; 16; 32; 64 ] gi in
      let v = { Sw_swacc.Kernel.grain; unroll; active_cpes = 64; double_buffer = false } in
      match Backend.assess (Backend.hybrid ()) config kernel v with
      | Error _ -> QCheck.assume_fail () (* infeasible variant: vacuous *)
      | Ok h ->
          let s = Result.get_ok (Backend.assess Backend.static_model config kernel v) in
          let m = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
          let has_gloads = kernel.Sw_swacc.Kernel.gloads <> None in
          if not has_gloads then h.Backend.cycles = s.Backend.cycles
          else
            let lo = Stdlib.min s.Backend.cycles m.Backend.cycles
            and hi = Stdlib.max s.Backend.cycles m.Backend.cycles in
            h.Backend.cycles >= (lo *. 0.95) && h.Backend.cycles <= (hi *. 1.05))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_keys_and_aliases () =
  Alcotest.(check (list string)) "built-ins in order"
    [ "model"; "sim"; "hybrid"; "roofline" ]
    (Backend.registered ());
  List.iter
    (fun (alias, canonical) ->
      match Backend.find alias with
      | Some b -> Alcotest.(check string) alias canonical (Backend.name b)
      | None -> Alcotest.fail ("alias not found: " ^ alias))
    [
      ("static", "model");
      ("static-model", "model");
      ("empirical", "sim");
      ("simulator", "sim");
      ("MODEL", "model");
      ("Hybrid", "hybrid");
      ("roofline", "roofline");
    ];
  Alcotest.(check bool) "unknown key" true (Backend.find "magic" = None);
  match Backend.find_exn "magic" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists the known backends" true
        (String.length msg > String.length "magic")
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_registry_fresh_hybrid_instances () =
  (* two lookups must not share a calibration cache: each pays its own
     profile on first assessment *)
  let e = entry "bfs" in
  let kernel = kernel_of "bfs" 0.25 in
  let v = e.Sw_workloads.Registry.variant in
  let cost1 =
    (Result.get_ok (Backend.assess (Backend.find_exn "hybrid") config kernel v)).Backend.cost
  in
  let cost2 =
    (Result.get_ok (Backend.assess (Backend.find_exn "hybrid") config kernel v)).Backend.cost
  in
  Alcotest.(check bool) "both instances profile" true
    (cost1.Backend.machine_us > 0.0 && cost2.Backend.machine_us > 0.0)

let test_register_custom_backend () =
  let custom : Backend.t =
    (module struct
      let name = "oracle"

      let description = "test backend"

      let assess ?cutoff:_ ?event_budget:_ _ _ _ =
        Backend.Assessed { Backend.cycles = 42.0; cost = Backend.zero_cost; breakdown = None }
    end)
  in
  Backend.register "oracle" (fun () -> custom);
  (match Backend.find "oracle" with
  | Some b ->
      let kernel = kernel_of "kmeans" 0.25 in
      let v = (entry "kmeans").Sw_workloads.Registry.variant in
      Alcotest.(check (float 0.0)) "custom backend answers" 42.0
        (Backend.cycles_exn b config kernel v)
  | None -> Alcotest.fail "custom backend not registered");
  Alcotest.(check bool) "appears in the listing" true
    (List.mem "oracle" (Backend.registered ()))

let tests =
  ( "backend",
    [
      Alcotest.test_case "static model = Predict.run" `Quick test_static_model_matches_predict;
      Alcotest.test_case "simulator = Engine.run" `Quick test_simulator_matches_engine;
      Alcotest.test_case "simulator = Machine.cycles bit for bit" `Quick
        test_simulator_bitwise_machine_cycles;
      Alcotest.test_case "roofline = Roofline.analyze" `Quick test_roofline_matches_analyze;
      Alcotest.test_case "infeasible variant rejected" `Quick test_infeasible_variant_rejected;
      Alcotest.test_case "tuner = hand-rolled search" `Quick test_tuner_matches_hand_rolled_search;
      Alcotest.test_case "table2 rows pool-invariant" `Slow test_table2_rows_pool_invariant;
      Alcotest.test_case "fig6 rows pool-invariant" `Slow test_fig6_rows_pool_invariant;
      Alcotest.test_case "memo hit/miss accounting" `Quick test_memo_hit_miss_accounting;
      Alcotest.test_case "memo hashes distinct variants apart" `Quick test_memo_hash_distinct;
      Alcotest.test_case "memo caches infeasibility" `Quick test_memo_caches_infeasibility;
      Alcotest.test_case "memo composes with pool" `Quick test_memo_composes_with_pool;
      QCheck_alcotest.to_alcotest prop_memo_bounds_agree_with_simulator;
      QCheck_alcotest.to_alcotest prop_journal_bounds_agree_with_simulator;
      Alcotest.test_case "memo keeps cut-off bounds" `Quick test_memo_keeps_bounds;
      Alcotest.test_case "memo bounds exact under pool(4)" `Quick test_memo_bounds_under_pool;
      Alcotest.test_case "hybrid = static without gloads" `Quick test_hybrid_no_gloads_equals_static;
      Alcotest.test_case "hybrid profiles once" `Quick test_hybrid_profiles_once_per_kernel;
      Alcotest.test_case "hybrid pool-deterministic" `Quick test_hybrid_pool_deterministic;
      QCheck_alcotest.to_alcotest prop_hybrid_bracketed;
      Alcotest.test_case "registry keys and aliases" `Quick test_registry_keys_and_aliases;
      Alcotest.test_case "registry hybrids are fresh" `Quick test_registry_fresh_hybrid_instances;
      Alcotest.test_case "register custom backend" `Quick test_register_custom_backend;
    ] )
