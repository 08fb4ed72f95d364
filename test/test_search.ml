(* Search strategies: pruning must never change the answer.

   The identity properties pin the degenerate strategies to exhaustive
   (shortlist keeping the whole space, successive halving with one
   rung), at several pool sizes; the cutoff unit tests pin the engine's
   early-exit semantics (a cutoff above the true makespan is invisible,
   a cutoff below yields a typed Cutoff and never a wrong metric); the
   Table II test is the paper-level claim — the static model ranks the
   true argmin into the top quarter on every tuning kernel. *)

open Sw_tuning

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let points entry =
  Space.enumerate ~grains:entry.Sw_workloads.Registry.grains
    ~unrolls:entry.Sw_workloads.Registry.unrolls ()

let subset_entries = Array.of_list Sw_workloads.Registry.tuning_subset

(* one explicit default so strategies that prune the first point still
   compare speedups from the same baseline *)
let default_of entry kernel =
  Sw_experiments.Table2.guideline_default p kernel ~grains:entry.Sw_workloads.Registry.grains

let tune ?pool ~strategy entry kernel pts =
  Tuner.tune_exn ~backend:Sw_backend.Backend.simulator ~strategy
    ~default:(default_of entry kernel) ?pool config kernel ~points:pts

let same_answer a b =
  a.Tuner.best = b.Tuner.best
  && a.Tuner.best_cycles = b.Tuner.best_cycles
  && a.Tuner.default_cycles = b.Tuner.default_cycles
  && a.Tuner.speedup = b.Tuner.speedup

(* ------------------------------------------------------------------ *)
(* Identity properties *)

let with_pool size f =
  match size with 0 -> f None | n -> f (Some (Sw_util.Pool.create ~size:n ()))

(* entry index x scale choice x pool size: degenerate strategies return
   the exhaustive answer *)
let prop_degenerate_strategies_identical =
  QCheck.Test.make ~name:"shortlist k=|space| and halving rungs=1 match exhaustive" ~count:12
    QCheck.(
      triple
        (int_range 0 (Array.length subset_entries - 1))
        (int_range 0 1) (int_range 0 2))
    (fun (ei, si, pool_size) ->
      let entry = subset_entries.(ei) in
      let scale = if si = 0 then 0.1 else 0.25 in
      let kernel = entry.Sw_workloads.Registry.build ~scale in
      let pts = points entry in
      with_pool pool_size (fun pool ->
          let exhaustive = tune ?pool ~strategy:Search.exhaustive entry kernel pts in
          let full_shortlist =
            tune ?pool ~strategy:(Search.shortlist ~k:(List.length pts) ()) entry kernel pts
          in
          let one_rung =
            tune ?pool ~strategy:(Search.successive_halving ~rungs:1) entry kernel pts
          in
          same_answer exhaustive full_shortlist
          && same_answer exhaustive one_rung
          (* one rung is the exhaustive code path exactly *)
          && exhaustive.Tuner.evaluated = one_rung.Tuner.evaluated
          && exhaustive.Tuner.infeasible = one_rung.Tuner.infeasible
          && one_rung.Tuner.points_pruned = 0))

let prop_strategies_pool_deterministic =
  QCheck.Test.make ~name:"pruned strategies identical at any pool size" ~count:8
    QCheck.(pair (int_range 0 (Array.length subset_entries - 1)) (int_range 1 4))
    (fun (ei, pool_size) ->
      let entry = subset_entries.(ei) in
      let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
      let pts = points entry in
      let k = Stdlib.max 1 (List.length pts / 4) in
      let check strategy =
        let seq = tune ~strategy entry kernel pts in
        with_pool pool_size (fun pool ->
            let par = tune ?pool ~strategy entry kernel pts in
            same_answer seq par
            && seq.Tuner.evaluated = par.Tuner.evaluated
            && seq.Tuner.points_pruned = par.Tuner.points_pruned)
      in
      check (Search.shortlist ~k ())
      && check (Search.successive_halving ~rungs:3)
      && check (Search.robust ~k ~seeds:[ 1; 2; 3; 4 ] ()))

(* ------------------------------------------------------------------ *)
(* Engine cutoff semantics *)

let lowered_kmeans =
  lazy
    (let entry = Sw_workloads.Registry.find_exn "kmeans" in
     let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
     Sw_swacc.Lower.lower_exn p kernel entry.Sw_workloads.Registry.variant)

let test_cutoff_above_is_invisible () =
  let lowered = Lazy.force lowered_kmeans in
  let programs = lowered.Sw_swacc.Lowered.programs in
  let full = Sw_sim.Engine.run config programs in
  match
    Sw_sim.Engine.run_budget ~cutoff:(full.Sw_sim.Metrics.cycles +. 1.0) config programs
  with
  | Sw_sim.Engine.Finished m ->
      Alcotest.(check (float 0.0)) "same makespan" full.Sw_sim.Metrics.cycles
        m.Sw_sim.Metrics.cycles;
      Alcotest.(check int) "same transactions" full.Sw_sim.Metrics.transactions
        m.Sw_sim.Metrics.transactions;
      Alcotest.(check int) "same dma requests" full.Sw_sim.Metrics.dma_requests
        m.Sw_sim.Metrics.dma_requests
  | Sw_sim.Engine.Cutoff { at; _ } -> Alcotest.failf "cut off at %g despite slack cutoff" at

let test_cutoff_at_makespan_completes () =
  (* strict semantics: a run that exactly ties the cutoff finishes, so
     an incumbent never loses its earliest-index tie-break *)
  let lowered = Lazy.force lowered_kmeans in
  let programs = lowered.Sw_swacc.Lowered.programs in
  let full = Sw_sim.Engine.run config programs in
  match Sw_sim.Engine.run_budget ~cutoff:full.Sw_sim.Metrics.cycles config programs with
  | Sw_sim.Engine.Finished m ->
      Alcotest.(check (float 0.0)) "same makespan" full.Sw_sim.Metrics.cycles
        m.Sw_sim.Metrics.cycles
  | Sw_sim.Engine.Cutoff { at; _ } -> Alcotest.failf "cut off at %g on a tying cutoff" at

let test_cutoff_below_yields_cutoff () =
  let lowered = Lazy.force lowered_kmeans in
  let programs = lowered.Sw_swacc.Lowered.programs in
  let full = Sw_sim.Engine.run config programs in
  let cutoff = full.Sw_sim.Metrics.cycles /. 2.0 in
  match Sw_sim.Engine.run_budget ~cutoff config programs with
  | Sw_sim.Engine.Finished _ -> Alcotest.fail "finished under a cutoff below the true makespan"
  | Sw_sim.Engine.Cutoff { at; events } ->
      Alcotest.(check bool) "abandoned past the cutoff" true (at > cutoff);
      Alcotest.(check bool) "before the true makespan" true
        (at <= full.Sw_sim.Metrics.cycles);
      Alcotest.(check bool) "made progress" true (events > 0)

let test_event_budget_yields_cutoff () =
  let lowered = Lazy.force lowered_kmeans in
  let programs = lowered.Sw_swacc.Lowered.programs in
  match Sw_sim.Engine.run_budget ~event_budget:10 config programs with
  | Sw_sim.Engine.Finished _ -> Alcotest.fail "a 10-event budget cannot finish kmeans"
  | Sw_sim.Engine.Cutoff { events; _ } ->
      Alcotest.(check int) "stopped at the budget" 10 events

let test_backend_cutoff_never_wrong_metric () =
  (* through the backend: Assessed when the cutoff is slack, Cut_off
     (never a fabricated verdict) when it is tight *)
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
  let variant = entry.Sw_workloads.Registry.variant in
  let backend = Sw_backend.Backend.simulator in
  let truth =
    match Sw_backend.Backend.assess backend config kernel variant with
    | Ok v -> v.Sw_backend.Backend.cycles
    | Error _ -> Alcotest.fail "kmeans default variant must be feasible"
  in
  (match Sw_backend.Backend.assess_budget ~cutoff:(truth +. 1.0) backend config kernel variant with
  | Sw_backend.Backend.Assessed v ->
      Alcotest.(check (float 0.0)) "slack cutoff, same cycles" truth v.Sw_backend.Backend.cycles
  | _ -> Alcotest.fail "slack cutoff must assess in full");
  match Sw_backend.Backend.assess_budget ~cutoff:(truth /. 2.0) backend config kernel variant with
  | Sw_backend.Backend.Cut_off { at; cost } ->
      Alcotest.(check bool) "cut past the cutoff" true (at > truth /. 2.0);
      Alcotest.(check bool) "sunk machine time billed" true
        (cost.Sw_backend.Backend.machine_us > 0.0)
  | Sw_backend.Backend.Assessed _ -> Alcotest.fail "tight cutoff must cut off"
  | Sw_backend.Backend.Infeasible _ -> Alcotest.fail "feasible variant rejected"

(* ------------------------------------------------------------------ *)
(* The paper-level claim: model-ranked top-quarter shortlist returns
   the exhaustive argmin on every Table II tuning kernel *)

let test_shortlist_same_best_on_table2 () =
  List.iter
    (fun (entry : Sw_workloads.Registry.entry) ->
      let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
      let pts = points entry in
      let k = Stdlib.max 1 (List.length pts / 4) in
      let exhaustive = tune ~strategy:Search.exhaustive entry kernel pts in
      let shortlist = tune ~strategy:(Search.shortlist ~k ()) entry kernel pts in
      Alcotest.(check bool)
        (Printf.sprintf "%s: top-quarter shortlist finds the argmin" entry.name)
        true
        (same_answer exhaustive shortlist);
      Alcotest.(check bool)
        (Printf.sprintf "%s: shortlist pruned something" entry.name)
        true
        (shortlist.Tuner.points_pruned > 0))
    Sw_workloads.Registry.tuning_subset

let test_shortlist_cheaper_machine_time () =
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
  let pts = points entry in
  let k = Stdlib.max 1 (List.length pts / 4) in
  let exhaustive = tune ~strategy:Search.exhaustive entry kernel pts in
  let shortlist = tune ~strategy:(Search.shortlist ~k ()) entry kernel pts in
  Alcotest.(check bool) "at least 3x less simulated time" true
    (shortlist.Tuner.machine_time_us *. 3.0 <= exhaustive.Tuner.machine_time_us)

(* ------------------------------------------------------------------ *)
(* Lowering cache *)

let test_lower_cache_hits () =
  Sw_swacc.Lower.clear_cache ();
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let variant = entry.Sw_workloads.Registry.variant in
  let a = Sw_swacc.Lower.lower_cached_exn p kernel variant in
  let h0, m0 = Sw_swacc.Lower.cache_stats () in
  let b = Sw_swacc.Lower.lower_cached_exn p kernel variant in
  let h1, _ = Sw_swacc.Lower.cache_stats () in
  Alcotest.(check bool) "second lowering hits" true (h1 > h0);
  Alcotest.(check bool) "a miss was recorded first" true (m0 > 0);
  Alcotest.(check bool) "cached result is the same value" true (a == b)

let test_lower_cache_physical_identity () =
  (* coalescing rewrites the kernel but keeps its name: the cache must
     key on physical identity, not the name, or it would serve the
     uncoalesced programs for the coalesced kernel *)
  Sw_swacc.Lower.clear_cache ();
  let entry = Sw_workloads.Registry.find_exn "bfs" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
  let variant = entry.Sw_workloads.Registry.variant in
  let plain = Sw_swacc.Lower.lower_cached_exn p kernel variant in
  let coalesced_kernel = Sw_swacc.Kernel.coalesce_gloads kernel ~factor:4 in
  let coalesced = Sw_swacc.Lower.lower_cached_exn p coalesced_kernel variant in
  Alcotest.(check bool) "coalesced lowering is not the cached plain one" true
    (not (plain == coalesced))

(* ------------------------------------------------------------------ *)
(* Ranker /= verifier cost accounting: the ranking pass is billed to
   the outcome even when the verifying backend is machine-free, and an
   adaptive search is exhaustive when its first rung is the whole
   space *)

let test_rank_backend_billed_separately () =
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
  let pts = points entry in
  let tune_model strategy =
    Tuner.tune_exn ~backend:Sw_backend.Backend.static_model ~strategy
      ~default:(default_of entry kernel) config kernel ~points:pts
  in
  let ranked =
    tune_model (Search.shortlist ~rank:Sw_backend.Backend.simulator ~k:4 ())
  in
  (* the simulator ranked, so machine time was spent — all of it in the
     ranking pass, because the static model verifies for free *)
  Alcotest.(check bool) "rank pass billed" true (ranked.Tuner.rank_machine_us > 0.0);
  Alcotest.(check (float 0.0)) "all machine time is the rank pass"
    ranked.Tuner.rank_machine_us ranked.Tuner.machine_time_us;
  Alcotest.(check bool) "rank host time recorded" true (ranked.Tuner.rank_host_s >= 0.0);
  (* a free ranker on the same verifier bills no machine time at all *)
  let free = tune_model (Search.shortlist ~k:4 ()) in
  Alcotest.(check (float 0.0)) "static-ranked static verify is machine-free" 0.0
    free.Tuner.machine_time_us;
  (* sim-ranked model-verified finds the same best as exhaustive model:
     kmeans's simulator ranking places the model argmin in the top 4 *)
  let exhaustive = tune_model Search.exhaustive in
  Alcotest.(check bool) "same argmin" true (ranked.Tuner.best = exhaustive.Tuner.best)

let prop_adaptive_whole_space_is_exhaustive =
  QCheck.Test.make ~name:"adaptive k=|space| matches exhaustive" ~count:8
    QCheck.(pair (int_range 0 (Array.length subset_entries - 1)) (int_range 0 2))
    (fun (ei, pool_size) ->
      let entry = subset_entries.(ei) in
      let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
      let pts = points entry in
      with_pool pool_size (fun pool ->
          let exhaustive = tune ?pool ~strategy:Search.exhaustive entry kernel pts in
          let adaptive =
            tune ?pool
              ~strategy:(Search.adaptive_shortlist ~k:(List.length pts) ())
              entry kernel pts
          in
          same_answer exhaustive adaptive))

let prop_adaptive_pool_deterministic =
  QCheck.Test.make ~name:"adaptive identical at any pool size" ~count:8
    QCheck.(pair (int_range 0 (Array.length subset_entries - 1)) (int_range 1 4))
    (fun (ei, pool_size) ->
      let entry = subset_entries.(ei) in
      let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
      let pts = points entry in
      let sequential =
        tune ~strategy:(Search.adaptive_shortlist ~k:3 ()) entry kernel pts
      in
      with_pool pool_size (fun pool ->
          let pooled =
            tune ?pool ~strategy:(Search.adaptive_shortlist ~k:3 ()) entry kernel pts
          in
          same_answer sequential pooled
          && sequential.Tuner.points_pruned = pooled.Tuner.points_pruned
          && sequential.Tuner.evaluated = pooled.Tuner.evaluated))

let test_adaptive_same_best_on_table2 () =
  (* the adaptive search with the default static ranker reproduces the
     exhaustive argmin on every tuning kernel, like the fixed-K
     shortlist, without K having to be chosen per kernel *)
  List.iter
    (fun (entry : Sw_workloads.Registry.entry) ->
      let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
      let pts = points entry in
      let exhaustive = tune ~strategy:Search.exhaustive entry kernel pts in
      let adaptive =
        tune ~strategy:(Search.adaptive_shortlist ~k:6 ()) entry kernel pts
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: adaptive finds the argmin" entry.name)
        true
        (same_answer exhaustive adaptive))
    Sw_workloads.Registry.tuning_subset

(* A remote cutoff is a bar too: a shard whose every verification the
   global incumbent cuts off has nothing left to prove after one quiet
   rung, even though it never seeds a local incumbent. *)
let test_adaptive_stops_under_remote_cutoff () =
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.1 in
  let pts = points entry in
  let sink = Sw_obs.Sink.create () in
  let link = { Search.publish = ignore; current = (fun () -> Some 1.0) } in
  let results, _ =
    Search.run (Search.adaptive_shortlist ~k:1 ()) ~backend:Sw_backend.Backend.simulator
      ~active_cpes:64 ~obs:sink ~link config kernel ~points:pts
  in
  Alcotest.(check (float 0.)) "one rung" 1.0 (Sw_obs.Sink.counter sink "search.rungs");
  Alcotest.(check int) "nothing priced" 0
    (List.length (List.filter (function _, Search.Priced _ -> true | _ -> false) results))

let tests =
  ( "search",
    [
      QCheck_alcotest.to_alcotest prop_degenerate_strategies_identical;
      QCheck_alcotest.to_alcotest prop_strategies_pool_deterministic;
      Alcotest.test_case "cutoff above the makespan is invisible" `Quick
        test_cutoff_above_is_invisible;
      Alcotest.test_case "cutoff at the makespan completes (strict)" `Quick
        test_cutoff_at_makespan_completes;
      Alcotest.test_case "cutoff below the makespan yields Cutoff" `Quick
        test_cutoff_below_yields_cutoff;
      Alcotest.test_case "event budget yields Cutoff" `Quick test_event_budget_yields_cutoff;
      Alcotest.test_case "backend cutoff never fabricates a verdict" `Quick
        test_backend_cutoff_never_wrong_metric;
      Alcotest.test_case "table2: shortlist argmin matches exhaustive" `Quick
        test_shortlist_same_best_on_table2;
      Alcotest.test_case "shortlist cuts kmeans machine time 3x" `Quick
        test_shortlist_cheaper_machine_time;
      Alcotest.test_case "ranking pass billed when ranker /= verifier" `Quick
        test_rank_backend_billed_separately;
      QCheck_alcotest.to_alcotest prop_adaptive_whole_space_is_exhaustive;
      QCheck_alcotest.to_alcotest prop_adaptive_pool_deterministic;
      Alcotest.test_case "adaptive stops after one rung under a remote cutoff" `Quick
        test_adaptive_stops_under_remote_cutoff;
      Alcotest.test_case "table2: adaptive argmin matches exhaustive" `Quick
        test_adaptive_same_best_on_table2;
      Alcotest.test_case "lowering cache hits on repeat" `Quick test_lower_cache_hits;
      Alcotest.test_case "lowering cache keys on physical kernel" `Quick
        test_lower_cache_physical_identity;
    ] )
