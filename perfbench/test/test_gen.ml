(* The benchmark's input generators: deterministic in the seed, stable
   class proportions across seeds, and every request well-formed and
   feasible. *)

module Gen = Perfbench.Gen
module H = Sw_serve.Handler
module B = Sw_backend.Backend

let job_lines jobs = String.concat "\n" (List.map (fun (j : Gen.job) -> j.Gen.line) jobs)
let mix ~seed = Gen.serve_mix ~seed ~per_lane:100
let mix_text ~seed = String.concat "\n" (mix ~seed)

let same_seed () =
  List.iter
    (fun seed ->
      Alcotest.(check string) "tune-shard" (job_lines (Gen.tune_shard_jobs ~seed))
        (job_lines (Gen.tune_shard_jobs ~seed));
      Alcotest.(check string) "serve-mix" (mix_text ~seed) (mix_text ~seed);
      Alcotest.(check (list string)) "warm-up" (Gen.serve_warmup ~seed) (Gen.serve_warmup ~seed))
    [ 0; 1; 42 ]

let sorted_names jobs = List.sort compare (List.map (fun (j : Gen.job) -> j.Gen.name) jobs)

let class_counts lines =
  List.map
    (fun c -> (c, List.length (List.filter (fun l -> Gen.class_of_line l = c) lines)))
    Gen.classes

let other_seed () =
  Alcotest.(check bool) "tune-shard lists differ" true
    (job_lines (Gen.tune_shard_jobs ~seed:1) <> job_lines (Gen.tune_shard_jobs ~seed:2));
  Alcotest.(check bool) "serve lists differ" true (mix_text ~seed:1 <> mix_text ~seed:2);
  Alcotest.(check (list string)) "same tune-shard jobs"
    (sorted_names (Gen.tune_shard_jobs ~seed:1))
    (sorted_names (Gen.tune_shard_jobs ~seed:2));
  Alcotest.(check (list (pair string int))) "class proportions"
    (class_counts (mix ~seed:1))
    (class_counts (mix ~seed:2))

let variant_of (p : H.predict_req) =
  let e = Sw_workloads.Registry.find_exn p.H.p_kernel in
  let base = e.Sw_workloads.Registry.variant in
  ( e.Sw_workloads.Registry.build ~scale:p.H.p_scale,
    {
      base with
      Sw_swacc.Kernel.grain = Option.value p.H.p_grain ~default:base.Sw_swacc.Kernel.grain;
      unroll = Option.value p.H.p_unroll ~default:base.Sw_swacc.Kernel.unroll;
      double_buffer = p.H.p_db;
    } )

let feasible line =
  match H.parse_request line with
  | Error e -> Alcotest.failf "%s does not parse: %s" line e
  | Ok { H.verb = H.Predict p; _ } -> (
      let config = Result.get_ok (H.predict_config p) in
      let kernel, v = variant_of p in
      match B.assess B.static_model config kernel v with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: model rejects it: %s" line e.B.reason)
  | Ok { H.verb = H.Timeline l; _ } ->
      let p = { (H.predict_defaults ~kernel:l.H.l_kernel) with
                H.p_grain = l.H.l_grain; p_unroll = l.H.l_unroll; p_db = l.H.l_db } in
      let kernel, v = variant_of p in
      let config = Result.get_ok (H.timeline_config l) in
      if Result.is_error (B.assess B.static_model config kernel v) then
        Alcotest.failf "%s: infeasible timeline" line
  | Ok { H.verb = H.Tune t; _ } ->
      let e = Sw_workloads.Registry.find_exn t.H.t_kernel in
      let points = Result.get_ok (H.tune_points t e) in
      let config = Result.get_ok (H.tune_config t) in
      let kernel = e.Sw_workloads.Registry.build ~scale:t.H.t_scale in
      if
        not
          (List.exists
             (fun p ->
               Result.is_ok
                 (B.assess B.static_model config kernel
                    (Sw_tuning.Space.to_variant p ~active_cpes:64)))
             points)
      then Alcotest.failf "%s: no feasible point" line
  | Ok _ -> Alcotest.failf "%s: unexpected op" line

let all_feasible () =
  List.iter feasible (mix ~seed:7);
  List.iter feasible (Gen.serve_warmup ~seed:7);
  List.iter
    (fun (j : Gen.job) -> ignore (H.parse_request j.Gen.line |> Result.get_ok))
    (Gen.tune_shard_jobs ~seed:7)

let warmup_outside_mix () =
  let key line =
    match H.parse_request line with
    | Ok { H.verb = H.Predict p; _ } -> Some (p.H.p_kernel, p.H.p_grain, p.H.p_unroll, p.H.p_db)
    | _ -> None
  in
  let warm = List.filter_map key (Gen.serve_warmup ~seed:3) in
  List.iter
    (fun l ->
      match key l with
      | Some k when List.mem k warm -> Alcotest.failf "%s reuses a warm-up key" l
      | _ -> ())
    (mix ~seed:3)

let () =
  Alcotest.run "perfbench-gen"
    [
      ( "generators",
        [
          Alcotest.test_case "same seed, same lists" `Quick same_seed;
          Alcotest.test_case "other seed, same proportions" `Quick other_seed;
          Alcotest.test_case "requests parse and are feasible" `Quick all_feasible;
          Alcotest.test_case "warm-up keys stay outside the mix" `Quick warmup_outside_mix;
        ] );
    ]
