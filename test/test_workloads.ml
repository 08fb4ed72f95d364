open Sw_workloads

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

(* Every registered kernel must build, lower with its default variant,
   produce valid programs, fit the SPM, and survive a (scaled-down)
   simulation with sensible metrics. *)
let check_entry scale (e : Registry.entry) () =
  let kernel = e.Registry.build ~scale in
  let lowered = Sw_swacc.Lower.lower_exn p kernel e.Registry.variant in
  Alcotest.(check bool) "fits SPM" true
    (lowered.Sw_swacc.Lowered.spm_bytes_per_cpe <= p.Sw_arch.Params.spm_bytes);
  Array.iter
    (fun prog ->
      match Sw_isa.Program.validate p prog with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid program: %s" m)
    lowered.Sw_swacc.Lowered.programs;
  let m = Sw_backend.Machine.metrics config lowered in
  Alcotest.(check bool) "positive makespan" true (m.Sw_sim.Metrics.cycles > 0.0);
  Alcotest.(check bool) "moved data" true (m.Sw_sim.Metrics.transactions > 0)

let build_tests =
  List.map
    (fun (e : Registry.entry) ->
      Alcotest.test_case ("end-to-end " ^ e.Registry.name) `Quick (check_entry 0.25 e))
    Registry.all

let test_registry_names_unique () =
  let names = Registry.names () in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicates" (List.length names) (List.length sorted)

let test_registry_lookup () =
  Alcotest.(check bool) "find kmeans" true (Registry.find "kmeans" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None);
  match Registry.find_exn "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_tuning_subset () =
  Alcotest.(check (list string)) "Table II kernels"
    [ "kmeans"; "cfd"; "lud"; "hotspot"; "backprop" ]
    (List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.tuning_subset)

let test_rodinia_count () =
  Alcotest.(check int) "13 Rodinia-style kernels" 13 (List.length Registry.rodinia)

let test_irregular_kernels_gload_dominated () =
  List.iter
    (fun name ->
      let e = Registry.find_exn name in
      let kernel = e.Registry.build ~scale:0.25 in
      let lowered = Sw_swacc.Lower.lower_exn p kernel e.Registry.variant in
      Alcotest.(check bool) (name ^ " issues gloads") true
        (lowered.Sw_swacc.Lowered.summary.Sw_swacc.Lowered.gload_count > 0))
    [ "bfs"; "b+tree"; "streamcluster"; "leukocyte" ]

let test_regular_kernels_no_gloads () =
  List.iter
    (fun name ->
      let e = Registry.find_exn name in
      let kernel = e.Registry.build ~scale:0.25 in
      let lowered = Sw_swacc.Lower.lower_exn p kernel e.Registry.variant in
      Alcotest.(check int) (name ^ " has no gloads") 0
        lowered.Sw_swacc.Lowered.summary.Sw_swacc.Lowered.gload_count)
    [ "vector-add"; "lud"; "hotspot"; "nbody"; "wrf-physics" ]

let test_bfs_imbalanced_degrees () =
  let seen = Hashtbl.create 8 in
  for node = 0 to 999 do
    Hashtbl.replace seen (Bfs.degree_of ~seed:0xBF5 node) ()
  done;
  Alcotest.(check bool) "degree spread" true (Hashtbl.length seen > 4)

let test_scale_changes_size () =
  let small = Kmeans.kernel ~scale:0.5 in
  let big = Kmeans.kernel ~scale:1.0 in
  Alcotest.(check int) "half the points" (big.Sw_swacc.Kernel.n_elements / 2)
    small.Sw_swacc.Kernel.n_elements

(* The accepted scales are the ones every kernel is priced at without
   overflow: at the largest one each kernel is larger than at scale 1,
   its arrays sit at distinct non-negative addresses, and the model
   prices a regular kernel's default variant slower than at scale 1. *)
let test_check_scale () =
  let max_scale = 65536.0 in
  let accepted s = Result.is_ok (Registry.check_scale s) in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "rejects %g" s) false (accepted s))
    [ 0.0; -0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity; 1e308; 2.0 *. max_scale ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "accepts %g" s) true (accepted s))
    [ 1e-3; 1.0; max_scale ];
  List.iter
    (fun (e : Registry.entry) ->
      let build scale = e.Registry.build ~scale in
      let small = build 1.0 and big = build max_scale in
      Alcotest.(check bool) (e.Registry.name ^ ": grows") true
        (big.Sw_swacc.Kernel.n_elements > small.Sw_swacc.Kernel.n_elements);
      let addrs = List.map (fun c -> c.Sw_swacc.Kernel.base_addr) big.Sw_swacc.Kernel.copies in
      Alcotest.(check bool) (e.Registry.name ^ ": distinct non-negative addresses") true
        (List.length (List.sort_uniq compare addrs) = List.length addrs
        && List.for_all (fun a -> a >= 0) addrs);
      let cycles kernel =
        match Sw_swacc.Lower.summarize p kernel e.Registry.variant with
        | Ok s -> (Swpm.Predict.run p s).Swpm.Predict.t_total
        | Error msg -> Alcotest.failf "%s: %s" e.Registry.name msg
      in
      (* irregular kernels summarize their Gloads per element: seconds
         at this scale, so only the regular ones are priced here *)
      if e.Registry.kind = Registry.Regular then begin
        let c_big = cycles big in
        Alcotest.(check bool) (e.Registry.name ^ ": priced slower") true
          (Float.is_finite c_big && c_big > cycles small)
      end)
    Registry.all

let test_builds_deterministic () =
  let a = Bfs.kernel ~scale:0.5 and b = Bfs.kernel ~scale:0.5 in
  (* gload traces must match exactly across builds *)
  match (a.Sw_swacc.Kernel.gloads, b.Sw_swacc.Kernel.gloads) with
  | Some ga, Some gb ->
      for e = 0 to 199 do
        Alcotest.(check int) "same degree" (ga.Sw_swacc.Kernel.count_for e) (gb.Sw_swacc.Kernel.count_for e);
        for j = 0 to ga.Sw_swacc.Kernel.count_for e - 1 do
          Alcotest.(check int) "same address" (ga.Sw_swacc.Kernel.addr_for e j)
            (gb.Sw_swacc.Kernel.addr_for e j)
        done
      done
  | _ -> Alcotest.fail "bfs should have gloads"

let test_wrf_dynamics_slice_waste () =
  (* the Fig 9 mechanism: slices shrink below the transaction size as
     active CPEs grow *)
  Alcotest.(check int) "48 CPEs: 512B slices" 512 (Wrf_dynamics.slice_bytes ~active:48);
  Alcotest.(check int) "256 CPEs: 96B slices" 96 (Wrf_dynamics.slice_bytes ~active:256);
  Alcotest.(check bool) "96B wastes most of a transaction" true
    (Wrf_dynamics.slice_bytes ~active:256 < p.Sw_arch.Params.trans_size)

let test_wrf_dynamics_rejects_nondivisor () =
  match Wrf_dynamics.slice_bytes ~active:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "7 does not divide the row"

let test_default_variants_feasible () =
  List.iter
    (fun (e : Registry.entry) ->
      let kernel = e.Registry.build ~scale:1.0 in
      Alcotest.(check bool) (e.Registry.name ^ " default variant fits") true
        (Sw_swacc.Lower.spm_required kernel e.Registry.variant <= p.Sw_arch.Params.spm_bytes))
    Registry.all

let test_search_spaces_nonempty () =
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool) (e.Registry.name ^ " grains") true (e.Registry.grains <> []);
      Alcotest.(check bool) (e.Registry.name ^ " unrolls") true (e.Registry.unrolls <> []))
    Registry.all

let tests =
  ( "workloads",
    build_tests
    @ [
        Alcotest.test_case "registry names unique" `Quick test_registry_names_unique;
        Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
        Alcotest.test_case "tuning subset" `Quick test_tuning_subset;
        Alcotest.test_case "13 rodinia kernels" `Quick test_rodinia_count;
        Alcotest.test_case "irregular kernels use gloads" `Quick test_irregular_kernels_gload_dominated;
        Alcotest.test_case "regular kernels avoid gloads" `Quick test_regular_kernels_no_gloads;
        Alcotest.test_case "bfs degrees imbalanced" `Quick test_bfs_imbalanced_degrees;
        Alcotest.test_case "scale changes size" `Quick test_scale_changes_size;
        Alcotest.test_case "accepted scales price without overflow" `Quick test_check_scale;
        Alcotest.test_case "builds deterministic" `Quick test_builds_deterministic;
        Alcotest.test_case "wrf dynamics slice waste" `Quick test_wrf_dynamics_slice_waste;
        Alcotest.test_case "wrf dynamics rejects non-divisor" `Quick test_wrf_dynamics_rejects_nondivisor;
        Alcotest.test_case "default variants feasible" `Quick test_default_variants_feasible;
        Alcotest.test_case "search spaces non-empty" `Quick test_search_spaces_nonempty;
      ] )
