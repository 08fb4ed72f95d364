open Sw_tuning

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let test_enumerate_size () =
  let pts = Space.enumerate ~grains:[ 1; 2; 4 ] ~unrolls:[ 1; 2 ] () in
  Alcotest.(check int) "3x2 points" 6 (List.length pts);
  Alcotest.(check int) "size helper" 6 (Space.size ~grains:[ 1; 2; 4 ] ~unrolls:[ 1; 2 ] ())

let test_enumerate_db () =
  let pts = Space.enumerate ~grains:[ 1 ] ~unrolls:[ 1 ] ~double_buffers:[ false; true ] () in
  Alcotest.(check int) "db doubles the space" 2 (List.length pts)

let test_enumerate_deterministic () =
  let a = Space.enumerate ~grains:[ 2; 1 ] ~unrolls:[ 1; 4 ] () in
  let b = Space.enumerate ~grains:[ 2; 1 ] ~unrolls:[ 1; 4 ] () in
  Alcotest.(check bool) "same order" true (a = b)

(* The argmin's tie-break is the earliest point in this order, so fold
   and the list must both be grain-major, then unroll, then db. *)
let test_enumerate_grain_major () =
  let axes = { Space.grains = [ 2; 1 ]; unrolls = [ 1; 4 ]; double_buffers = [ false; true ] } in
  let key (p : Space.point) = (p.Space.grain, p.Space.unroll, p.Space.double_buffer) in
  let expected =
    [
      (2, 1, false); (2, 1, true); (2, 4, false); (2, 4, true);
      (1, 1, false); (1, 1, true); (1, 4, false); (1, 4, true);
    ]
  in
  Alcotest.(check (list (triple int int bool)))
    "list" expected
    (List.map key (Space.enumerate ~grains:axes.grains ~unrolls:axes.unrolls
       ~double_buffers:axes.double_buffers ()));
  Alcotest.(check (list (triple int int bool)))
    "fold" expected
    (List.rev (Space.fold axes (fun acc p -> key p :: acc) []))

let test_to_variant () =
  let v = Space.to_variant { Space.grain = 8; unroll = 2; double_buffer = true } ~active_cpes:32 in
  Alcotest.(check int) "grain" 8 v.Sw_swacc.Kernel.grain;
  Alcotest.(check int) "unroll" 2 v.Sw_swacc.Kernel.unroll;
  Alcotest.(check int) "active" 32 v.Sw_swacc.Kernel.active_cpes;
  Alcotest.(check bool) "db" true v.Sw_swacc.Kernel.double_buffer

let test_feasible_filters_spm () =
  let kernel = Sw_workloads.Lud.kernel ~scale:1.0 in
  (* lud rows are 2KB each plus a 2KB pivot: grain 64 would need 128KB *)
  let pts = Space.enumerate ~grains:[ 1; 2; 64 ] ~unrolls:[ 1 ] () in
  let ok = Space.feasible p kernel ~active_cpes:64 pts in
  Alcotest.(check int) "oversized grain dropped" 2 (List.length ok)

let points entry =
  Space.enumerate ~grains:entry.Sw_workloads.Registry.grains
    ~unrolls:entry.Sw_workloads.Registry.unrolls ()

let test_both_tuners_agree_on_kmeans () =
  let entry = Sw_workloads.Registry.find_exn "kmeans" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.25 in
  let pts = points entry in
  let static = Tuner.tune_exn ~backend:Sw_backend.Backend.static_model config kernel ~points:pts in
  let empirical = Tuner.tune_exn ~backend:Sw_backend.Backend.simulator config kernel ~points:pts in
  Alcotest.(check bool) "quality loss under 6% (paper bound)" true
    (Tuner.quality_loss ~static ~empirical < 0.06);
  Alcotest.(check bool) "static found a real improvement" true
    (static.Tuner.speedup > 1.2)

let test_static_never_simulates () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let o = Tuner.tune_exn ~backend:Sw_backend.Backend.static_model config kernel ~points:(points entry) in
  Alcotest.(check (float 1e-9)) "no machine time" 0.0 o.Tuner.machine_time_us

let test_empirical_accumulates_machine_time () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let o = Tuner.tune_exn ~backend:Sw_backend.Backend.simulator config kernel ~points:(points entry) in
  Alcotest.(check bool) "profiling runs cost machine time" true (o.Tuner.machine_time_us > 0.0);
  Alcotest.(check int) "all feasible points evaluated" (List.length (points entry))
    (o.Tuner.evaluated + o.Tuner.infeasible)

let test_infeasible_counted () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:1.0 in
  let pts = Space.enumerate ~grains:[ 1; 512 ] ~unrolls:[ 1 ] () in
  let o = Tuner.tune_exn ~backend:Sw_backend.Backend.static_model config kernel ~points:pts in
  Alcotest.(check int) "oversized variant rejected at compile time" 1 o.Tuner.infeasible;
  Alcotest.(check int) "one evaluated" 1 o.Tuner.evaluated

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_no_feasible_point_typed_error () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:1.0 in
  let pts = Space.enumerate ~grains:[ 4096 ] ~unrolls:[ 1 ] () in
  (match Tuner.tune ~backend:Sw_backend.Backend.static_model config kernel ~points:pts with
  | Error (`No_feasible_point msg) ->
      Alcotest.(check bool) "message names the backend" true
        (contains msg "model")
  | Ok _ -> Alcotest.fail "expected `No_feasible_point");
  match Tuner.tune_exn ~backend:Sw_backend.Backend.static_model config kernel ~points:pts with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tune_exn: expected Invalid_argument"

let test_best_beats_default () =
  let entry = Sw_workloads.Registry.find_exn "backprop" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.125 in
  let o = Tuner.tune_exn ~backend:Sw_backend.Backend.simulator config kernel ~points:(points entry) in
  Alcotest.(check bool) "tuned variant at least as fast as default" true
    (o.Tuner.best_cycles <= o.Tuner.default_cycles +. 1.0)

let test_pp_outcome () =
  let entry = Sw_workloads.Registry.find_exn "lud" in
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.5 in
  let o = Tuner.tune_exn ~backend:Sw_backend.Backend.static_model config kernel ~points:(points entry) in
  Alcotest.(check bool) "pp" true (String.length (Format.asprintf "%a" Tuner.pp_outcome o) > 40)

let tests =
  ( "tuning",
    [
      Alcotest.test_case "enumerate size" `Quick test_enumerate_size;
      Alcotest.test_case "enumerate with db" `Quick test_enumerate_db;
      Alcotest.test_case "enumerate deterministic" `Quick test_enumerate_deterministic;
      Alcotest.test_case "to_variant" `Quick test_to_variant;
      Alcotest.test_case "feasible filters SPM" `Quick test_feasible_filters_spm;
      Alcotest.test_case "tuners agree on kmeans" `Slow test_both_tuners_agree_on_kmeans;
      Alcotest.test_case "static never simulates" `Quick test_static_never_simulates;
      Alcotest.test_case "empirical pays machine time" `Quick test_empirical_accumulates_machine_time;
      Alcotest.test_case "infeasible counted" `Quick test_infeasible_counted;
      Alcotest.test_case "no feasible point typed error" `Quick test_no_feasible_point_typed_error;
      Alcotest.test_case "best beats default" `Quick test_best_beats_default;
      Alcotest.test_case "pp outcome" `Quick test_pp_outcome;
      Alcotest.test_case "enumeration is grain-major" `Quick test_enumerate_grain_major;
    ] )
