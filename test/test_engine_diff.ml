(* Differential tests: {!Engine} (calendar queue, compiled programs,
   DMA pool) against {!Engine_ref} (the preserved original).  Every
   observable must be *bit-identical* — full [Metrics.t] records
   including float arrays, span/request/retry trace streams, cutoff
   points, event counts, exceptions — across random programs and every
   fault class.  Plus the allocation guarantee: with no observers
   attached, the optimized engine's marginal minor-heap cost per event
   is ~zero. *)

open Sw_isa
open Sw_arch
open Sw_sim
open Sw_oracle

let p = Params.default

let fadd dst srcs = Instr.make Instr.Fadd ~dst srcs

let blocks =
  [|
    [| fadd 1 [ 1; 0 ] |];
    [| fadd 1 [ 1; 0 ]; fadd 2 [ 2; 0 ]; Instr.make Instr.Ialu ~dst:3 [] |];
    [| Instr.make Instr.Fmul ~dst:4 [ 1; 2 ]; fadd 5 [ 4; 3 ] |];
  |]

(* Deterministic random programs: computes over a small block set,
   tagged DMAs, waits, gloads, nested repeats (including valid
   empty-body repeats, which still cost loop overhead per iteration).
   A trailing [Dma_wait_all] keeps every tag awaited, so the programs
   always validate. *)
let gen_program prng =
  let module Prng = Sw_util.Prng in
  let rec gen_items depth budget =
    List.concat
      (List.init budget (fun _ ->
           match Prng.int prng (if depth >= 2 then 5 else 6) with
           | 0 ->
               [ Program.Compute
                   { block = blocks.(Prng.int prng (Array.length blocks));
                     trips = 1 + Prng.int prng 6 } ]
           | 1 ->
               let tag = Prng.int prng 3 in
               [ Program.Dma_issue
                   { dir = Program.Get;
                     accesses =
                       [ Mem_req.contiguous ~addr:(256 * Prng.int prng 4096)
                           ~bytes:(256 * (1 + Prng.int prng 12)) ];
                     tag } ]
           | 2 -> [ Program.Dma_wait (Prng.int prng 3) ]
           | 3 -> [ Program.Dma_wait_all ]
           | 4 -> [ Program.Gload { addr = 8 * Prng.int prng 100000; bytes = 8 } ]
           | _ ->
               let body = Array.of_list (gen_items (depth + 1) (Prng.int prng 3)) in
               [ Program.Repeat { trips = 1 + Prng.int prng 3; body } ]))
  in
  Array.of_list (gen_items 0 (2 + Prng.int prng 6) @ [ Program.Dma_wait_all ])

let gen_fleet seed n =
  let prng = Sw_util.Prng.create seed in
  Array.init n (fun _ -> gen_program prng)

let faulty =
  {
    Config.dma_fail_prob = 0.3;
    dma_max_retries = 4;
    dma_backoff_cycles = 50;
    fault_seed = 11;
    stragglers = [ (1, 1.5); (3, 2.0) ];
    mc_throttles = [ (0, { Config.from_cycle = 0.0; until_cycle = 5000.0; bw_factor = 0.5 }) ];
  }

let configs =
  [
    ("ideal", Config.ideal p);
    ("default", Config.default p);
    ("jitter", { (Config.default p) with Config.start_jitter = 32; seed = 7 });
    ("multi-cg", Config.ideal (Params.with_cgs p 2));
    ("faulty", { (Config.default p) with Config.faults = faulty });
  ]

let check_metrics label (a : Metrics.t) (b : Metrics.t) =
  Alcotest.(check bool) (label ^ ": metrics bit-identical") true (a = b)

let test_metrics_identical () =
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun seed ->
          let progs = gen_fleet seed 16 in
          check_metrics
            (Printf.sprintf "%s seed %d" name seed)
            (Engine_ref.run cfg progs) (Engine.run cfg progs))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])
    configs

let test_traces_identical () =
  List.iter
    (fun (name, cfg) ->
      let progs = gen_fleet 13 8 in
      let m1, s1, q1, r1 = Engine_ref.run_traced_full cfg progs in
      let m2, s2, q2, r2 = Engine.run_traced_full cfg progs in
      check_metrics name m1 m2;
      Alcotest.(check bool) (name ^ ": spans identical") true (s1 = s2);
      Alcotest.(check bool) (name ^ ": dma reqs identical") true (q1 = q2);
      Alcotest.(check bool) (name ^ ": retries identical") true (r1 = r2))
    configs

(* the two engines declare distinct (but isomorphic) run_result types;
   fold both into one shape for comparison *)
let ref_result = function
  | Engine_ref.Finished m -> `Finished m
  | Engine_ref.Cutoff { at; events } -> `Cutoff (at, events)

let opt_result = function
  | Engine.Finished m -> `Finished m
  | Engine.Cutoff { at; events } -> `Cutoff (at, events)

let test_budget_identical () =
  let cfg = Config.default p in
  let progs = gen_fleet 21 16 in
  let full = Engine.run cfg progs in
  (* a strict-cutoff abandon and an event-budget abandon must stop at
     the same event with the same clock in both engines *)
  List.iter
    (fun cutoff ->
      let a = ref_result (Engine_ref.run_budget ~cutoff cfg progs) in
      let b = opt_result (Engine.run_budget ~cutoff cfg progs) in
      Alcotest.(check bool)
        (Printf.sprintf "cutoff %.0f identical" cutoff)
        true (a = b))
    [ 0.0; full.Metrics.cycles /. 3.0; full.Metrics.cycles /. 2.0; full.Metrics.cycles ];
  List.iter
    (fun event_budget ->
      let a = ref_result (Engine_ref.run_budget ~event_budget cfg progs) in
      let b = opt_result (Engine.run_budget ~event_budget cfg progs) in
      Alcotest.(check bool)
        (Printf.sprintf "budget %d identical" event_budget)
        true (a = b))
    [ 0; 1; 7; full.Metrics.events / 2; full.Metrics.events; full.Metrics.events + 100 ]

let test_event_limit_identical () =
  let cfg = { (Config.default p) with Config.max_events = 100 } in
  let progs = gen_fleet 3 16 in
  let outcome run = match run cfg progs with m -> Ok m.Metrics.events | exception e -> Error e in
  match (outcome Engine_ref.run, outcome Engine.run) with
  | Error Engine_ref.Event_limit, Error Engine.Event_limit -> ()
  | _ -> Alcotest.fail "both engines must hit Event_limit"

let test_rejections_identical () =
  let msg run cfg progs =
    match run cfg progs with
    | exception Invalid_argument m -> m
    | exception Config.Invalid_config m -> m
    | _ -> "no error"
  in
  let cases =
    [
      ("no programs", Config.ideal p, ([||] : Program.t array));
      ("too many", Config.ideal p, Array.make 65 [| Program.Gload { addr = 0; bytes = 8 } |]);
      ( "invalid program",
        Config.ideal p,
        [| [| Program.Compute { block = [||]; trips = 1 } |] |] );
    ]
  in
  List.iter
    (fun (name, cfg, progs) ->
      Alcotest.(check string) name (msg Engine_ref.run cfg progs) (msg Engine.run cfg progs))
    cases

let test_empty_body_repeat_identical () =
  (* a Repeat whose body compiles to nothing still costs loop_overhead
     per iteration — the one place naive dead-code elimination in the
     lowering would silently diverge from the reference *)
  let prog =
    [| Program.Repeat { trips = 5; body = [| Program.Repeat { trips = 3; body = [||] } |] } |]
  in
  List.iter
    (fun (name, cfg) -> check_metrics name (Engine_ref.run cfg [| prog |]) (Engine.run cfg [| prog |]))
    [ ("default", Config.default p); ("ideal", Config.ideal p) ]

let test_shared_cache_traffic_identical () =
  (* cold program lowering must hit the process-wide block-cost cache
     exactly as often as the reference's lazy per-run table: once per
     structurally-distinct block per run.  A warm run reuses whole
     lowered programs from the compile cache and must not touch the
     block-cost cache at all. *)
  let progs = gen_fleet 5 8 in
  let cfg = Config.ideal p in
  let cold run =
    Engine.clear_compile_cache ();
    Schedule.clear_cache ();
    ignore (run cfg progs);
    Schedule.cache_stats ()
  in
  let ref_traffic = cold Engine_ref.run in
  let opt_traffic = cold Engine.run in
  Alcotest.(check bool) "cold cache traffic identical" true (ref_traffic = opt_traffic);
  let h0, m0 = Schedule.cache_stats () in
  ignore (Engine.run cfg progs);
  let h1, m1 = Schedule.cache_stats () in
  Alcotest.(check bool) "warm run adds no block-cost traffic" true (h1 - h0 = 0 && m1 - m0 = 0)

let test_no_obs_run_allocates_nothing_per_event () =
  (* Marginal minor-heap cost per event, with per-run setup cancelled
     by differencing a short and a long run of the same fleet shape.
     The reference engine spends ~30+ words/event (heap entries, boxed
     events, req records, pop options, boxed floats); the optimized
     engine's steady state must be ~0.  The bound of 1 word/event
     leaves slack only for pool/arena growth noise. *)
  let fleet trips =
    Array.init 64 (fun i ->
        [|
          Program.Repeat
            {
              trips;
              body =
                [|
                  Program.Dma_issue
                    {
                      dir = Program.Get;
                      accesses = [ Mem_req.contiguous ~addr:(i * 4096) ~bytes:2048 ];
                      tag = 0;
                    };
                  Program.Compute { block = blocks.(1); trips = 4 };
                  Program.Dma_wait 0;
                |];
            };
        |])
  in
  let cfg = Config.default p in
  let small = fleet 8 and big = fleet 264 in
  (* warm the schedule and compile caches for both fleets so the
     measured runs are pure steady state *)
  ignore (Engine.run cfg small);
  ignore (Engine.run cfg big);
  let measure progs =
    let before = Gc.minor_words () in
    let m = Engine.run cfg progs in
    (Gc.minor_words () -. before, m.Metrics.events)
  in
  let w_small, e_small = measure small in
  let w_big, e_big = measure big in
  let marginal = (w_big -. w_small) /. float_of_int (e_big - e_small) in
  Alcotest.(check bool)
    (Printf.sprintf "marginal words/event %.4f < 1.0" marginal)
    true (marginal < 1.0)

let tests =
  ( "engine-diff",
    [
      Alcotest.test_case "metrics bit-identical across configs" `Quick test_metrics_identical;
      Alcotest.test_case "traces bit-identical" `Quick test_traces_identical;
      Alcotest.test_case "cutoff/budget bit-identical" `Quick test_budget_identical;
      Alcotest.test_case "event limit identical" `Quick test_event_limit_identical;
      Alcotest.test_case "rejections identical" `Quick test_rejections_identical;
      Alcotest.test_case "empty-body repeat identical" `Quick test_empty_body_repeat_identical;
      Alcotest.test_case "shared cache traffic identical" `Quick test_shared_cache_traffic_identical;
      Alcotest.test_case "no-obs run allocates ~0 per event" `Quick
        test_no_obs_run_allocates_nothing_per_event;
    ] )
