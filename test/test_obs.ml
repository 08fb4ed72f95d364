(* The observability layer: sink semantics and thread safety, the JSON
   validator, Chrome export well-formedness, probe/metrics
   reconciliation, instrumented backends, memoizer counters, and the
   telemetered tuner's bit-identical results. *)

open Sw_obs
module Backend = Sw_backend.Backend

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let pool n = Sw_util.Pool.create ~size:n ()

let entry name = Sw_workloads.Registry.find_exn name

let kernel_of name scale = (entry name).Sw_workloads.Registry.build ~scale

let span ?(cat = "test") ?(name = "s") ?(pid = Sink.host_pid) ?(track = 0) ?(t = 0.0)
    ?(dur = 1.0) ?(args = []) () =
  { Sink.cat; name; pid; track; t_us = t; dur_us = dur; args }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_sink_spans_in_order () =
  let s = Sink.create () in
  Alcotest.(check int) "empty" 0 (Sink.span_count s);
  Sink.record s (span ~name:"a" ());
  Sink.record s (span ~name:"b" ());
  Sink.record s (span ~name:"c" ());
  Alcotest.(check int) "three spans" 3 (Sink.span_count s);
  Alcotest.(check (list string)) "record order" [ "a"; "b"; "c" ]
    (List.map (fun sp -> sp.Sink.name) (Sink.spans s))

let test_sink_counters () =
  let s = Sink.create () in
  Alcotest.(check (float 0.0)) "untouched counter reads 0" 0.0 (Sink.counter s "nope");
  Sink.incr s "b.count";
  Sink.incr s ~by:4 "b.count";
  Sink.add s "a.total" 2.5;
  Alcotest.(check (float 0.0)) "incr accumulates" 5.0 (Sink.counter s "b.count");
  Alcotest.(check (float 0.0)) "add accumulates" 2.5 (Sink.counter s "a.total");
  (match Sink.counters s with
  | [ ("a.total", _); ("b.count", _) ] -> ()
  | other -> Alcotest.failf "expected sorted counters, got %d" (List.length other));
  Sink.clear s;
  Alcotest.(check int) "clear drops spans" 0 (Sink.span_count s);
  Alcotest.(check (list (pair string (float 0.0)))) "clear drops counters" [] (Sink.counters s)

let test_with_span () =
  let s = Sink.create () in
  let v = Sink.with_span s ~cat:"work" "job" (fun () -> 42) in
  Alcotest.(check int) "returns the body's value" 42 v;
  match Sink.spans s with
  | [ sp ] ->
      Alcotest.(check string) "cat" "work" sp.Sink.cat;
      Alcotest.(check string) "name" "job" sp.Sink.name;
      Alcotest.(check int) "host pid" Sink.host_pid sp.Sink.pid;
      Alcotest.(check bool) "non-negative duration" true (sp.Sink.dur_us >= 0.0)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_with_span_records_on_raise () =
  let s = Sink.create () in
  (match Sink.with_span s ~cat:"work" "boom" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the exception to propagate");
  Alcotest.(check int) "span recorded despite the raise" 1 (Sink.span_count s)

let test_sink_thread_safety () =
  let s = Sink.create () in
  let items = List.init 64 Fun.id in
  let _ =
    Sw_util.Pool.map (pool 4)
      (fun i ->
        for _ = 1 to 100 do
          Sink.incr s "hits"
        done;
        Sink.record s (span ~name:(string_of_int i) ());
        i)
      items
  in
  Alcotest.(check (float 0.0)) "no lost counter updates" 6400.0 (Sink.counter s "hits");
  Alcotest.(check int) "no lost spans" 64 (Sink.span_count s)

(* ------------------------------------------------------------------ *)
(* JSON validator *)

let test_json_validator_accepts () =
  List.iter
    (fun doc ->
      match Json.validate doc with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "rejected %s: %s" doc msg)
    [
      "{}";
      "[]";
      "null";
      "-12.5e-3";
      "\"a \\\"quoted\\\" string with \\u00e9\"";
      "{\"a\": [1, 2.5, true, false, null], \"b\": {\"c\": \"d\"}}";
      "  [ {\"x\": 1e9} , [] ]  ";
    ]

let test_json_validator_rejects () =
  List.iter
    (fun doc ->
      match Json.validate doc with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted invalid JSON: %s" doc)
    [
      "";
      "{";
      "{\"a\": }";
      "[1, 2,]";
      "{\"a\" 1}";
      "nul";
      "0x10";
      "\"unterminated";
      "{} trailing";
      "{\"a\": NaN}";
      "'single'";
    ]

(* The codec the bench's --json files and the shard protocol rely on:
   any nested value with finite floats survives to_string/parse, each
   float bit for bit and every Int/Float class kept apart. *)

let rec json_bit_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 json_bit_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> k = k' && json_bit_equal x y) xs ys
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Str _), _ -> a = b
  | (Json.Float _ | Json.Arr _ | Json.Obj _), _ -> false

let gen_json =
  let open QCheck.Gen in
  let gen_char =
    frequency
      [
        (4, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '/'; ' '; '\x7f'; '\xc3'; '\xa9' ]);
        (2, char_range '\000' '\031');
      ]
  in
  let gen_str = string_size ~gen:gen_char (int_range 0 12) in
  let gen_float =
    frequency
      [
        ( 3,
          map
            (fun bits ->
              let f = Int64.float_of_bits bits in
              if Float.is_finite f then f else 0.5)
            ui64 );
        ( 2,
          oneofl
            [ 0.0; -0.0; 1.0; 3.0; 0.1; 1e22; 5e-324; Float.max_float; -.Float.min_float ] );
        (2, float_range (-1e6) 1e6);
      ]
  in
  let gen_int = oneof [ small_signed_int; int; oneofl [ 0; max_int; min_int ] ] in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) gen_int;
        map (fun f -> Json.Float f) gen_float;
        map (fun s -> Json.Str s) gen_str;
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair gen_str (self (depth - 1)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v, floats bit-identical" ~count:1000
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> json_bit_equal v v'
      | Error _ -> false)

let test_json_non_finite_as_string () =
  let doc =
    Json.Obj
      [
        ("nan", Json.Float Float.nan);
        ("inf", Json.Arr [ Json.Float Float.infinity; Json.Float Float.neg_infinity ]);
      ]
  in
  let s = Json.to_string doc in
  (match Json.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s does not validate: %s" s msg);
  match Json.parse s with
  | Ok (Json.Obj [ ("nan", Json.Str _); ("inf", Json.Arr [ Json.Str "inf"; Json.Str "-inf" ]) ])
    ->
      ()
  | _ -> Alcotest.failf "non-finite floats did not serialize as strings: %s" s

(* ------------------------------------------------------------------ *)
(* Chrome export *)

let check_valid label s =
  match Json.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid JSON (%s)" label msg

let test_chrome_empty_sink_valid () =
  let s = Sink.create () in
  let out = Chrome.to_string s in
  check_valid "empty sink" out;
  Alcotest.(check bool) "has a traceEvents array" true (contains out "\"traceEvents\"")

let test_chrome_escapes_hostile_strings () =
  let s = Sink.create () in
  Sink.record s
    (span ~cat:"we\"ird" ~name:"new\nline\ttab\\slash \x01ctl"
       ~args:[ ("msg", Sink.String "a\"b\\c\nd") ]
       ());
  Sink.add s "strange\"counter" 1.0;
  check_valid "hostile strings" (Chrome.to_string s)

let test_chrome_clamps_non_finite () =
  let s = Sink.create () in
  Sink.record s (span ~t:Float.nan ~dur:Float.infinity ~args:[ ("x", Sink.Float Float.nan) ] ());
  Sink.add s "bad" Float.neg_infinity;
  check_valid "non-finite numbers" (Chrome.to_string s)

let test_chrome_counters_and_args_present () =
  let s = Sink.create () in
  Sink.incr s ~by:7 "tuner.evaluated";
  Sink.record s
    (span ~args:[ ("grain", Sink.Int 32); ("db", Sink.Bool false); ("c", Sink.Float 1.5) ] ());
  let out = Chrome.to_string s in
  check_valid "counters + args" out;
  let has affix = contains out affix in
  Alcotest.(check bool) "counter event emitted" true (has "\"ph\": \"C\"");
  Alcotest.(check bool) "counter name present" true (has "tuner.evaluated");
  Alcotest.(check bool) "int arg" true (has "\"grain\": 32");
  Alcotest.(check bool) "bool arg" true (has "\"db\": false")

let test_chrome_write_and_validate_file () =
  let s = Sink.create () in
  Sink.record s (span ());
  let path = Filename.temp_file "sw_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome.write path s;
      match Json.validate_file path with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "written file invalid: %s" msg)

let test_events_of_trace_degenerate () =
  Alcotest.(check int) "empty trace converts to no events" 0
    (List.length (Chrome.events_of_trace []));
  let zero_len =
    [ { Sw_sim.Trace.cpe = 0; kind = Sw_sim.Trace.Compute; t0 = 5.0; t1 = 5.0 } ]
  in
  (match Chrome.events_of_trace zero_len with
  | [ e ] -> Alcotest.(check (float 0.0)) "zero-length span kept, dur 0" 0.0 e.Sink.dur_us
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  let s = Sink.create () in
  List.iter (Sink.record s) (Chrome.events_of_trace zero_len);
  check_valid "zero-makespan trace exports" (Chrome.to_string s)

(* ------------------------------------------------------------------ *)
(* Probe: counters restate Metrics.t, reconciliation holds *)

let observed_kmeans () =
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let lowered = Sw_swacc.Lower.lower_exn p kernel v in
  let sink = Sink.create () in
  let metrics, trace =
    Probe.run_traced sink ~name:"kmeans" config lowered.Sw_swacc.Lowered.programs
  in
  (sink, metrics, trace)

let test_probe_counters_match_metrics () =
  let sink, m, trace = observed_kmeans () in
  let c = Sink.counter sink in
  Alcotest.(check (float 0.0)) "one run" 1.0 (c "sim.runs");
  Alcotest.(check (float 0.0)) "cycles" m.Sw_sim.Metrics.cycles (c "sim.cycles");
  Alcotest.(check (float 0.0)) "transactions"
    (float_of_int m.Sw_sim.Metrics.transactions)
    (c "sim.transactions");
  Alcotest.(check (float 0.0)) "payload bytes"
    (float_of_int m.Sw_sim.Metrics.payload_bytes)
    (c "sim.payload_bytes");
  Alcotest.(check (float 0.0)) "dma requests"
    (float_of_int m.Sw_sim.Metrics.dma_requests)
    (c "sim.dma_requests");
  Alcotest.(check (float 0.0)) "comp_cycles_sum" m.Sw_sim.Metrics.comp_cycles_sum
    (c "sim.comp_cycles_sum");
  (* machine spans = per-CPE activity + one mc_busy totals bar per
     controller that served traffic; DMA lifetimes land in the separate
     async stream, one per request *)
  let mc_bars =
    Array.fold_left
      (fun acc b -> if b > 0.0 then acc + 1 else acc)
      0 m.Sw_sim.Metrics.mc_busy_cycles
  in
  Alcotest.(check int) "machine spans = trace spans + mc busy bars"
    (List.length trace + mc_bars) (Sink.span_count sink);
  Alcotest.(check int) "one async span per dma request" m.Sw_sim.Metrics.dma_requests
    (Sink.async_count sink)

let test_probe_reconcile_ok () =
  let _, m, trace = observed_kmeans () in
  match Probe.reconcile m trace with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reconciliation failed: %s" msg

let test_probe_reconcile_catches_drift () =
  let _, m, trace = observed_kmeans () in
  let drifted = { m with Sw_sim.Metrics.comp_cycles = m.Sw_sim.Metrics.comp_cycles +. 10.0 } in
  (match Probe.reconcile drifted trace with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected a comp_cycles discrepancy");
  let truncated = { m with Sw_sim.Metrics.cycles = m.Sw_sim.Metrics.cycles /. 2.0 } in
  match Probe.reconcile truncated trace with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected an out-of-makespan span"

(* ------------------------------------------------------------------ *)
(* Instrumented backends *)

let test_instrument_transparent_and_counted () =
  let sink = Sink.create () in
  let b = Backend.instrument sink Backend.simulator in
  let kernel = kernel_of "kmeans" 0.25 in
  let v = (entry "kmeans").Sw_workloads.Registry.variant in
  let plain = Result.get_ok (Backend.assess Backend.simulator config kernel v) in
  let wrapped = Result.get_ok (Backend.assess b config kernel v) in
  Alcotest.(check (float 0.0)) "verdict unchanged by instrumentation" plain.Backend.cycles
    wrapped.Backend.cycles;
  let infeasible =
    { Sw_swacc.Kernel.grain = 4096; unroll = 1; active_cpes = 64; double_buffer = false }
  in
  (match Backend.assess b config (kernel_of "lud" 1.0) infeasible with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection");
  Alcotest.(check (float 0.0)) "ok counted" 1.0 (Sink.counter sink "backend.sim.ok");
  Alcotest.(check (float 0.0)) "infeasible counted" 1.0
    (Sink.counter sink "backend.sim.infeasible");
  Alcotest.(check (float 1e-6)) "machine time billed to the counter"
    wrapped.Backend.cost.Backend.machine_us
    (Sink.counter sink "backend.sim.machine_us");
  Alcotest.(check int) "one span per assessment" 2 (Sink.span_count sink)

(* Satellite: obs counters must exactly match the memoizer's own
   accounting, sequentially and under a 4-domain pool. *)
let memo_counter_check ~pool_size =
  let sink = Sink.create () in
  let memo = Backend.memoize ~sink Backend.static_model in
  let b = Backend.memoized memo in
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let tune () =
    Sw_tuning.Tuner.tune_exn ~backend:b ~pool:(pool pool_size) config kernel ~points
  in
  let o1 = tune () in
  let o2 = tune () in
  Alcotest.(check bool) "same pick through the memo" true
    (o1.Sw_tuning.Tuner.best = o2.Sw_tuning.Tuner.best);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "hits counter = memo_hits (pool %d)" pool_size)
    (float_of_int (Backend.memo_hits memo))
    (Sink.counter sink "memo.hits");
  Alcotest.(check (float 0.0))
    (Printf.sprintf "misses counter = memo_misses (pool %d)" pool_size)
    (float_of_int (Backend.memo_misses memo))
    (Sink.counter sink "memo.misses");
  (* the second identical search is all hits: billing stays truthful *)
  Alcotest.(check bool) "second search served from cache" true
    (Backend.memo_hits memo >= List.length points)

let test_memo_counters_sequential () = memo_counter_check ~pool_size:1

let test_memo_counters_pooled () = memo_counter_check ~pool_size:4

(* ------------------------------------------------------------------ *)
(* Telemetered tuner *)

let test_tuner_obs_bit_identical () =
  let e = entry "hotspot" in
  let kernel = kernel_of "hotspot" 0.5 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let baseline =
    Sw_tuning.Tuner.tune_exn ~backend:Backend.simulator config kernel ~points
  in
  List.iter
    (fun pool_size ->
      let sink = Sink.create () in
      let o =
        Sw_tuning.Tuner.tune_exn ~backend:Backend.simulator
          ?pool:(Option.map (fun n -> pool n) pool_size)
          ~obs:sink config kernel ~points
      in
      let label what =
        Printf.sprintf "%s (pool %s)" what
          (match pool_size with None -> "none" | Some n -> string_of_int n)
      in
      Alcotest.(check bool) (label "same pick") true
        (o.Sw_tuning.Tuner.best = baseline.Sw_tuning.Tuner.best);
      Alcotest.(check (float 0.0)) (label "same best cycles")
        baseline.Sw_tuning.Tuner.best_cycles o.Sw_tuning.Tuner.best_cycles;
      Alcotest.(check int) (label "same evaluated") baseline.Sw_tuning.Tuner.evaluated
        o.Sw_tuning.Tuner.evaluated;
      Alcotest.(check int) (label "same infeasible") baseline.Sw_tuning.Tuner.infeasible
        o.Sw_tuning.Tuner.infeasible;
      Alcotest.(check (float 0.0)) (label "same machine time")
        baseline.Sw_tuning.Tuner.machine_time_us o.Sw_tuning.Tuner.machine_time_us)
    [ None; Some 1; Some 4 ]

let test_tuner_obs_counters_match_outcome () =
  let e = entry "kmeans" in
  let kernel = kernel_of "kmeans" 0.25 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let sink = Sink.create () in
  let o =
    Sw_tuning.Tuner.tune_exn ~backend:Backend.simulator ~pool:(pool 4) ~obs:sink config kernel
      ~points
  in
  let c = Sink.counter sink in
  Alcotest.(check (float 0.0)) "searches" 1.0 (c "tuner.searches");
  Alcotest.(check (float 0.0)) "points" (float_of_int (List.length points)) (c "tuner.points");
  Alcotest.(check (float 0.0)) "evaluated"
    (float_of_int o.Sw_tuning.Tuner.evaluated)
    (c "tuner.evaluated");
  Alcotest.(check (float 0.0)) "infeasible"
    (float_of_int o.Sw_tuning.Tuner.infeasible)
    (c "tuner.infeasible");
  Alcotest.(check (float 1e-6)) "machine time" o.Sw_tuning.Tuner.machine_time_us
    (c "tuner.machine_us");
  Alcotest.(check (float 0.0)) "backend ok counter = evaluated"
    (float_of_int o.Sw_tuning.Tuner.evaluated)
    (c "backend.sim.ok");
  Alcotest.(check (float 1e-6)) "backend machine counter = outcome billing"
    o.Sw_tuning.Tuner.machine_time_us
    (c "backend.sim.machine_us");
  (* one span per assessment plus the search-level tuner span *)
  Alcotest.(check int) "span accounting" (List.length points + 1) (Sink.span_count sink);
  check_valid "tuner trace exports" (Chrome.to_string sink)

let tests =
  ( "obs",
    [
      Alcotest.test_case "sink keeps spans in order" `Quick test_sink_spans_in_order;
      Alcotest.test_case "sink counters" `Quick test_sink_counters;
      Alcotest.test_case "with_span" `Quick test_with_span;
      Alcotest.test_case "with_span records on raise" `Quick test_with_span_records_on_raise;
      Alcotest.test_case "sink is thread-safe" `Quick test_sink_thread_safety;
      Alcotest.test_case "json validator accepts valid docs" `Quick test_json_validator_accepts;
      Alcotest.test_case "json validator rejects invalid docs" `Quick test_json_validator_rejects;
      Alcotest.test_case "chrome: empty sink is valid" `Quick test_chrome_empty_sink_valid;
      Alcotest.test_case "chrome: hostile strings escaped" `Quick
        test_chrome_escapes_hostile_strings;
      Alcotest.test_case "chrome: non-finite clamped" `Quick test_chrome_clamps_non_finite;
      Alcotest.test_case "chrome: counters and args emitted" `Quick
        test_chrome_counters_and_args_present;
      Alcotest.test_case "chrome: written file parses" `Quick test_chrome_write_and_validate_file;
      Alcotest.test_case "chrome: degenerate traces" `Quick test_events_of_trace_degenerate;
      Alcotest.test_case "probe counters restate metrics" `Quick test_probe_counters_match_metrics;
      Alcotest.test_case "probe reconciles run_traced" `Quick test_probe_reconcile_ok;
      Alcotest.test_case "probe reconcile catches drift" `Quick test_probe_reconcile_catches_drift;
      Alcotest.test_case "instrument is transparent and counted" `Quick
        test_instrument_transparent_and_counted;
      Alcotest.test_case "memo counters match accounting (seq)" `Quick
        test_memo_counters_sequential;
      Alcotest.test_case "memo counters match accounting (pool 4)" `Quick
        test_memo_counters_pooled;
      Alcotest.test_case "tuner results bit-identical under obs" `Slow
        test_tuner_obs_bit_identical;
      Alcotest.test_case "tuner obs counters match outcome" `Quick
        test_tuner_obs_counters_match_outcome;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "json: non-finite floats become strings" `Quick
        test_json_non_finite_as_string;
    ] )
