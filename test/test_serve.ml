(* The service layer: Json parse/build round-trips, the Prometheus
   renderer, request parsing and keys, handler payloads (validated and
   bit-identical between the daemon path and the one-shot CLI path),
   shared-state safety under concurrent memoize+journal traffic, and
   the server loop itself (ordering, shedding, error resilience, crash
   resume) driven over real file descriptors. *)

module Json = Sw_obs.Json
module Sink = Sw_obs.Sink
module Backend = Sw_backend.Backend
module Handler = Sw_serve.Handler
module Server = Sw_serve.Server

let config = Sw_sim.Config.default Sw_arch.Params.default

let entry name = Sw_workloads.Registry.find_exn name

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Json builder/parser round-trips *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1.0;
      Json.Float (-0.0);
      Json.Float 1e300;
      Json.Float 6.5e-21;
      Json.Float 486038.40000000014;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \r quotes";
      Json.Str "caf\xc3\xa9";  (* utf-8 survives *)
      Json.Arr [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Null ]);
          ("b", Json.Obj [ ("nested", Json.Str "x") ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Alcotest.check json (Json.to_string v) v v'
      | Error msg -> Alcotest.failf "%s does not parse back: %s" (Json.to_string v) msg)
    cases;
  (* the Int/Float syntactic classes survive a round-trip *)
  Alcotest.check json "float stays float" (Json.Float 3.0)
    (Result.get_ok (Json.parse (Json.to_string (Json.Float 3.0))));
  Alcotest.check json "int stays int" (Json.Int 3)
    (Result.get_ok (Json.parse (Json.to_string (Json.Int 3))))

let test_json_roundtrip_qcheck () =
  let gen =
    QCheck.float_range (-1e18) 1e18
  in
  let prop f =
    match Json.parse (Json.float_lit f) with
    | Ok (Json.Float f') -> Int64.bits_of_float f' = Int64.bits_of_float f
    | Ok (Json.Int i) -> float_of_int i = f
    | _ -> false
  in
  QCheck.Test.check_exn (QCheck.Test.make ~count:500 ~name:"float_lit round-trips" gen prop)

let test_json_parse_unicode () =
  (match Json.parse {|"café"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "bmp escape" "caf\xc3\xa9" s
  | _ -> Alcotest.fail "bmp escape did not parse");
  match Json.parse {|"😀"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse"

let test_json_parse_errors () =
  let rejects s =
    match Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parser accepted %S" s
  in
  List.iter rejects
    [
      "";
      "{";
      "[1,]";
      "{\"a\": }";
      "0x10";
      "1 2";
      "\"unterminated";
      "\"bad \\q escape\"";
      "nul";
      "{\"a\": 1,}";
    ];
  (* accessors are total *)
  Alcotest.(check (option int)) "to_int on str" None (Json.to_int (Json.Str "3"));
  Alcotest.(check (option int)) "to_int on integral float" (Some 3) (Json.to_int (Json.Float 3.0));
  Alcotest.(check (option string)) "member on non-obj" None
    (Option.bind (Json.member "k" (Json.Arr [])) Json.to_str)

(* ------------------------------------------------------------------ *)
(* Prometheus rendering *)

let test_render_metrics () =
  let s = Sink.create () in
  Sink.incr s ~by:3 "serve.requests";
  Sink.add s "tuner.machine_us" 12.5;
  let text = Sink.render_metrics ~extra:[ ("up", 1.0) ] s in
  Alcotest.(check string) "exact text"
    "# TYPE swpm_serve_requests counter\nswpm_serve_requests 3\n# TYPE swpm_tuner_machine_us \
     counter\nswpm_tuner_machine_us 12.5\n# TYPE swpm_up counter\nswpm_up 1\n"
    text

let test_render_metrics_collisions () =
  (* sanitization collisions merge by summing instead of repeating a
     metric name (which Prometheus scrapers reject) *)
  let text = Sink.render_metrics_of [ ("a.b", 1.0); ("a_b", 2.0); ("z-y", 0.25) ] in
  Alcotest.(check string) "merged"
    "# TYPE swpm_a_b counter\nswpm_a_b 3\n# TYPE swpm_z_y counter\nswpm_z_y 0.25\n" text

let test_metrics_of_trace () =
  let s = Sink.create () in
  Sink.incr s ~by:7 "backend.sim.ok";
  Sink.add s "backend.sim.machine_us" 123.25;
  let path = Filename.temp_file "serve_trace" ".json" in
  Sw_obs.Chrome.write path s;
  let offline = Handler.metrics_of_trace path in
  Sys.remove path;
  match offline with
  | Error msg -> Alcotest.failf "metrics_of_trace: %s" msg
  | Ok text ->
      (* the offline dump restates the live renderer exactly *)
      Alcotest.(check string) "offline = live" (Sink.render_metrics s) text

(* ------------------------------------------------------------------ *)
(* Request parsing and keys *)

let test_parse_request_defaults () =
  match Handler.parse_request {|{"op": "tune", "kernel": "kmeans"}|} with
  | Error msg -> Alcotest.fail msg
  | Ok { Handler.id; verb; deadline_ms = _ } -> (
      Alcotest.check json "absent id is null" Json.Null id;
      match verb with
      | Handler.Tune t ->
          Alcotest.(check string) "backend default" "model" t.Handler.t_backend;
          Alcotest.(check string) "strategy default" "exhaustive" t.Handler.t_strategy;
          Alcotest.(check string) "fault level default" "mild" t.Handler.t_fault_level;
          Alcotest.(check (option int)) "seed default" None t.Handler.t_seed;
          Alcotest.(check (option string)) "checkpoint default" None t.Handler.t_checkpoint
      | _ -> Alcotest.fail "wrong verb")

let test_parse_request_errors () =
  let err line =
    match Handler.parse_request line with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  Alcotest.(check bool) "invalid json" true (String.length (err "nonsense") > 0);
  Alcotest.(check string) "missing op" "missing field \"op\"" (err {|{"kernel": "x"}|});
  Alcotest.(check string) "missing kernel" "missing field \"kernel\"" (err {|{"op": "predict"}|});
  Alcotest.(check string) "typed field" "field \"seed\": expected an integer"
    (err {|{"op": "predict", "kernel": "kmeans", "seed": "7"}|});
  Alcotest.(check bool) "unknown op named" true
    (String.length (err {|{"op": "frobnicate"}|}) > 0)

let test_request_key () =
  let parse line = Result.get_ok (Handler.parse_request line) in
  let a = parse {|{"id": 1, "op": "tune", "kernel": "kmeans", "seed": 5}|} in
  let b = parse {|{"id": 2, "op": "tune", "kernel": "kmeans", "seed": 5}|} in
  let c = parse {|{"id": 1, "op": "tune", "kernel": "kmeans", "seed": 6}|} in
  Alcotest.(check string) "id does not change the key" (Handler.request_key a)
    (Handler.request_key b);
  Alcotest.(check bool) "seed changes the key" true
    (Handler.request_key a <> Handler.request_key c);
  (* an auto-assigned checkpoint must not move the key, or the resume
     pass would derive a different journal path than the crashed run *)
  Alcotest.(check string) "checkpoint does not change the key" (Handler.request_key a)
    (Handler.request_key (Handler.with_checkpoint a "/tmp/x.journal"))

let test_strip_volatile () =
  let payload =
    Json.Obj
      [
        ("cycles", Json.Float 42.0);
        ("host_wall_s", Json.Float 0.1);
        ("nested", Json.Obj [ ("machine_us", Json.Float 3.0); ("keep", Json.Int 1) ]);
        ("arr", Json.Arr [ Json.Obj [ ("journal_hits", Json.Int 2) ] ]);
      ]
  in
  Alcotest.check json "volatile stripped recursively"
    (Json.Obj
       [
         ("cycles", Json.Float 42.0);
         ("nested", Json.Obj [ ("keep", Json.Int 1) ]);
         ("arr", Json.Arr [ Json.Obj [] ]);
       ])
    (Handler.strip_volatile payload)

(* ------------------------------------------------------------------ *)
(* Handler execution: every emitted JSON validates, and the daemon path
   equals the one-shot CLI path *)

let run_line state line =
  Handler.run state (Result.get_ok (Handler.parse_request line))

(* A warm daemon prices an adaptive tune as a fresh process does: an
   exhaustive sim tune in between stores every verdict in the shared
   memo, and a stored verdict past the repeated tune's cutoff must
   still answer as a cut-off, or the repeat verifies more points than
   the first run did. *)
let test_warm_adaptive_counts_match_cold () =
  let state = Handler.create () in
  let adaptive =
    {|{"op":"tune","kernel":"lud","scale":0.25,"backend":"sim","strategy":"adaptive","rank":"model","seed":5}|}
  in
  let exhaustive = {|{"op":"tune","kernel":"lud","scale":0.25,"backend":"sim","seed":5}|} in
  let counts line =
    match (run_line state line).Handler.result with
    | Ok r ->
        let int key = Option.get (Option.bind (Json.member key r) Json.to_int) in
        (int "evaluated", int "pruned", Json.member "best" r)
    | Error msg -> Alcotest.failf "tune failed: %s" msg
  in
  let cold = counts adaptive in
  ignore (counts exhaustive);
  let warm = counts adaptive in
  let ev (e, _, _) = e and pr (_, p, _) = p and best (_, _, b) = b in
  Alcotest.(check int) "evaluated" (ev cold) (ev warm);
  Alcotest.(check int) "pruned" (pr cold) (pr warm);
  Alcotest.(check bool) "same pick" true (best cold = best warm)

let test_every_response_validates () =
  let state = Handler.create () in
  let lines =
    [
      {|{"id": 1, "op": "ping"}|};
      {|{"id": 2, "op": "metrics"}|};
      {|{"id": 3, "op": "shutdown"}|};
      {|{"id": 4, "op": "predict", "kernel": "kmeans"}|};
      {|{"id": 5, "op": "predict", "kernel": "nbody", "backend": "sim", "seed": 7}|};
      {|{"id": 6, "op": "tune", "kernel": "lud", "strategy": "shortlist"}|};
      {|{"id": 7, "op": "timeline", "kernel": "kmeans", "faults": 3}|};
      {|{"id": 8, "op": "predict", "kernel": "nope"}|};
      {|{"id": 9, "op": "tune", "kernel": "kmeans", "strategy": "nope"}|};
    ]
  in
  List.iter
    (fun line ->
      let resp = run_line state line in
      let text = Handler.response_to_string resp in
      (match Json.validate text with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s -> invalid response (%s): %s" line msg text);
      (* serialization round-trips through this module's own parser *)
      Alcotest.check json line (Handler.response_to_json resp)
        (Result.get_ok (Json.parse text)))
    lines;
  (* error responses really are errors *)
  let resp = run_line state {|{"id": 8, "op": "predict", "kernel": "nope"}|} in
  Alcotest.(check bool) "unknown kernel is an error" true (Result.is_error resp.Handler.result)

(* feed the server its requests from a file (deterministic batching:
   everything is readable at once) and collect response lines *)
let run_server ?config:cfg ?state lines =
  let state = match state with Some s -> s | None -> Handler.create () in
  let req_path = Filename.temp_file "serve_req" ".jsonl" in
  let out_path = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out req_path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let input = Unix.openfile req_path [ Unix.O_RDONLY ] 0 in
  let output = open_out out_path in
  let stats = Server.serve ?config:cfg state ~input ~output in
  Unix.close input;
  close_out output;
  let responses = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove req_path;
  Sys.remove out_path;
  let lines = String.split_on_char '\n' responses in
  (List.filter (fun l -> l <> "") lines, stats)

let parse_resp line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg line

(* The daemon path is one warm [Server.serve] session over every line;
   the one-shot CLI path is [Handler.run] on a fresh state per line.
   They must agree bit-for-bit on the stable fields (the last line
   repeats a kernel the session already tuned, so it reads the shared
   memo), and the session must answer every line within 30 s, at no
   less than one line per second. *)
let test_daemon_equals_oneshot () =
  let lines =
    [
      {|{"op": "predict", "kernel": "nbody", "backend": "sim", "seed": 11}|};
      {|{"op": "predict", "kernel": "kmeans", "backend": "hybrid"}|};
      {|{"op": "tune", "kernel": "kmeans", "backend": "sim", "strategy": "shortlist", "seed": 11}|};
      {|{"op": "tune", "kernel": "cfd", "scale": 0.25, "backend": "sim", "strategy": "adaptive", "rank": "surrogate", "seed": 11}|};
      {|{"op": "timeline", "kernel": "lud", "seed": 11, "faults": 2}|};
      {|{"op": "predict", "kernel": "kmeans", "backend": "sim", "seed": 11}|};
    ]
  in
  let t0 = Unix.gettimeofday () in
  let responses, _ = run_server lines in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every line answered" (List.length lines) (List.length responses);
  List.iter2
    (fun line resp ->
      let j = parse_resp resp in
      let daemon =
        match (Option.bind (Json.member "ok" j) Json.to_bool, Json.member "result" j) with
        | Some true, Some payload -> Handler.strip_volatile payload
        | _ -> Alcotest.failf "daemon path failed: %s" resp
      in
      let oneshot =
        match (run_line (Handler.create ()) line).Handler.result with
        | Ok payload -> Handler.strip_volatile payload
        | Error msg -> Alcotest.failf "one-shot path failed: %s" msg
      in
      Alcotest.check json line oneshot daemon)
    lines responses;
  if elapsed > 30.0 then Alcotest.failf "the session took %.1f s: a line waited past 30 s" elapsed;
  let per_s = float_of_int (List.length lines) /. elapsed in
  if per_s < 1.0 then Alcotest.failf "the session answered %.2f lines/s < 1" per_s

let test_shared_memo_across_requests () =
  let state = Handler.create () in
  let line = {|{"op": "predict", "kernel": "nbody", "backend": "sim", "seed": 7}|} in
  let cycles resp =
    match resp.Handler.result with
    | Ok payload -> Option.bind (Json.member "cycles" payload) Json.to_float
    | Error msg -> Alcotest.failf "predict failed: %s" msg
  in
  let first = cycles (run_line state line) in
  let hits_before = Sink.counter (Handler.sink state) "memo.hits" in
  let second = cycles (run_line state line) in
  Alcotest.(check (option (float 0.0))) "identical cycles" first second;
  Alcotest.(check (float 0.0)) "second request hit the shared memo" (hits_before +. 1.0)
    (Sink.counter (Handler.sink state) "memo.hits")

(* A tune validates its pick and default through the state's shared
   memo(sim).  Each tune below looks the memo up exactly twice beyond
   its search (instrumented through [obs]) and its ranking pass (one
   lookup per point) — on the first run too, where a "sim" tune's
   validations hit the verdicts its own search just stored.  Running
   the same tunes again on the same state misses nothing at all: a
   verification an adaptive cutoff abandoned is answered by the bound
   the memo stored for it (counted as a cut-off hit), and every answer
   is bit-identical to a fresh state's.  The sharded tune validates in
   the coordinator, so its two lookups are its only ones. *)
let test_repeated_tunes_hit_the_memo () =
  Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
  let base kernel =
    { (Handler.tune_defaults ~kernel) with Handler.t_scale = 0.25; t_seed = Some 5 }
  in
  let adaptive kernel backend =
    { (base kernel) with Handler.t_backend = backend; t_strategy = "adaptive"; t_rank = Some "model" }
  in
  let reqs =
    [
      ("sim", { (base "kmeans") with Handler.t_backend = "sim" });
      ("model", { (base "cfd") with Handler.t_backend = "model" });
      ("adaptive", adaptive "backprop" "model");
      ("sim-verified adaptive", adaptive "lud" "sim");
      ("sharded", { (base "hotspot") with Handler.t_backend = "model"; t_workers = 2 });
    ]
  in
  let answer (o : Sw_tuning.Tuner.outcome) =
    Sw_tuning.Tuner.(o.best, Int64.bits_of_float o.best_cycles, Int64.bits_of_float o.default_cycles)
  in
  let tune ?obs state t =
    match Handler.tune state ?obs t with
    | Ok tr -> tr.Handler.tr_outcome
    | Error msg -> Alcotest.failf "tune failed: %s" msg
  in
  let state = Handler.create () in
  let counter name = Sink.counter (Handler.sink state) name in
  let sum_counters obs suffixes =
    List.fold_left
      (fun n (key, v) ->
        if List.exists (fun suffix -> String.ends_with ~suffix key) suffixes then n +. v else n)
      0.0 (Sink.counters obs)
  in
  (* one run: its answer, its memo misses and its cut-off verifications *)
  let run label t =
    let obs = Sink.create () in
    let hits0 = counter "memo.hits" and misses0 = counter "memo.misses" in
    let o = tune ~obs state t in
    let misses = counter "memo.misses" -. misses0 in
    let lookups = counter "memo.hits" -. hits0 +. misses in
    let searched = sum_counters obs [ ".ok"; ".infeasible"; ".cutoff" ] in
    let ranked =
      if t.Handler.t_rank = None || t.Handler.t_workers > 1 then 0.0
      else
        float_of_int
          (o.Sw_tuning.Tuner.evaluated + o.Sw_tuning.Tuner.infeasible
         + o.Sw_tuning.Tuner.points_pruned)
    in
    Alcotest.(check (float 0.0)) (label ^ ": two validation lookups") 2.0
      (lookups -. searched -. ranked);
    (answer o, misses, searched, sum_counters obs [ ".cutoff" ])
  in
  let first = List.map (fun (label, t) -> run label t) reqs in
  (match first with
  | (_, misses, searched, _) :: _ ->
      Alcotest.(check (float 0.0)) "sim: validation reuses the search's verdicts" searched misses
  | [] -> ());
  List.iter2
    (fun (label, t) (first_answer, _, _, _) ->
      let cutoff_hits0 = counter "memo.cutoff_hits" in
      let again, misses, _, cut_offs = run label t in
      if label = "sim-verified adaptive" then
        Alcotest.(check bool) (label ^ ": some verification was cut off") true (cut_offs > 0.0);
      Alcotest.(check (float 0.0)) (label ^ ": repeat misses nothing") 0.0 misses;
      Alcotest.(check (float 0.0)) (label ^ ": every cut-off is a cut-off hit") cut_offs
        (counter "memo.cutoff_hits" -. cutoff_hits0);
      let fresh = answer (tune (Handler.create ()) t) in
      Alcotest.(check bool) (label ^ ": first run = fresh state") true (first_answer = fresh);
      Alcotest.(check bool) (label ^ ": repeat = fresh state") true (again = fresh))
    reqs first

(* A state builds each registry (kernel, scale) once.  Requests that
   reach a kernel already built for an earlier request, with the
   lowering caches warm on it, answer exactly what a fresh state
   answers with a freshly built kernel. *)
let test_interned_kernels_match_fresh () =
  let state = Handler.create () in
  let answer state verb =
    Json.to_string
      (Handler.response_to_json
         (let r = Handler.run state { Handler.id = Json.Null; verb; deadline_ms = None } in
          { r with Handler.result = Result.map Handler.strip_volatile r.Handler.result }))
  in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let kernel = e.Sw_workloads.Registry.name in
      let unroll = e.Sw_workloads.Registry.variant.Sw_swacc.Kernel.unroll in
      let predict backend =
        Handler.Predict
          {
            (Handler.predict_defaults ~kernel) with
            Handler.p_scale = 0.25;
            p_backend = backend;
            p_seed = Some 9;
          }
      in
      (* warm the state on a neighbouring variant of the same kernel *)
      ignore
        (answer state
           (Handler.Predict
              {
                (Handler.predict_defaults ~kernel) with
                Handler.p_scale = 0.25;
                p_unroll = Some (unroll + 1);
              }));
      List.iter
        (fun verb ->
          Alcotest.(check string) kernel (answer (Handler.create ()) verb) (answer state verb))
        [
          predict "model";
          predict "sim";
          Handler.Timeline
            { (Handler.timeline_defaults ~kernel) with Handler.l_scale = 0.25; l_seed = Some 9 };
        ])
    Sw_workloads.Registry.all

let timeline_req ?(seed = 3) ?faults ?(fault_level = "mild") ?cpes ?(db = false) kernel =
  {
    (Handler.timeline_defaults ~kernel) with
    Handler.l_scale = 0.1;
    l_seed = Some seed;
    l_faults = faults;
    l_fault_level = fault_level;
    l_cpes = cpes;
    l_db = db;
  }

let timeline_payload state ?obs l =
  match Handler.timeline state ?obs l with
  | Ok payload -> Json.to_string payload
  | Error msg -> Alcotest.failf "timeline failed: %s" msg

(* A repeated timeline is served from the state's table, byte-equal to
   a fresh state's; any field that changes the simulation misses. *)
let test_timeline_table () =
  let state = Handler.create () in
  let counter name = Sink.counter (Handler.sink state) name in
  let base = timeline_req ~faults:2 "lud" in
  let first = timeline_payload state base in
  Alcotest.(check (float 0.0)) "first is a miss" 1.0 (counter "timeline.misses");
  let again = timeline_payload state base in
  Alcotest.(check (float 0.0)) "repeat is a hit" 1.0 (counter "timeline.hits");
  Alcotest.(check string) "repeat = first" first again;
  Alcotest.(check string) "repeat = fresh state" (timeline_payload (Handler.create ()) base) again;
  List.iteri
    (fun i (what, l) ->
      ignore (timeline_payload state l);
      Alcotest.(check (float 0.0)) (what ^ " misses") (float_of_int (i + 2))
        (counter "timeline.misses"))
    [
      ("seed", timeline_req ~seed:4 ~faults:2 "lud");
      ("faults", timeline_req ~faults:5 "lud");
      ("fault_level", timeline_req ~faults:2 ~fault_level:"harsh" "lud");
      ("cpes", timeline_req ~faults:2 ~cpes:32 "lud");
      ("double_buffer", timeline_req ~faults:2 ~db:true "lud");
    ];
  (* a miss lowers the state's one kernel value through the lowering
     cache, so only the simulation is paid again *)
  let lower_hits () = fst (Sw_swacc.Lower.cache_stats ()) in
  let hits0 = lower_hits () in
  ignore (timeline_payload state (timeline_req ~seed:6 ~faults:2 "lud"));
  Alcotest.(check int) "a new seed reuses the lowering" (hits0 + 1) (lower_hits ());
  (* an unset seed is the global one *)
  ignore
    (timeline_payload state
       { base with Handler.l_seed = None; l_faults = None });
  ignore
    (timeline_payload state
       { base with Handler.l_seed = Some (Sw_util.Prng.global_seed ()); l_faults = None });
  Alcotest.(check (float 0.0)) "resolved seed is the key" 2.0 (counter "timeline.hits")

(* A traced timeline always simulates, so its spans are recorded, and
   it leaves the table alone. *)
let test_traced_timeline_records_spans () =
  let state = Handler.create () in
  let l = timeline_req "kmeans" in
  let untraced = timeline_payload state l in
  List.iter
    (fun what ->
      let obs = Sink.create () in
      Alcotest.(check string) (what ^ ": same payload") untraced (timeline_payload state ~obs l);
      Alcotest.(check bool) (what ^ ": spans recorded") true (Sink.span_count obs > 0))
    [ "first traced"; "second traced" ];
  let counter name = Sink.counter (Handler.sink state) name in
  Alcotest.(check (float 0.0)) "no table hits" 0.0 (counter "timeline.hits");
  Alcotest.(check (float 0.0)) "one table miss" 1.0 (counter "timeline.misses")

(* The table forgets its oldest payload once it holds [timeline_slots]. *)
let test_timeline_table_is_bounded () =
  let state = Handler.create () in
  let counter name = Sink.counter (Handler.sink state) name in
  let nth i = timeline_req ~seed:(100 + i) "kmeans" in
  for i = 0 to Handler.timeline_slots do
    ignore (timeline_payload state (nth i))
  done;
  let misses = counter "timeline.misses" in
  ignore (timeline_payload state (nth Handler.timeline_slots));
  Alcotest.(check (float 0.0)) "the newest is kept" misses (counter "timeline.misses");
  ignore (timeline_payload state (nth 0));
  Alcotest.(check (float 0.0)) "the oldest was dropped" (misses +. 1.0)
    (counter "timeline.misses")

(* Deadline admission forecasts a cold timeline from cold timelines
   only: answers served from the table do not move its estimate. *)
let test_cached_timelines_keep_cold_estimate () =
  let state = Handler.create () in
  let request l = { Handler.id = Json.Null; verb = Handler.Timeline l; deadline_ms = None } in
  let cached = request (timeline_req "kmeans") and cold = request (timeline_req ~seed:4 "kmeans") in
  ignore (Handler.run state cached);
  let before = Handler.estimate_s state cold in
  for _ = 1 to 20 do
    ignore (Handler.run state cached)
  done;
  Alcotest.(check (float 0.0)) "cold estimate unchanged" before (Handler.estimate_s state cold);
  Alcotest.(check bool) "cached estimate is its own" true
    (Handler.estimate_s state cached < before)

let test_degraded_tune_uses_model () =
  let state = Handler.create () in
  let req =
    { (Handler.tune_defaults ~kernel:"kmeans") with Handler.t_backend = "sim"; t_seed = Some 3 }
  in
  match Handler.tune state ~degrade:true req with
  | Error msg -> Alcotest.fail msg
  | Ok tr ->
      Alcotest.(check bool) "marked degraded" true tr.Handler.tr_degraded;
      Alcotest.(check string) "served by the model" "model" tr.Handler.tr_backend

let test_surrogate_ranked_tune_through_handler () =
  (* the handler resolves --rank through the same shared memo as the
     verifying backend and hands it to the adaptive strategy: the
     argmin must match the plain exhaustive tune of the same request *)
  Sw_learn.Surrogate.clear_cache ();
  let state = Handler.create () in
  let base =
    {
      (Handler.tune_defaults ~kernel:"kmeans") with
      Handler.t_scale = 0.25;
      t_backend = "sim";
      t_seed = Some 11;
    }
  in
  let ranked =
    match
      Handler.tune state
        { base with Handler.t_strategy = "adaptive"; t_rank = Some "surrogate" }
    with
    | Ok tr -> tr
    | Error msg -> Alcotest.failf "surrogate-ranked tune failed: %s" msg
  in
  let exhaustive =
    match Handler.tune state { base with Handler.t_strategy = "exhaustive" } with
    | Ok tr -> tr
    | Error msg -> Alcotest.failf "exhaustive tune failed: %s" msg
  in
  Alcotest.(check bool) "same argmin" true
    (ranked.Handler.tr_outcome.Sw_tuning.Tuner.best
    = exhaustive.Handler.tr_outcome.Sw_tuning.Tuner.best);
  Alcotest.(check bool) "ranking pass billed machine time" true
    (ranked.Handler.tr_outcome.Sw_tuning.Tuner.rank_machine_us > 0.0);
  let fits, _ = Sw_learn.Surrogate.cache_stats () in
  Alcotest.(check int) "handler trained the surrogate once" 1 fits;
  (* an unknown ranking backend is a typed error, not a crash *)
  match Handler.tune state { base with Handler.t_rank = Some "nonsense" } with
  | Ok _ -> Alcotest.fail "unknown rank backend must be rejected"
  | Error _ -> ()

let test_predict_timeout_degrades_to_model () =
  (* limit 0 disqualifies every simulation post-hoc, so the fallback
     chain answers with the static model and flags degradation *)
  let state = Handler.create ~sim_timeout_s:0.0 () in
  let req =
    {
      (Handler.predict_defaults ~kernel:"kmeans") with
      Handler.p_backend = "sim";
      p_seed = Some 3;
    }
  in
  match Handler.predict state req with
  | Error msg -> Alcotest.fail msg
  | Ok pr ->
      Alcotest.(check bool) "degraded" true pr.Handler.pr_degraded;
      let model =
        let state = Handler.create () in
        Result.get_ok (Handler.predict state { req with Handler.p_backend = "model" })
      in
      Alcotest.(check (float 0.0)) "model answered"
        model.Handler.pr_verdict.Backend.cycles pr.Handler.pr_verdict.Backend.cycles

(* ------------------------------------------------------------------ *)
(* Shared-state safety: concurrent memoize + journal append from 4
   domains with interleaved (repeated) requests gives exact hit/miss
   counts and a bit-identical argmin versus sequential. *)

let test_concurrent_memo_journal_exact () =
  let e = entry "kmeans" in
  let kernel = e.Sw_workloads.Registry.build ~scale:1.0 in
  let points =
    Sw_tuning.Space.enumerate ~grains:e.Sw_workloads.Registry.grains
      ~unrolls:e.Sw_workloads.Registry.unrolls ()
  in
  let variants = List.map (Sw_tuning.Space.to_variant ~active_cpes:64) points in
  let n = List.length variants in
  let path = Filename.temp_file "serve_memo" ".journal" in
  Sys.remove path;
  (* memo outermost so every duplicate is answered single-flight (exact
     counters under any interleaving); the journal underneath sees each
     distinct key exactly once, appended from whichever domain got
     there first *)
  let jnl = Backend.journal ~path config Backend.simulator in
  let memo = Backend.memoize (Backend.journaled jnl) in
  let b = Backend.memoized memo in
  let jobs = variants @ variants @ variants in
  let pool = Sw_util.Pool.create ~size:4 () in
  let par = Sw_util.Pool.map pool (fun v -> Backend.assess b config kernel v) jobs in
  Backend.journal_close jnl;
  Alcotest.(check int) "misses = distinct keys" n (Backend.memo_misses memo);
  Alcotest.(check int) "hits = duplicates" (2 * n) (Backend.memo_hits memo);
  Alcotest.(check int) "journal appends = distinct keys" n (Backend.journal_misses jnl);
  (* every copy of every verdict is bit-identical to a fresh sequential
     assessment *)
  let seq = List.map (fun v -> Backend.assess Backend.simulator config kernel v) variants in
  let cycles = function Ok v -> v.Backend.cycles | Error _ -> Float.nan in
  List.iteri
    (fun i r ->
      let reference = List.nth seq (i mod n) in
      Alcotest.(check bool)
        (Printf.sprintf "job %d bit-identical" i)
        true
        (Int64.bits_of_float (cycles r) = Int64.bits_of_float (cycles reference)))
    par;
  (* a resumed run replays the whole journal and reaches the same
     argmin without recomputing anything *)
  let jnl2 = Backend.journal ~path config Backend.simulator in
  let b2 = Backend.journaled jnl2 in
  let replayed = List.map (fun v -> Backend.assess b2 config kernel v) variants in
  Backend.journal_close jnl2;
  Sys.remove path;
  Alcotest.(check int) "replay answers everything" n (Backend.journal_hits jnl2);
  let argmin rs =
    List.fold_left
      (fun (best_i, best_c) (i, r) ->
        match r with
        | Ok v when v.Backend.cycles < best_c -> (i, v.Backend.cycles)
        | _ -> (best_i, best_c))
      (-1, Float.infinity)
      (List.mapi (fun i r -> (i, r)) rs)
  in
  let si, sc = argmin seq and ri, rc = argmin replayed in
  Alcotest.(check int) "same argmin index" si ri;
  Alcotest.(check bool) "argmin cycles bit-identical" true
    (Int64.bits_of_float sc = Int64.bits_of_float rc)

(* ------------------------------------------------------------------ *)
(* The server loop over real descriptors *)

let with_temp_dir f =
  let dir = Filename.temp_file "serve_state" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_server_ordering_and_resilience () =
  let lines =
    [
      {|{"id": 1, "op": "ping"}|};
      "this is not json";
      {|{"id": 2, "op": "predict", "kernel": "kmeans"}|};
      "";
      {|{"id": 3, "op": "predict", "kernel": "nope"}|};
      {|{"id": 4, "op": "ping"}|};
    ]
  in
  let responses, stats = run_server lines in
  (* blank line skipped; every other line answered, in order *)
  Alcotest.(check int) "five responses" 5 (List.length responses);
  Alcotest.(check int) "stats agree" 5 stats.Server.served;
  Alcotest.(check int) "two errors (bad json, bad kernel)" 2 stats.Server.errors;
  let ids =
    List.map (fun l -> Option.value (Json.member "id" (parse_resp l)) ~default:Json.Null) responses
  in
  Alcotest.(check (list json)) "ids echoed in request order"
    [ Json.Int 1; Json.Null; Json.Int 2; Json.Int 3; Json.Int 4 ]
    ids;
  let oks =
    List.map (fun l -> Option.bind (Json.member "ok" (parse_resp l)) Json.to_bool) responses
  in
  Alcotest.(check (list (option bool))) "ok flags"
    [ Some true; Some false; Some true; Some false; Some true ]
    oks

(* A scale that is not finite, not positive or too large is a typed
   error on every verb that builds a kernel (a sharded tune included),
   never a minimum-size kernel answered ok; the daemon keeps serving. *)
let test_server_rejects_bad_scales () =
  let bad =
    [
      {|{"op": "predict", "kernel": "vector-add", "scale": -1}|};
      {|{"op": "predict", "kernel": "vector-add", "scale": 1e308, "grain": 4}|};
      {|{"op": "predict", "kernel": "vector-add", "scale": 1e400}|};
      {|{"op": "tune", "kernel": "vector-add", "scale": 0}|};
      {|{"op": "tune", "kernel": "vector-add", "scale": -1, "workers": 2}|};
      {|{"op": "timeline", "kernel": "vector-add", "scale": -0.5}|};
    ]
  in
  let responses, stats = run_server (bad @ [ {|{"op": "ping"}|} ]) in
  Alcotest.(check int) "every line answered" (List.length bad + 1) (List.length responses);
  Alcotest.(check int) "one error per bad scale" (List.length bad) stats.Server.errors;
  List.iteri
    (fun i line ->
      let j = parse_resp line in
      let ok = Option.bind (Json.member "ok" j) Json.to_bool in
      if i < List.length bad then begin
        Alcotest.(check (option bool)) (List.nth bad i) (Some false) ok;
        match Option.bind (Json.member "error" j) Json.to_str with
        | Some msg when String.starts_with ~prefix:"scale " msg -> ()
        | _ -> Alcotest.failf "not a scale error: %s" line
      end
      else Alcotest.(check (option bool)) "still serving" (Some true) ok)
    responses

let test_server_shed_watermark_exact () =
  let lines =
    List.init 5 (fun i ->
        Printf.sprintf {|{"id": %d, "op": "tune", "kernel": "kmeans", "backend": "sim"}|} i)
    @ [ Printf.sprintf {|{"id": 5, "op": "predict", "kernel": "kmeans"}|} ]
  in
  let cfg = { Server.default_config with Server.shed_watermark = 2 } in
  let responses, stats = run_server ~config:cfg lines in
  Alcotest.(check int) "all answered" 6 (List.length responses);
  Alcotest.(check int) "exactly the tunes past the watermark shed" 3 stats.Server.degraded;
  List.iteri
    (fun i line ->
      let j = parse_resp line in
      let degraded = Option.bind (Json.member "degraded" j) Json.to_bool in
      let expect = i >= 2 && i < 5 in
      Alcotest.(check (option bool)) (Printf.sprintf "position %d" i) (Some expect) degraded;
      if expect then
        Alcotest.(check (option json)) "shed tune served by the model" (Some (Json.Str "model"))
          (Option.map
             (fun r -> Option.value (Json.member "backend" r) ~default:Json.Null)
             (Json.member "result" j)))
    responses

let test_server_shutdown_and_pool () =
  let pool = Sw_util.Pool.create ~size:4 () in
  let lines =
    [
      {|{"id": 1, "op": "predict", "kernel": "kmeans", "backend": "sim"}|};
      {|{"id": 2, "op": "predict", "kernel": "nbody", "backend": "sim"}|};
      {|{"op": "shutdown"}|};
      {|{"id": 99, "op": "ping"}|};
    ]
  in
  let responses, stats = run_server lines in
  let pooled_responses, pooled_stats =
    let state = Handler.create () in
    let req_path = Filename.temp_file "serve_req" ".jsonl" in
    let out_path = Filename.temp_file "serve_out" ".jsonl" in
    let oc = open_out req_path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    let input = Unix.openfile req_path [ Unix.O_RDONLY ] 0 in
    let output = open_out out_path in
    let stats = Server.serve ~pool state ~input ~output in
    Unix.close input;
    close_out output;
    let all = In_channel.with_open_bin out_path In_channel.input_all in
    Sys.remove req_path;
    Sys.remove out_path;
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' all), stats)
  in
  Alcotest.(check bool) "shutdown stops the loop" true stats.Server.shutdown;
  (* the shutdown request is answered; the ping after it in the same
     batch is too (the batch completes), but nothing further is read *)
  Alcotest.(check int) "batch completes" 4 (List.length responses);
  Alcotest.(check bool) "pooled shutdown too" true pooled_stats.Server.shutdown;
  (* pooled execution is invisible: same responses in the same order *)
  Alcotest.(check (list json)) "pool(4) bit-identical to sequential"
    (List.map (fun l -> Handler.strip_volatile (parse_resp l)) responses)
    (List.map (fun l -> Handler.strip_volatile (parse_resp l)) pooled_responses)

let test_server_resume_from_request_log () =
  with_temp_dir (fun dir ->
      let tune_line = {|{"id": "t1", "op": "tune", "kernel": "kmeans", "backend": "sim"}|} in
      (* manufacture a crashed session: a begin marker with no end *)
      let log = open_out (Filename.concat dir "requests.jsonl") in
      output_string log
        (Json.to_string
           (Json.Obj
              [ ("rq", Json.Int 1); ("ev", Json.Str "begin"); ("req", Json.Str tune_line) ])
        ^ "\n");
      close_out log;
      let state = Handler.create ~state_dir:dir () in
      let responses, stats = run_server ~state [] in
      Alcotest.(check int) "one replayed response" 1 (List.length responses);
      Alcotest.(check int) "counted as resumed" 1 stats.Server.resumed;
      let j = parse_resp (List.hd responses) in
      Alcotest.(check (option bool)) "marked resumed" (Some true)
        (Option.bind (Json.member "resumed" j) Json.to_bool);
      Alcotest.(check (option bool)) "and ok" (Some true)
        (Option.bind (Json.member "ok" j) Json.to_bool);
      (* the resumed tune ran under an auto-assigned checkpoint *)
      let checkpoints =
        List.filter
          (fun f -> Filename.check_suffix f ".journal")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check int) "auto checkpoint created" 1 (List.length checkpoints);
      (* its best matches the plain one-shot run bit for bit *)
      let oneshot =
        let state = Handler.create () in
        match (run_line state tune_line).Handler.result with
        | Ok payload -> Handler.strip_volatile payload
        | Error msg -> Alcotest.fail msg
      in
      let resumed_payload =
        Handler.strip_volatile (Option.get (Json.member "result" j))
      in
      Alcotest.check json "resumed result = one-shot result" oneshot resumed_payload;
      (* a second start finds the end marker and replays nothing *)
      let responses2, stats2 = run_server ~state:(Handler.create ~state_dir:dir ()) [] in
      Alcotest.(check int) "nothing left to resume" 0 (List.length responses2);
      Alcotest.(check int) "no resumed" 0 stats2.Server.resumed)

let test_server_resume_rebuilds_surrogate_cache () =
  (* models live in process memory, so a crash loses them: recovery
     must drop whatever a prior life cached and retrain from its own
     configuration.  Pre-polluting the cache with another kernel's fit
     and counting fits after the resumed surrogate-ranked tune proves
     the clear happened — only the resumed kernel's fit is counted. *)
  with_temp_dir (fun dir ->
      Sw_learn.Surrogate.clear_cache ();
      let cfd = entry "cfd" in
      let kernel = cfd.Sw_workloads.Registry.build ~scale:0.25 in
      (match
         Backend.assess (Sw_learn.Surrogate.make ()) config kernel
           cfd.Sw_workloads.Registry.variant
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "pre-pollution assessment must succeed");
      let fits0, _ = Sw_learn.Surrogate.cache_stats () in
      Alcotest.(check int) "stale fit in the cache" 1 fits0;
      let tune_line =
        {|{"id": "t1", "op": "tune", "kernel": "kmeans", "scale": 0.25, "backend": "sim", "strategy": "adaptive", "rank": "surrogate", "seed": 11}|}
      in
      let log = open_out (Filename.concat dir "requests.jsonl") in
      output_string log
        (Json.to_string
           (Json.Obj
              [ ("rq", Json.Int 1); ("ev", Json.Str "begin"); ("req", Json.Str tune_line) ])
        ^ "\n");
      close_out log;
      let state = Handler.create ~state_dir:dir () in
      let responses, stats = run_server ~state [] in
      Alcotest.(check int) "one replayed response" 1 (List.length responses);
      Alcotest.(check int) "counted as resumed" 1 stats.Server.resumed;
      let j = parse_resp (List.hd responses) in
      Alcotest.(check (option bool)) "resumed surrogate tune ok" (Some true)
        (Option.bind (Json.member "ok" j) Json.to_bool);
      let fits1, _ = Sw_learn.Surrogate.cache_stats () in
      Alcotest.(check int) "recovery cleared the cache; only the resumed fit counts" 1
        fits1;
      (* and the retrained answer is the one-shot answer, bit for bit on
         the stable fields *)
      let oneshot =
        let state = Handler.create () in
        match (run_line state tune_line).Handler.result with
        | Ok payload -> Handler.strip_volatile payload
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.check json "resumed = one-shot"
        oneshot
        (Handler.strip_volatile (Option.get (Json.member "result" j))))

(* ------------------------------------------------------------------ *)
(* Socket serving: two concurrent connections *)

let send_line fd s =
  let line = s ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

(* one response line, with a deadline: a serialized accept loop makes
   this fail cleanly instead of hanging the suite *)
let recv_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "timed out waiting for a response line"
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> Alcotest.fail "server closed the connection early"
          | _ ->
              if Bytes.get b 0 = '\n' then Buffer.contents buf
              else (
                Buffer.add_char buf (Bytes.get b 0);
                go ()))
  in
  go ()

(* Deadline admission: a budget no estimate fits is refused with the
   typed response before any work runs; a budget only the degraded
   estimate fits is admitted degraded; a roomy budget is untouched. *)
let test_server_deadline_admission () =
  let state = Handler.create () in
  let lines =
    [
      (* tune:static prior 0.1s, degraded prior 0.05s: 1ms fits neither *)
      {|{"id": 1, "op": "tune", "kernel": "kmeans", "deadline_ms": 1}|};
      (* 70ms fits only the degraded estimate *)
      {|{"id": 2, "op": "tune", "kernel": "kmeans", "deadline_ms": 70}|};
      (* 60s fits everything *)
      {|{"id": 3, "op": "tune", "kernel": "kmeans", "deadline_ms": 60000}|};
      (* no deadline: never refused *)
      {|{"id": 4, "op": "ping"}|};
    ]
  in
  let responses, stats = run_server ~state lines in
  Alcotest.(check int) "all four answered" 4 (List.length responses);
  let resp i = parse_resp (List.nth responses i) in
  (* refused: typed, ok=false, marked, and in arrival order *)
  let r1 = resp 0 in
  Alcotest.(check (option json)) "refused id first" (Some (Json.Int 1)) (Json.member "id" r1);
  Alcotest.(check (option bool)) "refused not ok" (Some false)
    (Option.bind (Json.member "ok" r1) Json.to_bool);
  Alcotest.(check (option json)) "typed error" (Some (Json.Str "deadline_exceeded"))
    (Json.member "error" r1);
  Alcotest.(check (option bool)) "refusal marked" (Some true)
    (Option.bind (Json.member "deadline_exceeded" r1) Json.to_bool);
  (* degraded admission: served, marked degraded, not deadline_exceeded *)
  let r2 = resp 1 in
  Alcotest.(check (option bool)) "tight budget served" (Some true)
    (Option.bind (Json.member "ok" r2) Json.to_bool);
  Alcotest.(check (option bool)) "tight budget degraded" (Some true)
    (Option.bind (Json.member "degraded" r2) Json.to_bool);
  (* roomy budget: a plain response, no deadline field at all *)
  let r3 = resp 2 in
  Alcotest.(check (option bool)) "roomy budget served" (Some true)
    (Option.bind (Json.member "ok" r3) Json.to_bool);
  Alcotest.(check (option bool)) "roomy budget not degraded" (Some false)
    (Option.bind (Json.member "degraded" r3) Json.to_bool);
  Alcotest.(check (option json)) "no deadline field when unset" None
    (Json.member "deadline_exceeded" r3);
  Alcotest.(check int) "refusals are not errors-counter errors" 1 stats.Server.errors;
  let counter name = Sw_obs.Sink.counter (Handler.sink state) name in
  Alcotest.(check (float 0.)) "refusal counted" 1. (counter "serve.deadline_exceeded");
  Alcotest.(check (float 0.)) "degradation counted" 1. (counter "serve.deadline_degraded");
  (* pre-registered at zero even though nothing quarantined *)
  Alcotest.(check (float 0.)) "quarantine counter exists" 0. (counter "shard.quarantined");
  Alcotest.(check bool) "counters rendered" true
    (let text = Handler.metrics_text state in
     let contains needle =
       let nh = String.length text and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
       nn = 0 || go 0
     in
     List.for_all contains
       [
         "serve_deadline_exceeded";
         "serve_deadline_degraded";
         "serve_deadline_missed";
         "shard_restarts";
         "shard_quarantined";
         "link_lines_dropped";
         "memo_cutoff_hits";
         "timeline_hits";
         "timeline_misses";
       ])

(* A client that hangs up between sending a request and receiving its
   response costs the daemon one dropped connection, never the loop:
   later clients are served normally. *)
let test_server_socket_client_disconnect () =
  let path = Filename.temp_file "serve_sock_epipe" ".sock" in
  Sys.remove path;
  let state = Handler.create () in
  let server = Domain.spawn (fun () -> Server.serve_socket state ~path) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* the doomed client: ask for real work, vanish before the answer *)
  let doomed = connect () in
  send_line doomed {|{"id": "gone", "op": "tune", "kernel": "kmeans"}|};
  Unix.close doomed;
  (* the daemon must still be there for the next client *)
  let a = connect () in
  send_line a {|{"id": "alive", "op": "ping"}|};
  Alcotest.(check (option json)) "daemon survives the dead client" (Some (Json.Str "alive"))
    (Json.member "id" (parse_resp (recv_line a)));
  send_line a {|{"id": "bye", "op": "shutdown"}|};
  ignore (recv_line a);
  let stats = Domain.join server in
  Unix.close a;
  Alcotest.(check bool) "shutdown stopped the loop" true stats.Server.shutdown;
  Alcotest.(check bool) "disconnect counted" true
    (Sw_obs.Sink.counter (Handler.sink state) "serve.client_disconnects" >= 1.)

let test_server_socket_two_clients () =
  let path = Filename.temp_file "serve_sock" ".sock" in
  Sys.remove path;
  let state = Handler.create () in
  let server = Domain.spawn (fun () -> Server.serve_socket state ~path) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let a = connect () in
  let b = connect () in
  let id_of line = Json.member "id" (parse_resp line) in
  (* the second connection is served while the first sits idle
     mid-session — queued-behind-EOF serving would time out here *)
  send_line b {|{"id": "b1", "op": "ping"}|};
  Alcotest.(check (option json)) "pending client served" (Some (Json.Str "b1"))
    (id_of (recv_line b));
  (* and the first connection still works, interleaved *)
  send_line a {|{"id": "a1", "op": "ping"}|};
  Alcotest.(check (option json)) "first client interleaved" (Some (Json.Str "a1"))
    (id_of (recv_line a));
  send_line b {|{"id": "b2", "op": "ping"}|};
  Alcotest.(check (option json)) "second round-trip" (Some (Json.Str "b2"))
    (id_of (recv_line b));
  (* shutdown from either client stops the whole loop *)
  send_line a {|{"id": "a2", "op": "shutdown"}|};
  Alcotest.(check (option json)) "shutdown acknowledged" (Some (Json.Str "a2"))
    (id_of (recv_line a));
  let stats = Domain.join server in
  Unix.close a;
  Unix.close b;
  Alcotest.(check bool) "shutdown stopped the loop" true stats.Server.shutdown;
  Alcotest.(check int) "four responses served" 4 stats.Server.served;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* A client that keeps sending cannot starve another: a turn serves
   each ready client at most one batch, starting after the client served
   last.  Client [a] pipelines a slow request and a flood of pings;
   while the daemon works on the slow one, [b] asks for metrics.  The
   responses counted when [b] is answered are the two handshakes plus at
   most one batch of [a]'s; serving the first ready client first would
   answer the whole flood before [b]. *)
let test_server_socket_round_robin () =
  let path = Filename.temp_file "serve_sock_rr" ".sock" in
  Sys.remove path;
  let state = Handler.create () in
  let server = Domain.spawn (fun () -> Server.serve_socket state ~path) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let a = connect () in
  let b = connect () in
  (* both connections accepted before the flood *)
  send_line a {|{"id": "a0", "op": "ping"}|};
  ignore (recv_line a);
  send_line b {|{"id": "b0", "op": "ping"}|};
  ignore (recv_line b);
  let flood = 200 in
  let burst =
    String.concat ""
      (({|{"id": "slow", "op": "predict", "kernel": "kmeans", "backend": "sim", "scale": 64}|}
        ^ "\n")
      :: List.init flood (fun i -> Printf.sprintf {|{"id": %d, "op": "ping"}|} i ^ "\n"))
  in
  let rec write_all off =
    if off < String.length burst then
      write_all (off + Unix.write_substring a burst off (String.length burst - off))
  in
  write_all 0;
  send_line b {|{"id": "b1", "op": "metrics"}|};
  let resp = parse_resp (recv_line b) in
  let text =
    match Option.bind (Json.member "result" resp) (Json.member "text") with
    | Some (Json.Str t) -> t
    | _ -> Alcotest.fail "metrics response has no text"
  in
  let responses =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "swpm_serve_responses"; n ] -> float_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let bound = 2 + Server.default_config.Server.queue_capacity in
  (match responses with
  | Some n when int_of_float n <= bound -> ()
  | Some n -> Alcotest.failf "b answered after %.0f responses (at most %d when fair)" n bound
  | None -> Alcotest.fail "no swpm_serve_responses in the metrics");
  (* a's flood is still answered in full *)
  for _ = 0 to flood do
    ignore (recv_line a)
  done;
  send_line b {|{"id": "bye", "op": "shutdown"}|};
  ignore (recv_line b);
  let stats = Domain.join server in
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "every request answered" (flood + 5) stats.Server.served

let tests =
  ( "serve",
    [
      Alcotest.test_case "json builder/parser round-trips" `Quick test_json_roundtrip;
      Alcotest.test_case "json float literals round-trip (qcheck)" `Quick
        test_json_roundtrip_qcheck;
      Alcotest.test_case "json unicode escapes decode" `Quick test_json_parse_unicode;
      Alcotest.test_case "json parser rejects, accessors total" `Quick test_json_parse_errors;
      Alcotest.test_case "render_metrics exact text" `Quick test_render_metrics;
      Alcotest.test_case "render_metrics merges collisions" `Quick
        test_render_metrics_collisions;
      Alcotest.test_case "metrics --trace restates live metrics" `Quick test_metrics_of_trace;
      Alcotest.test_case "parse_request applies CLI defaults" `Quick
        test_parse_request_defaults;
      Alcotest.test_case "parse_request readable errors" `Quick test_parse_request_errors;
      Alcotest.test_case "request keys ignore id and checkpoint" `Quick test_request_key;
      Alcotest.test_case "strip_volatile is recursive" `Quick test_strip_volatile;
      Alcotest.test_case "every response validates and round-trips" `Quick
        test_every_response_validates;
      Alcotest.test_case "daemon result = one-shot result" `Quick test_daemon_equals_oneshot;
      Alcotest.test_case "warm adaptive tune counts = cold" `Quick
        test_warm_adaptive_counts_match_cold;
      Alcotest.test_case "memo cache survives across requests" `Quick
        test_shared_memo_across_requests;
      Alcotest.test_case "repeated tunes validate from the memo" `Quick
        test_repeated_tunes_hit_the_memo;
      Alcotest.test_case "interned kernels = fresh kernels, every kernel" `Quick
        test_interned_kernels_match_fresh;
      Alcotest.test_case "timeline table hits and misses" `Quick test_timeline_table;
      Alcotest.test_case "traced timeline records its spans" `Quick
        test_traced_timeline_records_spans;
      Alcotest.test_case "timeline table is bounded" `Quick test_timeline_table_is_bounded;
      Alcotest.test_case "cached timelines keep the cold estimate" `Quick
        test_cached_timelines_keep_cold_estimate;
      Alcotest.test_case "degraded tune sheds to the model" `Quick
        test_degraded_tune_uses_model;
      Alcotest.test_case "surrogate-ranked tune via the handler" `Quick
        test_surrogate_ranked_tune_through_handler;
      Alcotest.test_case "predict timeout degrades to the model" `Quick
        test_predict_timeout_degrades_to_model;
      Alcotest.test_case "concurrent memoize+journal is exact (4 domains)" `Quick
        test_concurrent_memo_journal_exact;
      Alcotest.test_case "server answers in order, survives bad input" `Quick
        test_server_ordering_and_resilience;
      Alcotest.test_case "server rejects out-of-range scales" `Quick
        test_server_rejects_bad_scales;
      Alcotest.test_case "server sheds exactly past the watermark" `Quick
        test_server_shed_watermark_exact;
      Alcotest.test_case "server shutdown; pool(4) bit-identical" `Quick
        test_server_shutdown_and_pool;
      Alcotest.test_case "server resumes an interrupted tune" `Quick
        test_server_resume_from_request_log;
      Alcotest.test_case "crash recovery rebuilds the surrogate cache" `Quick
        test_server_resume_rebuilds_surrogate_cache;
      Alcotest.test_case "socket serves two concurrent clients" `Quick
        test_server_socket_two_clients;
      Alcotest.test_case "socket serves ready clients round-robin" `Quick
        test_server_socket_round_robin;
      Alcotest.test_case "deadline admission refuses, degrades, admits" `Quick
        test_server_deadline_admission;
      Alcotest.test_case "dead client drops the connection, not the daemon" `Quick
        test_server_socket_client_disconnect;
    ] )
