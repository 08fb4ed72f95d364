(* perfbench: the layered tuning benchmark driver.

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  --expected FILE --swmodel EXE --work DIR [--trace-out FILE]
     main.exe expected            # regenerate expected.json on stdout
     main.exe setup --seed N      # one tune-shard set-up
     main.exe shard-worker --spec JSON      # traced shard worker

   [run] prints one JSON line: {"correct", "attempted", "failed",
   "metrics"}.  perfbench/run.py builds this program and swmodel, runs
   it, and adds the peak RSS of the process tree. *)

module H = Sw_serve.Handler
module B = Sw_backend.Backend
module Json = Sw_obs.Json
module Sink = Sw_obs.Sink
module Tuner = Sw_tuning.Tuner
module Registry = Sw_workloads.Registry
module L = Perfbench.Layers
module Gen = Perfbench.Gen

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let sum = List.fold_left ( +. ) 0.0

let quantile q l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let geomean l = exp (sum (List.map log l) /. float_of_int (List.length l))
let pct a b = if b = 0.0 then 0.0 else 100.0 *. a /. b

(* Children (daemons) killed and reaped on any exit path. *)
let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let reap pid =
  ignore (Unix.waitpid [] pid);
  children := List.filter (( <> ) pid) !children

(* --- results ------------------------------------------------------- *)

type report = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let report () = { attempted = 0; failed = 0; problems = [] }
let problem r fmt = Printf.ksprintf (fun s -> r.problems <- s :: r.problems) fmt

let fail r fmt =
  Printf.ksprintf
    (fun s ->
      r.failed <- r.failed + 1;
      r.problems <- s :: r.problems)
    fmt

let emit r metrics =
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev r.problems);
  let metrics =
    List.map
      (fun (name, unit_, v) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit_) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.problems = []));
            ("attempted", Json.Int (Stdlib.max 1 r.attempted));
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj metrics);
          ]))

let ok_pct r = pct (float_of_int (r.attempted - r.failed)) (float_of_int r.attempted)

(* --- shared helpers ------------------------------------------------- *)

let tune_req line =
  match H.parse_request line with
  | Ok { H.verb = H.Tune t; _ } -> t
  | Ok _ -> die "not a tune request: %s" line
  | Error e -> die "bad request %s: %s" line e

let entry t = Registry.find_exn t.H.t_kernel

let points t =
  match H.tune_points t (entry t) with Ok p -> p | Error e -> die "%s: %s" t.H.t_kernel e

let config t = match H.tune_config t with Ok c -> c | Error e -> die "%s" e
let seed_of t = Option.value t.H.t_seed ~default:0

let variant_key (v : Sw_swacc.Kernel.variant) =
  Printf.sprintf "%d/%d/%b" v.Sw_swacc.Kernel.grain v.Sw_swacc.Kernel.unroll
    v.Sw_swacc.Kernel.double_buffer

let cold_caches () =
  Sw_swacc.Lower.clear_cache ();
  Sw_isa.Schedule.clear_cache ();
  Sw_sim.Engine.clear_compile_cache ();
  Sw_learn.Surrogate.clear_cache ()

let member_path j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let num j k = Option.bind (Json.member k j) Json.to_float

(* Compare one tune outcome with its expected-outputs entry. *)
let check_outcome r ~expected ~section ~name t (o : Tuner.outcome) =
  match member_path expected [ section; name; string_of_int (seed_of t) ] with
  | None -> problem r "%s/%s seed %d: no expected entry" section name (seed_of t)
  | Some e ->
      let best = Option.bind (Json.member "best" e) Json.to_str in
      if best <> Some (variant_key o.Tuner.best) then
        problem r "%s: argmin %s, expected %s" name (variant_key o.Tuner.best)
          (Option.value best ~default:"?");
      if num e "best_cycles" <> Some o.Tuner.best_cycles then
        problem r "%s: best_cycles %.17g differs from expected" name o.Tuner.best_cycles

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* [f ()] with the (hits, misses) it added to the lowering cache and to
   the block-schedule cache. *)
let with_cache_stats f =
  let delta stats f =
    let h0, m0 = stats () in
    let r = f () in
    let h1, m1 = stats () in
    (r, (h1 - h0, m1 - m0))
  in
  let (r, sched), lower =
    delta Sw_swacc.Lower.cache_stats (fun () -> delta Sw_isa.Schedule.cache_stats f)
  in
  (r, lower, sched)

(* Self-time bookkeeping for one traced run. *)
let layer_cats = [ "backend.sim"; "lower"; "sim"; "backend.model"; "summarize"; "predict";
                   "parse"; "encode"; "run.predict"; "run.tune"; "run.timeline" ]

let per_call (t : L.totals) cat scale =
  let n = L.calls t cat in
  if n = 0 then 0.0 else L.get t.L.dur_us cat /. float_of_int n *. scale

let reconcile r (t : L.totals) ~capacity_us =
  let layered = sum (List.map (L.get t.L.self_us) layer_cats) in
  let other = capacity_us -. layered in
  if t.L.negative > 0 then problem r "trace: %d spans overran their parent" t.L.negative;
  if other < -1e-6 *. capacity_us then
    problem r "trace: layer self times %.0f us exceed the traced total %.0f us" layered capacity_us;
  prerr_endline
    (Printf.sprintf "perfbench: reconcile: %s + other %.0f us = %.0f us"
       (String.concat " + "
          (List.map (fun c -> Printf.sprintf "%s %.0f" c (L.get t.L.self_us c)) layer_cats))
       other capacity_us);
  pct other capacity_us

let write_trace r sink path =
  match path with
  | None -> ()
  | Some p -> (
      Sw_obs.Chrome.write p sink;
      match Json.validate_file p with
      | Ok () -> ()
      | Error e -> problem r "chrome trace %s does not validate: %s" p e)

(* Every per-layer metric, with the workload's values filled in and 0
   for a layer the workload does not exercise. *)
let per_layer_names =
  [
    ("sim.events", "count"); ("sim.ns_per_event", "ns"); ("sim.share_pct", "%");
    ("lower.us_per_call", "us"); ("lower.cache_hit_pct", "%"); ("summarize.us_per_call", "us");
    ("schedule.cache_hit_pct", "%"); ("predict.us_per_call", "us");
    ("backend.sim.ms_per_assess", "ms"); ("backend.model.us_per_assess", "us");
    ("memo.hit_pct", "%"); ("journal.append_us_per_line", "us"); ("journal.merge_ms", "ms");
    ("journal.replay_hit_pct", "%"); ("search.us_per_point", "us");
    ("search.rank_share_pct", "%"); ("search.overhead_us_per_point", "us");
    ("search.priced_per_attempt", "ratio"); ("shard.parallel_eff", "ratio");
    ("shard.restarts", "count"); ("link.lines_dropped", "count");
    ("shard.adaptive_overrun_x", "x"); ("surrogate.fit_ms", "ms");
    ("serve.service_ms_p50", "ms"); ("serve.wait_ms_p50", "ms"); ("serve.parse_us", "us");
    ("serve.encode_us", "us"); ("serve.degraded_pct", "%"); ("serve.caller_skew_x", "x"); ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count"); ("trace.overhead_pct", "%"); ("trace.other_pct", "%");
  ]

let layer_metrics values =
  List.map
    (fun (name, unit_) -> (name, unit_, Option.value (List.assoc_opt name values) ~default:0.0))
    per_layer_names

(* Layer metrics shared by every workload, from span totals. *)
let span_metrics (t : L.totals) ~events ~capacity_us ~lower ~sched =
  let hit (h, m) = pct (float_of_int h) (float_of_int (h + m)) in
  [
    ("sim.events", events);
    ("sim.ns_per_event", if events = 0.0 then 0.0 else L.get t.L.self_us "sim" *. 1000.0 /. events);
    ("sim.share_pct", pct (L.get t.L.self_us "sim") capacity_us);
    ("lower.us_per_call", per_call t "lower" 1.0);
    ("lower.cache_hit_pct", hit lower);
    ("summarize.us_per_call", per_call t "summarize" 1.0);
    ("schedule.cache_hit_pct", hit sched);
    ("predict.us_per_call", per_call t "predict" 1.0);
    ("backend.sim.ms_per_assess", per_call t "backend.sim" 1e-3);
    ("backend.model.us_per_assess", per_call t "backend.model" 1.0);
  ]

(* Search metrics over a set of outcomes (all in one traced pass). *)
let search_metrics (t : L.totals) ~capacity_us ~points (os : Tuner.outcome list) =
  let host = sum (List.map (fun o -> o.Tuner.tuning_host_s) os) in
  let assess = L.get t.L.dur_us "backend.sim" +. L.get t.L.dur_us "backend.model" in
  let fpoints = float_of_int points in
  [
    ("search.us_per_point", host *. 1e6 /. fpoints);
    ("search.rank_share_pct", pct (sum (List.map (fun o -> o.Tuner.rank_host_s) os)) host);
    ("search.overhead_us_per_point", (capacity_us -. assess) /. fpoints);
    ( "search.priced_per_attempt",
      float_of_int (List.fold_left (fun a o -> a + o.Tuner.evaluated) 0 os) /. fpoints );
  ]

(* --- tune-shard ----------------------------------------------------- *)

let tune_setup jobs () =
  ignore (H.create ());
  List.iter
    (fun (_, t) ->
      ignore ((entry t).Registry.build ~scale:t.H.t_scale);
      let pts = points t in
      if t.H.t_workers > 1 then
        for shard = 0 to t.H.t_workers - 1 do
          ignore (Sw_tuning.Shard.mine ~shard ~shards:t.H.t_workers pts)
        done)
    jobs

(* tune-shard's set-up is what a CLI user pays before the first
   assessment: process start, handler state, kernel builds, space
   enumeration and the shard partition, timed in a fresh process
   ([main.exe setup]). *)
let setup_time ~seed =
  let exe = Sys.executable_name in
  snd
    (time (fun () ->
         let pid =
           Unix.create_process exe
             [| exe; "setup"; "--seed"; string_of_int seed |]
             Unix.stdin Unix.stdout Unix.stderr
         in
         match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _ -> die "set-up process failed"))

let run_job r ?sink ~pool ~check (name, t) =
  (* every job starts on a compacted heap, as in a fresh CLI process *)
  Gc.compact ();
  let st = H.create ?sink () in
  r.attempted <- r.attempted + 1;
  let res, dt = time (fun () -> H.tune st ~pool t) in
  match res with
  | Ok tr ->
      if tr.H.tr_degraded then fail r "%s: degraded" name;
      check name t tr.H.tr_outcome;
      Some (tr.H.tr_outcome, dt)
  | Error e ->
      fail r "%s: %s" name e;
      None

let shard_paths t =
  match t.H.t_checkpoint with
  | Some cp -> List.init t.H.t_workers (fun i -> Printf.sprintf "%s.shard%dof%d" cp i t.H.t_workers)
  | None -> []

let remove_journals jobs =
  List.iter (fun (_, t) -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (shard_paths t)) jobs

(* Model error at every job's pick: the model's prediction for the
   chosen variant against its simulated [best_cycles].  Which points a
   sharded shortlist verifies depends on cutoff races; the picks do not. *)
let pick_model_error jobs (os : Tuner.outcome list) =
  if List.length os <> List.length jobs then nan (* a failed job is already reported *)
  else
  List.map2
    (fun (_, t) (o : Tuner.outcome) ->
      (config t, (entry t).Registry.build ~scale:t.H.t_scale, o.Tuner.best, o.Tuner.best_cycles))
    jobs os
  |> L.model_error

let worker_out_var = "PERFBENCH_WORKER_OUT"

let read_worker_summaries dir =
  let files = Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".json") in
  List.map
    (fun f ->
      let p = Filename.concat dir f in
      let j = match Json.parse_file p with Ok j -> j | Error e -> die "%s: %s" p e in
      Sys.remove p;
      j)
    files

let run_tune_shard ~seed ~seconds ~trace ~trace_out ~expected ~swmodel =
  let jobs = List.map (fun (j : Gen.job) -> (j.Gen.name, tune_req j.Gen.line)) (Gen.tune_shard_jobs ~seed) in
  let r = report () in
  let pool = Sw_util.Pool.sequential in
  let check name t o = check_outcome r ~expected ~section:"tune-shard" ~name t o in
  let with_cp round jobs =
    List.map
      (fun (name, t) ->
        (name, { t with H.t_checkpoint = Some (Printf.sprintf "r%d-%s.j" round name) }))
      jobs
  in
  let check_shard name t (o : Tuner.outcome) =
    if o.Tuner.quarantined <> [] then fail r "%s: shards quarantined" name;
    check name t o
  in
  let pass jobs =
    let outs = List.filter_map (run_job r ~pool ~check:check_shard) jobs in
    (outs, sum (List.map snd outs))
  in
  Unix.putenv "SWPM_WORKER_EXE" swmodel;
  if not trace then begin
    (* Every pass times two set-ups, then runs each job cold and again
       at once against the journals it just wrote.  Each pass starts one
       job later in the list, so every job meets the host at several
       points of the run.  Times are medians over the passes (per job,
       summed over the list). *)
    let n = List.length jobs in
    let cold = Array.make n [] and warm = Array.make n [] and first = Array.make n None in
    let setups = ref [] in
    (* passes repeat while the next one, as long as the last, still
       fits in the run's time *)
    let t0 = now () and round = ref 0 and last = ref 0.0 in
    while !round = 0 || now () -. t0 +. !last <= seconds do
      let t1 = now () in
      setups := setup_time ~seed :: setup_time ~seed :: !setups;
      let cps = Array.of_list (with_cp !round jobs) in
      for k = 0 to n - 1 do
        let i = (k + !round) mod n in
        match run_job r ~pool ~check:check_shard cps.(i) with
        | None -> ()
        | Some (o, dt) -> (
            if !round = 0 then first.(i) <- Some o;
            cold.(i) <- dt :: cold.(i);
            match run_job r ~pool ~check:check_shard cps.(i) with
            | Some (_, rdt) -> warm.(i) <- rdt :: warm.(i)
            | None -> ())
      done;
      remove_journals (Array.to_list cps);
      last := now () -. t1;
      incr round
    done;
    let os = List.filter_map Fun.id (Array.to_list first) in
    let per_job a = List.map median (Array.to_list a) in
    let tune_s = sum (per_job cold) in
    (* latency: each job's median; a list has only a handful of jobs, so
       the p99 reads as the slowest job's typical latency *)
    let lats = List.map (( *. ) 1000.0) (per_job cold) in
    emit r
      [
        ("setup_s", "s", median !setups);
        ("tune_s", "s", tune_s);
        ("resume_s", "s", sum (per_job warm));
        ("tuned_speedup", "x", geomean (List.map (fun o -> o.Tuner.speedup) os));
        ("machine_s", "s", sum (List.map (fun o -> o.Tuner.machine_time_us) os) /. 1e6);
        ("model_err_pct", "%", pick_model_error jobs os);
        ("req_per_s", "1/s", float_of_int n /. tune_s);
        ("lat_p50_ms", "ms", median lats);
        ("lat_p99_ms", "ms", quantile 0.99 lats);
        ("ok_pct", "%", ok_pct r);
      ]
  end
  else begin
    let base_jobs = with_cp 0 jobs in
    let _, base = pass base_jobs in
    remove_journals base_jobs;
    (* traced: this executable is the shard worker, writing its own span
       totals next to the journals *)
    let out_dir = Filename.concat (Sys.getcwd ()) "workers" in
    Unix.mkdir out_dir 0o755;
    Unix.putenv worker_out_var out_dir;
    Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
    let sink = Sink.create () in
    let jobs = with_cp 1 jobs in
    let gc0 = gc_counters () in
    let outs =
      List.filter_map
        (fun ((name, _) as job) ->
          Sink.with_span sink ~cat:"job" name (fun () ->
              run_job r ~sink ~pool ~check:check_shard job))
        jobs
    in
    let traced = sum (List.map snd outs) in
    let gc1 = gc_counters () in
    Unix.putenv worker_out_var "";
    let summaries = read_worker_summaries out_dir in
    let t = L.totals () in
    let sumf k = sum (List.map (fun j -> Option.value (num j k) ~default:0.0) summaries) in
    let sumi k = int_of_float (sumf k) in
    List.iter (fun j -> L.add_totals ~into:t (L.totals_of_json j)) summaries;
    let capacity_us = 2.0 *. traced *. 1e6 in
    let other = reconcile r t ~capacity_us in
    (* the workers' layer totals go into the trace as counters *)
    Hashtbl.iter (fun cat v -> Sink.add sink ("worker." ^ cat ^ ".self_us") v) t.L.self_us;
    let os = List.map fst outs in
    (* the journal layer, timed by the bench: one merge per job, and a
       fresh journal appended with the backprop job's merged lines *)
    let merges =
      List.map
        (fun (_, t) ->
          snd (time (fun () -> ignore (B.journal_merge ~config:(config t) (shard_paths t)))))
        jobs
    in
    let append_us =
      let _, t = List.find (fun (_, t) -> t.H.t_kernel = "backprop") jobs in
      let config = config t in
      let kernel = (entry t).Registry.build ~scale:t.H.t_scale in
      let merged = B.journal_merge ~config (shard_paths t) in
      let module Stub = struct
        let name = "journaled-stub"
        let description = "replays merged journal entries"

        let assess ?cutoff:_ ?event_budget:_ _ _ variant =
          match Hashtbl.find_opt merged (B.journal_key_of kernel variant) with
          | Some (B.Journal_ok { cycles; _ }) ->
              B.Assessed { B.cycles; cost = B.zero_cost; breakdown = None }
          | _ -> B.Infeasible { B.backend = name; reason = "infeasible" }
      end in
      let j = B.journal ~path:"append.j" config (module Stub : B.S) in
      let variants =
        List.map (fun p -> Sw_tuning.Space.to_variant p ~active_cpes:64) (points t)
      in
      let _, dt =
        time (fun () -> List.iter (fun v -> ignore (B.assess (B.journaled j) config kernel v)) variants)
      in
      B.journal_close j;
      dt *. 1e6 /. float_of_int (List.length variants)
    in
    let resumed, _ = pass jobs in
    let hits = List.fold_left (fun a (o, _) -> a + o.Tuner.journal_hits) 0 resumed in
    let misses = List.fold_left (fun a (o, _) -> a + o.Tuner.journal_misses) 0 resumed in
    remove_journals jobs;
    (* Known defect 1: a sharded adaptive search can verify its whole
       shard.  Machine time sharded / in-process, 1 when healthy. *)
    Unix.putenv "SWPM_WORKER_EXE" swmodel;
    let overrun =
      let t =
        tune_req
          {|{"op":"tune","kernel":"cfd","backend":"sim","strategy":"adaptive","rank":"model","shortlist":16,"grains":"1..1024","unrolls":"1..4","db_both":true,"seed":1,"checkpoint":"adaptive.j"}|}
      in
      let machine t =
        match H.tune (H.create ()) ~pool:(Sw_util.Pool.create ~size:2 ()) t with
        | Ok tr -> tr.H.tr_outcome.Tuner.machine_time_us
        | Error e ->
            problem r "adaptive overrun probe: %s" e;
            nan
      in
      let sharded = machine { t with H.t_workers = 2 } in
      remove_journals [ ("adaptive", { t with H.t_workers = 2 }) ];
      sharded /. machine { t with H.t_checkpoint = None }
    in
    let npoints = List.fold_left (fun a (_, t) -> a + List.length (points t)) 0 jobs in
    let host = sum (List.map (fun o -> o.Tuner.tuning_host_s) os) in
    let values =
      span_metrics t ~events:(sumf "events") ~capacity_us
        ~lower:(sumi "lower_hits", sumi "lower_misses")
        ~sched:(sumi "sched_hits", sumi "sched_misses")
      @ search_metrics t ~capacity_us ~points:npoints os
      @ [
          ("journal.append_us_per_line", append_us);
          ("journal.merge_ms", median merges *. 1000.0);
          ("journal.replay_hit_pct", pct (float_of_int hits) (float_of_int (hits + misses)));
          ( "shard.parallel_eff",
            sum (List.map (fun o -> o.Tuner.tuning_cpu_s) os) /. (2.0 *. host) );
          ("shard.restarts", float_of_int (List.fold_left (fun a o -> a + o.Tuner.restarts) 0 os));
          ( "link.lines_dropped",
            float_of_int (List.fold_left (fun a o -> a + o.Tuner.link_lines_dropped) 0 os) );
          ("shard.adaptive_overrun_x", overrun);
          ("gc.minor_mwords", (fst gc1 -. fst gc0) /. 1e6);
          ("gc.major_collections", float_of_int (snd gc1 - snd gc0));
          ("trace.overhead_pct", pct (traced -. base) base);
          ("trace.other_pct", other);
        ]
    in
    write_trace r sink trace_out;
    emit r (layer_metrics values)
  end

(* The traced shard worker: the library's worker entry point with the
   replica backends installed, span totals written on exit. *)
let shard_worker spec =
  let sink = Sink.create () in
  L.install_replicas sink;
  let res, lower, sched =
    with_cache_stats (fun () ->
        Sink.with_span sink ~cat:"worker" "worker" (fun () -> H.worker_main spec))
  in
  (match Sys.getenv_opt worker_out_var with
  | Some dir when dir <> "" ->
      let t = L.self_times (Sink.spans sink) in
      let fields =
        match L.totals_to_json t with Json.Obj f -> f | _ -> []
      in
      let j =
        Json.Obj
          (fields
          @ [
              ("events", Json.Float (Sink.counter sink "sim.events"));
              ("lower_hits", Json.Int (fst lower));
              ("lower_misses", Json.Int (snd lower));
              ("sched_hits", Json.Int (fst sched));
              ("sched_misses", Json.Int (snd sched));
            ])
      in
      let p = Filename.concat dir (Printf.sprintf "%d.json" (Unix.getpid ())) in
      let oc = open_out (p ^ ".tmp") in
      output_string oc (Json.to_string j);
      close_out oc;
      Sys.rename (p ^ ".tmp") p
  | _ -> ());
  match res with Ok () -> exit 0 | Error e -> die "shard-worker: %s" e

(* --- serve-mix ------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let hangup c = try close_in c.ic with Sys_error _ -> ()

let rec connect_retry path deadline =
  try connect path
  with Unix.Unix_error _ when now () < deadline ->
    Unix.sleepf 0.005;
    connect_retry path deadline

let launch_daemon ~swmodel k =
  let sock = Printf.sprintf "serve%d.sock" k in
  let out = Unix.openfile (Printf.sprintf "daemon%d.log" k) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process swmodel
      [| swmodel; "serve"; "--socket"; sock; "--state"; Printf.sprintf "state%d" k |]
      Unix.stdin out out
  in
  Unix.close out;
  children := pid :: !children;
  (pid, sock)

let response_ok line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "ok" j) Json.to_bool = Some true
  | Error _ -> false

let stop_daemon (pid, sock) =
  let c = connect sock in
  ignore (call c {|{"op":"shutdown"}|});
  hangup c;
  reap pid

type sample = { line : string; sent : float; lat : float; resp : string }

(* One closed-loop caller on one connection: it sends its next request
   when the previous answer is back. *)
let drive sock lines =
  let c = connect sock in
  let t0 = now () in
  let samples =
    List.map
      (fun line ->
        let sent = now () in
        let resp = call c line in
        { line; sent; lat = now () -. sent; resp })
      lines
  in
  let wall = now () -. t0 in
  hangup c;
  (samples, wall)

let json_of line = match Json.parse line with Ok j -> j | Error e -> die "bad json %s: %s" line e

let result_num resp k =
  Option.bind (Json.member "result" (json_of resp)) (fun r -> num r k)

let op_of line = Option.bind (Json.member "op" (json_of line)) Json.to_str

(* serve-mix runs in epochs, each on a freshly launched daemon: set-up,
   the request list, then the same list again.  Epochs repeat while the
   next one, as long as the last, still fits in the run's time; there
   are at least [min_epochs] of them (one for the traced run, which
   replays the first).  Set-up is the median over epochs; the list
   times are means over epochs, i.e. the run's total list time per
   epoch; latency percentiles pool every epoch's samples. *)
let min_epochs = 3
let per_lane = 120

let run_serve ~seed ~seconds ~trace ~trace_out ~swmodel =
  let r = report () in
  let lines = Gen.serve_mix ~seed ~per_lane in
  let warmup = Gen.serve_warmup ~seed in
  (* set-up: launch to first ping reply, then the warm-up requests *)
  let setup k =
    let t0 = now () in
    let d = launch_daemon ~swmodel k in
    let c = connect_retry (snd d) (now () +. 60.0) in
    if not (response_ok (call c {|{"op":"ping"}|})) then die "daemon did not answer ping";
    List.iter
      (fun l -> if not (response_ok (call c l)) then die "warm-up request failed: %s" l)
      warmup;
    hangup c;
    (d, now () -. t0)
  in
  let memo_counts daemon =
    let c = connect (snd daemon) in
    let resp = json_of (call c {|{"op":"metrics"}|}) in
    hangup c;
    let text =
      Option.value ~default:"" (Option.bind (member_path resp [ "result"; "text" ]) Json.to_str)
    in
    let value name =
      List.find_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ n; v ] when n = name -> float_of_string_opt v
          | _ -> None)
        (String.split_on_char '\n' text)
      |> Option.value ~default:0.0
    in
    (value "swpm_memo_hits", value "swpm_memo_misses")
  in
  let epoch k =
    let d, setup_s = setup k in
    let h0, m0 = memo_counts d in
    let cold, wall = drive (snd d) lines in
    let h1, m1 = memo_counts d in
    let _, rwall = drive (snd d) lines in
    stop_daemon d;
    (setup_s, cold, wall, rwall, (h1 -. h0, m1 -. m0))
  in
  let runs =
    let t0 = now () in
    let rec go k last acc =
      if (trace && k = 1) || (k >= min_epochs && now () -. t0 +. last > seconds) then List.rev acc
      else
        let t1 = now () in
        let e = epoch k in
        go (k + 1) (now () -. t1) (e :: acc)
    in
    go 0 0.0 []
  in
  let mean l = sum l /. float_of_int (List.length l) in
  let setup_s = median (List.map (fun (s, _, _, _, _) -> s) runs) in
  let wall = mean (List.map (fun (_, _, w, _, _) -> w) runs) in
  let rwall = mean (List.map (fun (_, _, _, w, _) -> w) runs) in
  let all_cold = List.concat_map (fun (_, c, _, _, _) -> c) runs in
  let _, cold, _, _, (memo_hits, memo_misses) = List.hd runs in
  (* checks, outside the timed region *)
  List.iter
    (fun s ->
      r.attempted <- r.attempted + 1;
      let j = json_of s.resp in
      if Option.bind (Json.member "ok" j) Json.to_bool <> Some true then
        fail r "request %s failed: %s" s.line s.resp
      else if Option.bind (Json.member "degraded" j) Json.to_bool = Some true then
        fail r "request %s degraded" s.line)
    all_cold;
  let arr = Array.of_list cold in
  let rng = Sw_util.Prng.create (seed + 101) in
  let sample = List.init 20 (fun _ -> arr.(Sw_util.Prng.int rng (Array.length arr))) in
  let st = H.create () in
  let strip j = Json.to_string (H.strip_volatile j) in
  List.iter
    (fun s ->
      match H.parse_request s.line with
      | Error e -> problem r "request does not parse: %s" e
      | Ok req ->
          let mine = strip (H.response_to_json (H.run st req)) in
          if mine <> strip (json_of s.resp) then
            problem r "daemon answer differs from in-process Handler.run for %s" s.line)
    sample;
  let tunes = List.filter (fun s -> op_of s.line = Some "tune") cold in
  let speedups = List.filter_map (fun s -> result_num s.resp "speedup") tunes in
  let machine =
    sum
      (List.filter_map
         (fun s ->
           match op_of s.line with
           | Some "predict" -> result_num s.resp "machine_us"
           | Some "tune" -> result_num s.resp "machine_time_us"
           | _ -> None)
         cold)
    /. 1e6
  in
  (* model error over the distinct simulator predicts *)
  let sim_predicts =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           let j = json_of s.line in
           if op_of s.line = Some "predict"
              && Option.bind (Json.member "backend" j) Json.to_str = Some "sim"
           then
             match H.parse_request s.line, result_num s.resp "cycles" with
             | Ok { H.verb = H.Predict p; _ }, Some cycles -> Some (p, cycles)
             | _ -> None
           else None)
         cold)
  in
  let err =
    L.model_error
      (List.filter_map
         (fun ((p : H.predict_req), cycles) ->
           match H.predict_config p with
           | Ok config ->
               let e = Registry.find_exn p.H.p_kernel in
               let kernel = e.Registry.build ~scale:p.H.p_scale in
               let base = e.Registry.variant in
               let v =
                 {
                   base with
                   Sw_swacc.Kernel.grain = Option.value p.H.p_grain ~default:base.Sw_swacc.Kernel.grain;
                   unroll = Option.value p.H.p_unroll ~default:base.Sw_swacc.Kernel.unroll;
                   double_buffer = p.H.p_db;
                 }
               in
               Some (config, kernel, v, cycles)
           | Error _ -> None)
         sim_predicts)
  in
  let lats = List.map (fun s -> s.lat *. 1000.0) all_cold in
  let n = float_of_int (List.length cold) in
  (* per-class latency, for reading where the percentiles fall *)
  List.iter
    (fun c ->
      let l = List.filter_map (fun s -> if Gen.class_of_line s.line = c then Some (s.lat *. 1000.0) else None) all_cold in
      if l <> [] then
        prerr_endline
          (Printf.sprintf "perfbench: %-24s n=%4d p50=%8.3f ms p99=%8.3f ms" c (List.length l)
             (median l) (quantile 0.99 l)))
    Gen.classes;
  if not trace then
    emit r
      [
        ("setup_s", "s", setup_s);
        ("tune_s", "s", wall);
        ("resume_s", "s", rwall);
        ("tuned_speedup", "x", geomean speedups);
        ("machine_s", "s", machine);
        ("model_err_pct", "%", err);
        ("req_per_s", "1/s", n /. wall);
        ("lat_p50_ms", "ms", median lats);
        ("lat_p99_ms", "ms", quantile 0.99 lats);
        ("ok_pct", "%", ok_pct r);
      ]
  else begin
    (* the learned layer: one fit per kernel, on cold caches *)
    let cfg = Gen.serve_seed ~seed in
    let config =
      { (Sw_sim.Config.default Sw_arch.Params.default) with Sw_sim.Config.seed = cfg }
    in
    Sw_learn.Surrogate.clear_cache ();
    let fits =
      List.map
        (fun k ->
          let kernel = (Registry.find_exn k).Registry.build ~scale:1.0 in
          snd (time (fun () -> ignore (Sw_learn.Surrogate.model_for config kernel ~active_cpes:64))))
        Gen.serve_kernels
    in
    (* replay the daemon's arrival order in-process: once plain for
       service times, once traced for the layer split *)
    let order = List.sort (fun a b -> compare a.sent b.sent) cold in
    let replay ?sink () =
      let st = H.create () in
      let exec line =
        let req = match H.parse_request line with Ok q -> q | Error e -> die "%s" e in
        ignore (H.response_to_string (H.run st req))
      in
      List.iter exec warmup;
      List.map
        (fun s ->
          match sink with
          | None -> snd (time (fun () -> exec s.line))
          | Some sink ->
              snd
                (time (fun () ->
                     Sink.with_span sink ~cat:"request" "request" (fun () ->
                         let req =
                           L.span "parse" (fun () -> H.parse_request s.line)
                           |> function Ok q -> q | Error e -> die "%s" e
                         in
                         let op = match op_of s.line with Some o -> o | None -> "other" in
                         let resp = L.span ("run." ^ op) (fun () -> H.run st req) in
                         ignore (L.span "encode" (fun () -> H.response_to_string resp))))))
        order
    in
    cold_caches ();
    let service = replay () in
    let sink = Sink.create () in
    L.install_replicas sink;
    let gc0 = gc_counters () in
    cold_caches ();
    let traced, lower, sched = with_cache_stats (fun () -> replay ~sink ()) in
    let gc1 = gc_counters () in
    let t = L.self_times (Sink.spans sink) in
    let busy = sum traced in
    let capacity_us = busy *. 1e6 in
    let other = reconcile r t ~capacity_us in
    let base = sum service in
    let waits = List.map2 (fun s svc -> (s.lat -. svc) *. 1000.0) order service in
    let tune_outcomes =
      List.filter_map (fun s -> Option.bind (Json.member "result" (json_of s.resp)) Option.some) tunes
    in
    let tnum k = sum (List.filter_map (fun j -> num j k) tune_outcomes) in
    let tpoints = tnum "evaluated" +. tnum "infeasible" +. tnum "pruned" in
    let degraded =
      List.length
        (List.filter
           (fun s -> Option.bind (Json.member "degraded" (json_of s.resp)) Json.to_bool = Some true)
           all_cold)
    in
    let assess = L.get t.L.dur_us "backend.sim" +. L.get t.L.dur_us "backend.model" in
    (* Known defect 4: the socket server serves the first connected
       client whenever its next line is ready, so a second caller can
       wait through many of the first one's requests.  Two callers send
       the same list of memo-hit predicts at once; the slower caller's
       mean latency over the faster one's is 1 when the server takes
       turns. *)
    let caller_skew =
      let d, _ = setup 99 in
      let lines = List.concat (List.init 20 (fun _ -> warmup)) in
      let means = Array.make 2 nan in
      let callers =
        List.init 2 (fun i ->
            Thread.create
              (fun () ->
                let samples, _ = drive (snd d) lines in
                means.(i) <- mean (List.map (fun s -> s.lat) samples))
              ())
      in
      List.iter Thread.join callers;
      stop_daemon d;
      Float.max means.(0) means.(1) /. Float.min means.(0) means.(1)
    in
    let values =
      span_metrics t ~events:(Sink.counter sink "sim.events") ~capacity_us ~lower ~sched
      @ [
          ("memo.hit_pct", pct memo_hits (memo_hits +. memo_misses));
          ("serve.caller_skew_x", caller_skew);
          ( "journal.replay_hit_pct",
            pct (tnum "journal_hits") (tnum "journal_hits" +. tnum "journal_misses") );
          ("search.us_per_point", tnum "tuning_host_s" *. 1e6 /. tpoints);
          ("search.rank_share_pct", pct (tnum "rank_host_s") (tnum "tuning_host_s"));
          ("search.overhead_us_per_point", (capacity_us -. assess) /. tpoints);
          ("search.priced_per_attempt", tnum "evaluated" /. tpoints);
          ("surrogate.fit_ms", median fits *. 1000.0);
          ("serve.service_ms_p50", median service *. 1000.0);
          ("serve.wait_ms_p50", median waits);
          ("serve.parse_us", per_call t "parse" 1.0);
          ("serve.encode_us", per_call t "encode" 1.0);
          ("serve.degraded_pct", pct (float_of_int degraded) (float_of_int (List.length all_cold)));
          ("gc.minor_mwords", (fst gc1 -. fst gc0) /. 1e6);
          ("gc.major_collections", float_of_int (snd gc1 - snd gc0));
          ("trace.overhead_pct", pct (busy -. base) base);
          ("trace.other_pct", other);
        ]
    in
    write_trace r sink trace_out;
    emit r (layer_metrics values)
  end

(* --- expected outputs ------------------------------------------------ *)

let expected () =
  let pool = Sw_util.Pool.create ~size:2 () in
  let job (name, fields) =
    ( name,
      Json.Obj
        (List.map
           (fun seed ->
             let t = tune_req (Gen.job_line ~name ~sim_seed:seed ~extra:[] fields) in
             cold_caches ();
             let o =
               match H.tune (H.create ()) ~pool t with
               | Ok tr -> tr.H.tr_outcome
               | Error e -> die "%s: %s" name e
             in
             prerr_endline (Printf.sprintf "expected: %s seed %d done" name seed);
             ( string_of_int seed,
               Json.Obj
                 [
                   ("best", Json.Str (variant_key o.Tuner.best));
                   ("best_cycles", Json.Float o.Tuner.best_cycles);
                 ] ))
           Gen.sim_seeds) )
  in
  (* the sharded jobs' expected argmins are the in-process ones *)
  print_endline
    (Json.to_string (Json.Obj [ ("tune-shard", Json.Obj (List.map job Gen.tune_shard_specs)) ]))

(* --- command line --------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let opt name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req name = match opt name with Some v -> v | None -> die "missing %s" name in
  match args with
  | "shard-worker" :: _ -> shard_worker (req "--spec")
  | "expected" :: _ -> expected ()
  | "setup" :: _ ->
      let jobs = Gen.tune_shard_jobs ~seed:(int_of_string (req "--seed")) in
      tune_setup (List.map (fun (j : Gen.job) -> (j.Gen.name, tune_req j.Gen.line)) jobs) ()
  | "run" :: _ ->
      let workload = req "--workload" in
      let seed = int_of_string (req "--seed") in
      let seconds = float_of_string (req "--seconds") in
      let trace = req "--trace" = "1" in
      let expected =
        match Json.parse_file (req "--expected") with Ok j -> j | Error e -> die "%s" e
      in
      let swmodel = req "--swmodel" in
      let trace_out = opt "--trace-out" in
      let work = req "--work" in
      (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Sys.chdir work;
      (match workload with
      | "tune-shard" -> run_tune_shard ~seed ~seconds ~trace ~trace_out ~expected ~swmodel
      | "serve-mix" -> run_serve ~seed ~seconds ~trace ~trace_out ~swmodel
      | w -> die "unknown workload %S (tune-shard, serve-mix)" w)
  | _ -> die "usage: main.exe run|expected|setup|shard-worker ..."
