module Json = Sw_obs.Json
module Backend = Sw_backend.Backend

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shared state *)

(* Fixed-size tables that forget their oldest entry first. *)
module Kernel_memo = Sw_util.Memo.Make (struct
  type t = string * int64

  let equal = ( = )
  let hash = Hashtbl.hash
end)

module Timeline_memo = Sw_util.Memo.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let kernel_slots = 64
let timeline_slots = 64

type state = {
  sink : Sw_obs.Sink.t;
  state_dir : string option;
  sim_timeout_s : float option;
  lock : Mutex.t;
  backends : (string, Backend.t) Hashtbl.t;  (* canonical name -> shared memo *)
  estimates : (string, float) Hashtbl.t;  (* service class -> EWMA host seconds *)
  kernels : Sw_swacc.Kernel.t Kernel_memo.t;  (* (name, scale bits) -> kernel *)
  timelines : Json.t Timeline_memo.t;  (* canonical request, seed resolved -> payload *)
}

let create ?sink ?state_dir ?sim_timeout_s () =
  (* the learned backend lives in a library nothing here references by
     module path, so its registration must be forced: every entry point
     that builds a handler gets "surrogate" in the registry *)
  Sw_learn.Surrogate.install ();
  {
    sink = (match sink with Some s -> s | None -> Sw_obs.Sink.create ());
    state_dir;
    sim_timeout_s;
    lock = Mutex.create ();
    backends = Hashtbl.create 8;
    estimates = Hashtbl.create 8;
    kernels = Kernel_memo.create kernel_slots;
    timelines = Timeline_memo.create timeline_slots;
  }

let sink state = state.sink
let state_dir state = state.state_dir

(* One memoizing wrapper per canonical backend name, created on first
   use and shared by every later request: the process-wide verdict
   cache that makes a long-running server cheaper than one-shot CLI
   calls.  The memo itself is single-flight and mutex-guarded, so
   handing the same instance to several pool domains is safe. *)
let backend state name =
  match Backend.find name with
  | None ->
      Error
        (Printf.sprintf "unknown backend %S (available: %s)" name
           (String.concat ", " (Backend.registered ())))
  | Some b ->
      let canonical = Backend.name b in
      Mutex.lock state.lock;
      let shared =
        match Hashtbl.find_opt state.backends canonical with
        | Some shared -> shared
        | None ->
            let shared = Backend.memoized (Backend.memoize ~sink:state.sink b) in
            Hashtbl.add state.backends canonical shared;
            shared
      in
      Mutex.unlock state.lock;
      Ok (canonical, shared)

(* ------------------------------------------------------------------ *)
(* Requests *)

type predict_req = {
  p_kernel : string;
  p_scale : float;
  p_cgs : int;
  p_grain : int option;
  p_unroll : int option;
  p_cpes : int option;
  p_db : bool;
  p_backend : string;
  p_seed : int option;
  p_faults : int option;
  p_fault_level : string;
}

type tune_req = {
  t_kernel : string;
  t_scale : float;
  t_backend : string;
  t_strategy : string;
  t_rank : string option;
  t_shortlist : int;
  t_rungs : int;
  t_robust : int;
  t_seed : int option;
  t_faults : int option;
  t_fault_level : string;
  t_checkpoint : string option;
  t_workers : int;
  t_max_restarts : int;
  t_hang_timeout_s : float option;
  t_grains : string option;
  t_unrolls : string option;
  t_db_both : bool;
}

type timeline_req = {
  l_kernel : string;
  l_scale : float;
  l_grain : int option;
  l_unroll : int option;
  l_cpes : int option;
  l_db : bool;
  l_seed : int option;
  l_faults : int option;
  l_fault_level : string;
}

type verb =
  | Ping
  | Metrics
  | Shutdown
  | Predict of predict_req
  | Tune of tune_req
  | Timeline of timeline_req

type request = { id : Json.t; verb : verb; deadline_ms : int option }

let predict_defaults ~kernel =
  {
    p_kernel = kernel;
    p_scale = 1.0;
    p_cgs = 1;
    p_grain = None;
    p_unroll = None;
    p_cpes = None;
    p_db = false;
    p_backend = "model";
    p_seed = None;
    p_faults = None;
    p_fault_level = "mild";
  }

let tune_defaults ~kernel =
  {
    t_kernel = kernel;
    t_scale = 1.0;
    t_backend = "model";
    t_strategy = "exhaustive";
    t_rank = None;
    t_shortlist = 0;
    t_rungs = 3;
    t_robust = 0;
    t_seed = None;
    t_faults = None;
    t_fault_level = "mild";
    t_checkpoint = None;
    t_workers = 1;
    t_max_restarts = 2;
    t_hang_timeout_s = None;
    t_grains = None;
    t_unrolls = None;
    t_db_both = false;
  }

let timeline_defaults ~kernel =
  {
    l_kernel = kernel;
    l_scale = 1.0;
    l_grain = None;
    l_unroll = None;
    l_cpes = None;
    l_db = false;
    l_seed = None;
    l_faults = None;
    l_fault_level = "mild";
  }

(* --- wire parsing ------------------------------------------------- *)

let field name conv expected j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S: expected %s" name expected))

let opt_str name j = field name Json.to_str "a string" j
let opt_int name j = field name Json.to_int "an integer" j
let opt_num name j = field name Json.to_float "a number" j
let opt_bool name j = field name Json.to_bool "a boolean" j
let dflt d r = Result.map (fun o -> Option.value o ~default:d) r

let req_kernel j =
  match Json.member "kernel" j with
  | None -> Error "missing field \"kernel\""
  | Some v -> (
      match Json.to_str v with
      | Some s -> Ok s
      | None -> Error "field \"kernel\": expected a string")

let parse_predict j =
  let* p_kernel = req_kernel j in
  let* p_scale = dflt 1.0 (opt_num "scale" j) in
  let* p_cgs = dflt 1 (opt_int "cgs" j) in
  let* p_grain = opt_int "grain" j in
  let* p_unroll = opt_int "unroll" j in
  let* p_cpes = opt_int "cpes" j in
  let* p_db = dflt false (opt_bool "double_buffer" j) in
  let* p_backend = dflt "model" (opt_str "backend" j) in
  let* p_seed = opt_int "seed" j in
  let* p_faults = opt_int "faults" j in
  let* p_fault_level = dflt "mild" (opt_str "fault_level" j) in
  Ok
    {
      p_kernel;
      p_scale;
      p_cgs;
      p_grain;
      p_unroll;
      p_cpes;
      p_db;
      p_backend;
      p_seed;
      p_faults;
      p_fault_level;
    }

let parse_tune j =
  let* t_kernel = req_kernel j in
  let* t_scale = dflt 1.0 (opt_num "scale" j) in
  let* t_backend = dflt "model" (opt_str "backend" j) in
  let* t_strategy = dflt "exhaustive" (opt_str "strategy" j) in
  let* t_rank = opt_str "rank" j in
  let* t_shortlist = dflt 0 (opt_int "shortlist" j) in
  let* t_rungs = dflt 3 (opt_int "rungs" j) in
  let* t_robust = dflt 0 (opt_int "robust" j) in
  let* t_seed = opt_int "seed" j in
  let* t_faults = opt_int "faults" j in
  let* t_fault_level = dflt "mild" (opt_str "fault_level" j) in
  let* t_checkpoint = opt_str "checkpoint" j in
  let* t_workers = dflt 1 (opt_int "workers" j) in
  let* t_max_restarts = dflt 2 (opt_int "max_restarts" j) in
  let* t_hang_timeout_s = opt_num "hang_timeout_s" j in
  let* t_grains = opt_str "grains" j in
  let* t_unrolls = opt_str "unrolls" j in
  let* t_db_both = dflt false (opt_bool "db_both" j) in
  Ok
    {
      t_kernel;
      t_scale;
      t_backend;
      t_strategy;
      t_rank;
      t_shortlist;
      t_rungs;
      t_robust;
      t_seed;
      t_faults;
      t_fault_level;
      t_checkpoint;
      t_workers;
      t_max_restarts;
      t_hang_timeout_s;
      t_grains;
      t_unrolls;
      t_db_both;
    }

let parse_timeline j =
  let* l_kernel = req_kernel j in
  let* l_scale = dflt 1.0 (opt_num "scale" j) in
  let* l_grain = opt_int "grain" j in
  let* l_unroll = opt_int "unroll" j in
  let* l_cpes = opt_int "cpes" j in
  let* l_db = dflt false (opt_bool "double_buffer" j) in
  let* l_seed = opt_int "seed" j in
  let* l_faults = opt_int "faults" j in
  let* l_fault_level = dflt "mild" (opt_str "fault_level" j) in
  Ok { l_kernel; l_scale; l_grain; l_unroll; l_cpes; l_db; l_seed; l_faults; l_fault_level }

let parse_request line =
  let* j = Json.parse line in
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  let* op =
    match Json.member "op" j with
    | None -> Error "missing field \"op\""
    | Some v -> (
        match Json.to_str v with
        | Some s -> Ok s
        | None -> Error "field \"op\": expected a string")
  in
  let* verb =
    match op with
    | "ping" -> Ok Ping
    | "metrics" -> Ok Metrics
    | "shutdown" -> Ok Shutdown
    | "predict" -> Result.map (fun r -> Predict r) (parse_predict j)
    | "tune" -> Result.map (fun r -> Tune r) (parse_tune j)
    | "timeline" -> Result.map (fun r -> Timeline r) (parse_timeline j)
    | other ->
        Error
          (Printf.sprintf
             "unknown op %S (available: ping, metrics, shutdown, predict, tune, timeline)" other)
  in
  let* deadline_ms =
    let* d = opt_int "deadline_ms" j in
    match d with
    | Some ms when ms <= 0 -> Error "field \"deadline_ms\": expected a positive integer"
    | d -> Ok d
  in
  Ok { id; verb; deadline_ms }

let is_tune r = match r.verb with Tune _ -> true | _ -> false

let with_checkpoint r path =
  match r.verb with
  | Tune ({ t_checkpoint = None; _ } as t) ->
      { r with verb = Tune { t with t_checkpoint = Some path } }
  | _ -> r

(* --- canonical form ----------------------------------------------- *)

let jopt f = function None -> Json.Null | Some x -> f x
let jint i = Json.Int i
let jstr s = Json.Str s

let verb_to_json = function
  | Ping -> Json.Obj [ ("op", jstr "ping") ]
  | Metrics -> Json.Obj [ ("op", jstr "metrics") ]
  | Shutdown -> Json.Obj [ ("op", jstr "shutdown") ]
  | Predict p ->
      Json.Obj
        [
          ("op", jstr "predict");
          ("kernel", jstr p.p_kernel);
          ("scale", Json.Float p.p_scale);
          ("cgs", jint p.p_cgs);
          ("grain", jopt jint p.p_grain);
          ("unroll", jopt jint p.p_unroll);
          ("cpes", jopt jint p.p_cpes);
          ("double_buffer", Json.Bool p.p_db);
          ("backend", jstr p.p_backend);
          ("seed", jopt jint p.p_seed);
          ("faults", jopt jint p.p_faults);
          ("fault_level", jstr p.p_fault_level);
        ]
  | Tune t ->
      (* Space overrides change what work is requested, so they belong
         in the canonical form — but only when non-default, so every
         pre-override request keeps the key (and hence the checkpoint
         path) it always had. *)
      let space_overrides =
        (match t.t_grains with None -> [] | Some g -> [ ("grains", jstr g) ])
        @ (match t.t_unrolls with None -> [] | Some u -> [ ("unrolls", jstr u) ])
        @ if t.t_db_both then [ ("db_both", Json.Bool true) ] else []
      in
      Json.Obj
        ([
           ("op", jstr "tune");
           ("kernel", jstr t.t_kernel);
           ("scale", Json.Float t.t_scale);
           ("backend", jstr t.t_backend);
           ("strategy", jstr t.t_strategy);
           ("rank", jopt jstr t.t_rank);
           ("shortlist", jint t.t_shortlist);
           ("rungs", jint t.t_rungs);
           ("robust", jint t.t_robust);
           ("seed", jopt jint t.t_seed);
           ("faults", jopt jint t.t_faults);
           ("fault_level", jstr t.t_fault_level);
         ]
        @ space_overrides)
  | Timeline l ->
      Json.Obj
        [
          ("op", jstr "timeline");
          ("kernel", jstr l.l_kernel);
          ("scale", Json.Float l.l_scale);
          ("grain", jopt jint l.l_grain);
          ("unroll", jopt jint l.l_unroll);
          ("cpes", jopt jint l.l_cpes);
          ("double_buffer", Json.Bool l.l_db);
          ("seed", jopt jint l.l_seed);
          ("faults", jopt jint l.l_faults);
          ("fault_level", jstr l.l_fault_level);
        ]

(* The tune checkpoint is deliberately left out of [verb_to_json]: the
   key must not depend on it, or an auto-assigned checkpoint (derived
   from the key) would change the key.  [t_workers] is left out for the
   same family of reason — how many processes search does not change
   what is searched, and a tune resumed with a different worker count
   must find the same checkpoint journals.  [t_max_restarts] /
   [t_hang_timeout_s] (supervision policy) and the request-level
   [deadline_ms] (admission policy) are likewise execution knobs, not
   part of what is computed. *)
let request_key r = Digest.to_hex (Digest.string (Json.to_string (verb_to_json r.verb)))

(* ------------------------------------------------------------------ *)
(* Responses *)

type response = {
  id : Json.t;
  degraded : bool;
  resumed : bool;
  deadline_exceeded : bool;
  result : (Json.t, string) result;
}

let response_to_json r =
  (* [deadline_exceeded] is rendered only when set so every pre-deadline
     response (and its golden transcript) is byte-identical to before *)
  let deadline = if r.deadline_exceeded then [ ("deadline_exceeded", Json.Bool true) ] else [] in
  match r.result with
  | Ok payload ->
      Json.Obj
        ([
           ("id", r.id);
           ("ok", Json.Bool true);
           ("degraded", Json.Bool r.degraded);
           ("resumed", Json.Bool r.resumed);
         ]
        @ deadline
        @ [ ("result", payload) ])
  | Error msg ->
      Json.Obj
        ([ ("id", r.id); ("ok", Json.Bool false) ] @ deadline @ [ ("error", Json.Str msg) ])

let response_to_string r = Json.to_string (response_to_json r)

let error_response ?(resumed = false) id msg =
  { id; degraded = false; resumed; deadline_exceeded = false; result = Error msg }

let deadline_response ?(resumed = false) id =
  {
    id;
    degraded = false;
    resumed;
    deadline_exceeded = true;
    result = Error "deadline_exceeded";
  }

(* ------------------------------------------------------------------ *)
(* Execution *)

let fault_spec_of level =
  match Sw_fault.Fault.of_string level with
  | Some spec -> Ok spec
  | None -> Error (Printf.sprintf "unknown fault level %S (available: none, mild, harsh)" level)

(* Mirrors the CLI's historical --seed/--faults semantics without
   touching the process-wide PRNG: the config's own seed is all the
   simulator reads, so setting it directly gives bit-identical results
   while letting concurrent requests carry different seeds. *)
let config_of ~cgs ~seed ~faults ~fault_level =
  if cgs < 1 || cgs > 4 then Error (Printf.sprintf "cgs %d out of range (1-4)" cgs)
  else
    let params = Sw_arch.Params.with_cgs Sw_arch.Params.default cgs in
    let config =
      {
        (Sw_sim.Config.default params) with
        Sw_sim.Config.seed = Option.value seed ~default:(Sw_util.Prng.global_seed ());
      }
    in
    match faults with
    | None -> Ok config
    | Some fseed ->
        let* spec = fault_spec_of fault_level in
        Ok (Sw_fault.Fault.plan ~spec ~seed:fseed config)

let predict_config p =
  config_of ~cgs:p.p_cgs ~seed:p.p_seed ~faults:p.p_faults ~fault_level:p.p_fault_level

let tune_config t =
  config_of ~cgs:1 ~seed:t.t_seed ~faults:t.t_faults ~fault_level:t.t_fault_level

let timeline_config l =
  config_of ~cgs:1 ~seed:l.l_seed ~faults:l.l_faults ~fault_level:l.l_fault_level

let entry_of name =
  match Sw_workloads.Registry.find name with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown kernel %S (available: %s)" name
           (String.concat ", " (Sw_workloads.Registry.names ())))

(* One kernel value per (kernel, scale) for the state's lifetime: the
   lowering, shape, block and engine compile caches key on a kernel's
   physical identity, so a kernel rebuilt per request would never hit
   them across requests.  Racing requests may both build one, but the
   first stored wins and both get it.  A scale that
   [Registry.check_scale] rejects builds nothing. *)
let kernel state (entry : Sw_workloads.Registry.entry) ~scale =
  let* () = Sw_workloads.Registry.check_scale scale in
  Ok
    (Kernel_memo.memo state.kernels
       (entry.Sw_workloads.Registry.name, Int64.bits_of_float scale)
       (fun () -> entry.Sw_workloads.Registry.build ~scale))

let variant_of (entry : Sw_workloads.Registry.entry) grain unroll cpes db =
  let base = entry.variant in
  {
    Sw_swacc.Kernel.grain = Option.value grain ~default:base.Sw_swacc.Kernel.grain;
    unroll = Option.value unroll ~default:base.Sw_swacc.Kernel.unroll;
    active_cpes = Option.value cpes ~default:base.Sw_swacc.Kernel.active_cpes;
    double_buffer = db || base.Sw_swacc.Kernel.double_buffer;
  }

(* --- predict ------------------------------------------------------ *)

type predict_result = {
  pr_backend : string;
  pr_variant : Sw_swacc.Kernel.variant;
  pr_verdict : Backend.verdict;
  pr_degraded : bool;
}

let simulating = function "sim" | "hybrid" -> true | _ -> false

let predict state ?obs p =
  let* entry = entry_of p.p_kernel in
  let* config = predict_config p in
  let* kernel = kernel state entry ~scale:p.p_scale in
  let variant = variant_of entry p.p_grain p.p_unroll p.p_cpes p.p_db in
  let* canonical, shared = backend state p.p_backend in
  (* The timeout chain degrades an over-budget simulation to the model
     — the cheap backend kept hot for exactly this (the serve overload
     policy).  The local sink tells us whether this particular request
     degraded; its counters then merge into the shared sink. *)
  let chain, local =
    match state.sim_timeout_s with
    | Some limit_s when simulating canonical ->
        let local = Sw_obs.Sink.create () in
        let model =
          match backend state "model" with Ok (_, m) -> m | Error _ -> Backend.static_model
        in
        ( Backend.fallback ~sink:local
            [ Backend.with_timeout ~sink:local ~limit_s shared; model ],
          Some local )
    | _ -> (shared, None)
  in
  let chain = match obs with Some s -> Backend.instrument s chain | None -> chain in
  let outcome = Backend.assess chain config kernel variant in
  let degraded =
    match local with
    | None -> false
    | Some l ->
        let pairs = Sw_obs.Sink.counters l in
        List.iter (fun (k, v) -> Sw_obs.Sink.add state.sink k v) pairs;
        List.exists
          (fun (k, v) -> v > 0.0 && String.starts_with ~prefix:"backend.degraded." k)
          pairs
  in
  match outcome with
  | Ok v ->
      Ok { pr_backend = canonical; pr_variant = variant; pr_verdict = v; pr_degraded = degraded }
  | Error { Backend.backend = b; reason } ->
      Error (Printf.sprintf "%s rejects %s: %s" b p.p_kernel reason)

(* --- tune --------------------------------------------------------- *)

type tune_result = {
  tr_backend : string;
  tr_outcome : Sw_tuning.Tuner.outcome;
  tr_degraded : bool;
}

(* The one place a tune request becomes a search: its backend and rank
   backend resolved through this state's shared memo (so a surrogate
   ranker trains once per process, not once per request) and its
   strategy over [n_points] points.  The in-process tune, the sharded
   coordinator (which resolves up front so a typo surfaces as a
   readable request error, not as N worker failures) and every shard
   worker go through here, so all of them name the strategy
   identically. *)
let resolve_search state t ~n_points =
  let* canonical, shared = backend state t.t_backend in
  let* rank =
    match t.t_rank with
    | None -> Ok None
    | Some name ->
        let* _, r = backend state name in
        Ok (Some r)
  in
  let k = if t.t_shortlist > 0 then t.t_shortlist else Stdlib.max 1 (n_points / 4) in
  let* strategy =
    if t.t_robust > 0 || t.t_strategy = "robust" then
      let n = if t.t_robust > 0 then t.t_robust else 8 in
      let* spec = fault_spec_of t.t_fault_level in
      Ok (Sw_tuning.Search.robust ?rank ~k ~seeds:(List.init n (fun i -> 1 + i)) ~spec ())
    else
      match t.t_strategy with
      | "exhaustive" -> Ok Sw_tuning.Search.exhaustive
      | "shortlist" -> Ok (Sw_tuning.Search.shortlist ?rank ~k ())
      | "adaptive" | "adaptive-shortlist" -> Ok (Sw_tuning.Search.adaptive_shortlist ?rank ~k ())
      | "halving" | "successive-halving" ->
          Ok (Sw_tuning.Search.successive_halving ~rungs:t.t_rungs)
      | s ->
          Error
            (Printf.sprintf
               "unknown strategy %S (available: exhaustive, shortlist, adaptive, halving, robust)" s)
  in
  Ok (canonical, shared, strategy)

(* The one place the search space is built: the registry entry's axes,
   each optionally overridden by a request axis spec (Space.parse_axis
   syntax).  CLI tune, daemon tune, and every shard worker call this,
   so all of them enumerate the exact same points in the exact same
   order — the property the sharded argmin proof rests on.  A sharded
   tune passes the axes on and never builds the whole space: the
   coordinator folds over it and each worker builds only its share. *)
let tune_axes t (entry : Sw_workloads.Registry.entry) =
  let axis name dflt = function
    | None -> Ok dflt
    | Some spec -> (
        match Sw_tuning.Space.parse_axis spec with
        | Ok vs -> Ok vs
        | Error msg -> Error (Printf.sprintf "axis %S: %s" name msg))
  in
  let* grains = axis "grains" entry.Sw_workloads.Registry.grains t.t_grains in
  let* unrolls = axis "unrolls" entry.Sw_workloads.Registry.unrolls t.t_unrolls in
  let double_buffers = if t.t_db_both then [ false; true ] else [ false ] in
  Ok { Sw_tuning.Space.grains; unrolls; double_buffers }

let tune_points t entry =
  let* { Sw_tuning.Space.grains; unrolls; double_buffers } = tune_axes t entry in
  Ok (Sw_tuning.Space.enumerate ~grains ~unrolls ~double_buffers ())

(* --- sharded dispatch --------------------------------------------- *)

let worker_exe () =
  match Sys.getenv_opt "SWPM_WORKER_EXE" with
  | Some exe when exe <> "" -> exe
  | _ -> Sys.executable_name

(* One worker's complete marching orders, as a single JSON argument:
   the tune request in canonical form (Null fields dropped so the spec
   re-parses through [parse_tune]) plus its shard coordinates and
   journal path.  The seed is resolved before the spec is built, so
   the worker's journal binds to byte-identical config regardless of
   either process's global PRNG state. *)
let resolve_seed t =
  { t with t_seed = Some (Option.value t.t_seed ~default:(Sw_util.Prng.global_seed ())) }

let worker_spec t ~shard ~shards ~journal =
  let fields =
    match verb_to_json (Tune t) with
    | Json.Obj fields -> List.filter (fun (_, v) -> v <> Json.Null) fields
    | other -> [ ("req", other) ]
  in
  Json.to_string
    (Json.Obj
       (fields
       @ [ ("shard", Json.Int shard); ("shards", Json.Int shards); ("journal", jstr journal) ]
       ))

let worker_argv t ~shard ~shards ~journal =
  [| worker_exe (); "shard-worker"; "--spec"; worker_spec t ~shard ~shards ~journal |]

let shard_journals t ~workers =
  match t.t_checkpoint with
  | Some path ->
      Array.init workers (fun shard -> Printf.sprintf "%s.shard%dof%d" path shard workers)
  | None ->
      Array.init workers (fun shard ->
          Filename.temp_file (Printf.sprintf "swpm-shard%dof%d-" shard workers) ".journal")

(* The validating machine of every in-process and sharded tune: this
   state's shared [memo(sim)], so a repeated tune answers its pick and
   default from the memo, and a ["sim"] tune's pick is the verdict its
   own search just stored. *)
let machine state =
  match backend state "sim" with Ok (_, m) -> m | Error _ -> Backend.simulator

let tune state ?(degrade = false) ?pool ?obs t =
  let* entry = entry_of t.t_kernel in
  let* config = tune_config t in
  let* kernel = kernel state entry ~scale:t.t_scale in
  let* ({ Sw_tuning.Space.grains; unrolls; double_buffers } as axes) = tune_axes t entry in
  let n_points = Sw_tuning.Space.size ~grains ~unrolls ~double_buffers () in
  let* canonical, shared, strategy =
    if degrade then
      (* Overload shedding: whatever was asked for, answer with the
         cheapest credible search — model-only shortlist scoring over a
         quarter of the space.  The response is marked degraded. *)
      let* canonical, shared = backend state "model" in
      Ok (canonical, shared, Sw_tuning.Search.shortlist ~k:(Stdlib.max 1 (n_points / 4)) ())
    else resolve_search state t ~n_points
  in
  let* outcome =
    if degrade || t.t_workers <= 1 then
      Sw_tuning.Tuner.tune ~backend:shared ~machine:(machine state) ~strategy ?pool ?obs
        ?checkpoint:t.t_checkpoint config kernel
        ~points:(Sw_tuning.Space.enumerate ~grains ~unrolls ~double_buffers ())
      |> Result.map_error (fun (`No_feasible_point msg) -> msg)
    else
      let t = resolve_seed t in
      let workers = t.t_workers in
      let journals = shard_journals t ~workers in
      let result =
        Sw_tuning.Tuner.tune_sharded ~backend_name:canonical
          ~strategy_name:(Sw_tuning.Search.name strategy) ~workers
          ~argv:(fun ~shard ~journal -> worker_argv t ~shard ~shards:workers ~journal)
          ~journal_of:(fun shard -> journals.(shard))
          ~machine:(machine state) ~max_restarts:t.t_max_restarts
          ?hang_timeout_s:t.t_hang_timeout_s config kernel ~axes
      in
      (* ephemeral journals only: a --checkpoint'ed tune keeps its shard
         journals so an interrupted run can resume from them *)
      if t.t_checkpoint = None then
        Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) journals;
      Result.iter
        (fun (o : Sw_tuning.Tuner.outcome) ->
          Sw_obs.Sink.add state.sink "shard.restarts" (float_of_int o.restarts);
          Sw_obs.Sink.add state.sink "shard.quarantined"
            (float_of_int (List.length o.quarantined));
          Sw_obs.Sink.add state.sink "link.lines_dropped" (float_of_int o.link_lines_dropped))
        result;
      Result.map_error (fun (`No_feasible_point msg | `Worker_failure msg) -> msg) result
  in
  (* a quarantined shard means this is a partial argmin: surface it the
     same way overload shedding does, as a degraded response *)
  Ok
    {
      tr_backend = canonical;
      tr_outcome = outcome;
      tr_degraded = degrade || outcome.Sw_tuning.Tuner.quarantined <> [];
    }

(* --- shard worker entrypoint -------------------------------------- *)

(* Deterministic fault injection for the chaos harness: a kill or stall
   plan armed for this worker fires once it has journaled [after] new
   lines.  Counting journal lines (not assessments) makes the trigger
   deterministic across incarnations — a relaunched worker replays its
   journal as hits, so "6 new lines" lands on the 6th un-journaled
   point no matter how many were already resolved. *)
let chaos_backend ~actions ~jnl inner =
  let triggers =
    List.filter_map
      (function
        | Sw_fault.Fault.Chaos.Kill_after n -> Some (`Kill n)
        | Sw_fault.Fault.Chaos.Stall_after { lines; secs } -> Some (`Stall (lines, secs))
        | _ -> None)
      actions
  in
  if triggers = [] then inner
  else
    let module Inner = (val inner : Backend.S) in
    let stalled = ref false in
    let module Chaotic = struct
      let name = Inner.name
      let description = Inner.description

      let assess ?cutoff ?event_budget config kernel variant =
        let r = Inner.assess ?cutoff ?event_budget config kernel variant in
        let lines = Backend.journal_misses jnl in
        List.iter
          (function
            | `Kill n when lines >= n -> Unix.kill (Unix.getpid ()) Sys.sigkill
            | `Stall (n, secs) when lines >= n && not !stalled ->
                stalled := true;
                Unix.sleepf secs
            | _ -> ())
          triggers;
        r
    end in
    (module Chaotic : Backend.S)

(* The body of [swmodel shard-worker]: parse the spec the coordinator
   passed on the command line, enumerate only this shard's points of the
   identical space, and run the ordinary search over them with the
   cutoff link wired to stdin/stdout.  Ground truth goes to the journal
   (closed before the Done line); the pipe carries advisory incumbents
   and, last, the Done line with the bills and the shard's summary. *)
let worker_main spec =
  let req_int name j =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "worker spec: missing integer field %S" name)
  in
  let* j = Json.parse spec in
  let* t = parse_tune j in
  let* shard = req_int "shard" j in
  let* shards = req_int "shards" j in
  let* journal =
    match Option.bind (Json.member "journal" j) Json.to_str with
    | Some s -> Ok s
    | None -> Error "worker spec: missing string field \"journal\""
  in
  if shards < 1 || shard < 0 || shard >= shards then
    Error (Printf.sprintf "worker spec: shard %d of %d out of range" shard shards)
  else
    let* entry = entry_of t.t_kernel in
    let* config = tune_config t in
    let* () = Sw_workloads.Registry.check_scale t.t_scale in
    let kernel = entry.Sw_workloads.Registry.build ~scale:t.t_scale in
    let* axes = tune_axes t entry in
    let mine = Sw_tuning.Shard.enumerate ~shard ~shards axes in
    (* a worker is its own process: fresh state, private memo caches *)
    let state = create () in
    let* _, shared, strategy = resolve_search state t ~n_points:(List.length mine) in
    (* the chaos harness plants SWPM_CHAOS in our environment (and the
       supervisor stamps SWPM_CHAOS_INCARNATION on relaunch); honor
       whatever is armed for this shard in this incarnation *)
    let actions =
      Sw_fault.Fault.Chaos.armed ~shard
        ~incarnation:(Sw_fault.Fault.Chaos.incarnation ())
        (Sw_fault.Fault.Chaos.of_env ())
    in
    List.iter
      (function
        | Sw_fault.Fault.Chaos.Corrupt_journal { mode } ->
            ignore (Sw_fault.Fault.Chaos.corrupt_file ~mode journal : bool)
        | _ -> ())
      actions;
    let jnl = Backend.journal ~path:journal config shared in
    let drop_every =
      List.find_map
        (function Sw_fault.Fault.Chaos.Drop_incumbents k -> Some k | _ -> None)
        actions
    in
    let dup_every =
      List.find_map
        (function Sw_fault.Fault.Chaos.Dup_incumbents k -> Some k | _ -> None)
        actions
    in
    let link, finish = Sw_tuning.Shard.worker_link ?drop_every ?dup_every () in
    let stats =
      Sw_tuning.Tuner.search_shard ~shard strategy
        ~backend:(chaos_backend ~actions ~jnl (Backend.journaled jnl))
        ~journal:jnl ~link config kernel ~points:mine
    in
    Backend.journal_close jnl;
    finish stats;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Payloads *)

let variant_json (v : Sw_swacc.Kernel.variant) =
  Json.Obj
    [
      ("grain", Json.Int v.Sw_swacc.Kernel.grain);
      ("unroll", Json.Int v.Sw_swacc.Kernel.unroll);
      ("active_cpes", Json.Int v.Sw_swacc.Kernel.active_cpes);
      ("double_buffer", Json.Bool v.Sw_swacc.Kernel.double_buffer);
    ]

let scenario_str = function
  | Swpm.Predict.Compute_bound -> "compute-bound"
  | Swpm.Predict.Memory_bound -> "memory-bound"

let breakdown_json (p : Swpm.Predict.t) =
  Json.Obj
    [
      ("t_total", Json.Float p.Swpm.Predict.t_total);
      ("t_mem", Json.Float p.Swpm.Predict.t_mem);
      ("t_dma", Json.Float p.Swpm.Predict.t_dma);
      ("t_g", Json.Float p.Swpm.Predict.t_g);
      ("t_comp", Json.Float p.Swpm.Predict.t_comp);
      ("t_overlap", Json.Float p.Swpm.Predict.t_overlap);
      ("scenario", Json.Str (scenario_str p.Swpm.Predict.scenario));
      ("ng_dma", Json.Float p.Swpm.Predict.ng_dma);
      ("mrp_dma", Json.Float p.Swpm.Predict.mrp_dma);
      ("ng_g", Json.Float p.Swpm.Predict.ng_g);
      ("mrp_g", Json.Float p.Swpm.Predict.mrp_g);
      ("n_dma_reqs", Json.Float p.Swpm.Predict.n_dma_reqs);
      ("avg_mrt_dma", Json.Float p.Swpm.Predict.avg_mrt_dma);
      ("db_gain", Json.Float p.Swpm.Predict.db_gain);
    ]

let predict_payload p pr =
  let v = pr.pr_verdict in
  Json.Obj
    [
      ("op", Json.Str "predict");
      ("kernel", Json.Str p.p_kernel);
      ("scale", Json.Float p.p_scale);
      ("cgs", Json.Int p.p_cgs);
      ("backend", Json.Str pr.pr_backend);
      ("variant", variant_json pr.pr_variant);
      ("cycles", Json.Float v.Backend.cycles);
      ("host_wall_s", Json.Float v.Backend.cost.Backend.host_wall_s);
      ("host_cpu_s", Json.Float v.Backend.cost.Backend.host_cpu_s);
      ("machine_us", Json.Float v.Backend.cost.Backend.machine_us);
      ("machine_events", Json.Int v.Backend.cost.Backend.machine_events);
      ( "breakdown",
        match v.Backend.breakdown with Some b -> breakdown_json b | None -> Json.Null );
    ]

let tune_payload t tr =
  let fields =
    match Sw_tuning.Tuner.outcome_to_json tr.tr_outcome with
    | Json.Obj fields ->
        (* The outcome's backend string is the wrapped chain
           ("journal(memo(sim))"); the stable field is the canonical
           requested name, with the chain kept as a diagnostic. *)
        List.map
          (function
            | "backend", chain -> ("backend_chain", chain) | (_, _) as field -> field)
          fields
    | other -> [ ("outcome", other) ]
  in
  Json.Obj
    (("op", Json.Str "tune")
    :: ("kernel", Json.Str t.t_kernel)
    :: ("scale", Json.Float t.t_scale)
    :: ("backend", Json.Str tr.tr_backend)
    :: fields
    @ [
        ( "checkpoint",
          match t.t_checkpoint with Some path -> Json.Str path | None -> Json.Null );
      ])

let timeline_payload l (metrics : Sw_sim.Metrics.t) trace =
  Json.Obj
    [
      ("op", Json.Str "timeline");
      ("kernel", Json.Str l.l_kernel);
      ("scale", Json.Float l.l_scale);
      ("makespan_cycles", Json.Float metrics.Sw_sim.Metrics.cycles);
      ("events", Json.Int metrics.Sw_sim.Metrics.events);
      ("retries", Json.Int metrics.Sw_sim.Metrics.retries);
      ("backoff_cycles", Json.Float metrics.Sw_sim.Metrics.backoff_cycles);
      ( "rendered",
        Json.Str
          (Sw_sim.Trace.render ~width:100 ~max_cpes:16
             ~makespan:metrics.Sw_sim.Metrics.cycles trace) );
    ]

(* --- timeline ----------------------------------------------------- *)

(* A timeline is a pure function of its canonical request once the
   seed is resolved, so the state keeps the last [timeline_slots]
   payloads under that key. *)
let timeline_key l =
  let l = { l with l_seed = Some (Option.value l.l_seed ~default:(Sw_util.Prng.global_seed ())) } in
  Json.to_string (verb_to_json (Timeline l))

let simulate_timeline state ?obs l =
  let* entry = entry_of l.l_kernel in
  let* config = timeline_config l in
  let* kernel = kernel state entry ~scale:l.l_scale in
  let variant = variant_of entry l.l_grain l.l_unroll l.l_cpes l.l_db in
  let* lowered =
    match Sw_swacc.Lower.lower_cached config.Sw_sim.Config.params kernel variant with
    | Ok lowered -> Ok lowered
    | Error reason -> Error (Printf.sprintf "cannot lower %s: %s" l.l_kernel reason)
  in
  let programs = lowered.Sw_swacc.Lowered.programs in
  let metrics, trace =
    match obs with
    | Some s -> Sw_obs.Probe.run_traced s ~name:l.l_kernel config programs
    | None -> Sw_sim.Engine.run_traced config programs
  in
  Ok (timeline_payload l metrics trace)

(* A traced call skips the table, so its spans are recorded. *)
let timeline state ?obs l =
  match obs with
  | Some _ -> simulate_timeline state ?obs l
  | None -> (
      let key = timeline_key l in
      match Timeline_memo.find state.timelines key with
      | Some payload ->
          Sw_obs.Sink.incr state.sink "timeline.hits";
          Ok payload
      | None ->
          Sw_obs.Sink.incr state.sink "timeline.misses";
          let* payload = simulate_timeline state l in
          Ok (Timeline_memo.add state.timelines key payload))

let metrics_text ?extra state = Sw_obs.Sink.render_metrics ?extra state.sink

let metrics_of_trace path =
  let* j = Json.parse_file path in
  let* events =
    match Json.member "traceEvents" j with
    | Some v -> (
        match Json.to_list v with
        | Some l -> Ok l
        | None -> Error "field \"traceEvents\": expected an array")
    | None -> Error "not a Chrome trace file (no \"traceEvents\" field)"
  in
  let counters =
    List.filter_map
      (fun e ->
        match Json.member "ph" e with
        | Some (Json.Str "C") ->
            let name = Option.bind (Json.member "name" e) Json.to_str in
            let value =
              Option.bind (Json.member "args" e) (fun args ->
                  Option.bind (Json.member "value" args) Json.to_float)
            in
            (match (name, value) with Some n, Some v -> Some (n, v) | _ -> None)
        | _ -> None)
      events
  in
  Ok (Sw_obs.Sink.render_metrics_of counters)

(* Fields that legitimately differ between two executions of the same
   request: host timing, machine time billed against shared caches,
   journal bookkeeping, file paths, and the live metrics dump. *)
let volatile_keys =
  [
    "host_wall_s";
    "host_cpu_s";
    "tuning_host_s";
    "tuning_cpu_s";
    "rank_host_s";
    "machine_us";
    "machine_time_us";
    "rank_machine_us";
    "machine_events";
    "events";
    "journal_hits";
    "journal_misses";
    "backend_chain";
    "checkpoint";
    "resumed";
    "text";
    "counters";
    (* supervision bookkeeping: how many relaunches a run needed (or
       how many protocol lines its links lost) is execution weather,
       not part of the answer *)
    "restarts";
    "quarantined";
    "link_lines_dropped";
  ]

let rec strip_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k volatile_keys then None else Some (k, strip_volatile v))
           fields)
  | Json.Arr items -> Json.Arr (List.map strip_volatile items)
  | v -> v

(* ------------------------------------------------------------------ *)
(* The daemon entry point *)

let op_name = function
  | Ping -> "ping"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"
  | Predict _ -> "predict"
  | Tune _ -> "tune"
  | Timeline _ -> "timeline"

(* --- service-time estimation -------------------------------------- *)

(* Deadline admission needs a service-time forecast before the work
   runs.  Requests are bucketed into coarse classes (op x does-it-
   simulate x degraded) and each class keeps an EWMA of observed host
   seconds, seeded with a conservative prior so the very first
   simulation request is not admitted against a 1 ms guess.  A
   timeline the table already holds is its own class, so its
   sub-millisecond answers do not drag down the forecast for a cold
   one. *)
let estimate_class state ?(degrade = false) verb =
  match verb with
  | Ping -> ("ping", 1e-4)
  | Shutdown -> ("shutdown", 1e-4)
  | Metrics -> ("metrics", 1e-3)
  | Predict p -> if simulating p.p_backend then ("predict:sim", 0.1) else ("predict:static", 2e-3)
  | Timeline l ->
      if Option.is_some (Timeline_memo.find state.timelines (timeline_key l)) then
        ("timeline:cached", 1e-3)
      else ("timeline", 0.1)
  | Tune t ->
      if degrade then ("tune:degraded", 0.05)
      else if simulating t.t_backend || Option.fold ~none:false ~some:simulating t.t_rank then
        ("tune:sim", 2.0)
      else ("tune:static", 0.1)

let estimate_s state ?degrade request =
  let cls, prior = estimate_class state ?degrade request.verb in
  Mutex.protect state.lock (fun () ->
      Option.value (Hashtbl.find_opt state.estimates cls) ~default:prior)

(* Fold one observed service time into its class's EWMA.  The class is
   taken before the request runs: a timeline that misses is stored by
   the time it finishes, and must still count as a cold one. *)
let observe_service state (cls, prior) seconds =
  if seconds >= 0.0 then
    Mutex.protect state.lock (fun () ->
        let prev = Option.value (Hashtbl.find_opt state.estimates cls) ~default:prior in
        Hashtbl.replace state.estimates cls ((0.7 *. prev) +. (0.3 *. seconds)))

let run state ?(degrade = false) ?(resumed = false) ?pool ?obs request =
  Sw_obs.Sink.incr state.sink "handler.requests";
  Sw_obs.Sink.incr state.sink ("handler." ^ op_name request.verb);
  let cls = estimate_class state ~degrade request.verb in
  let t0 = Unix.gettimeofday () in
  let result, degraded =
    (* A request must never take the daemon down: anything the layers
       below throw (event limits, invalid configs) is an error
       response, not a crash. *)
    try
      match request.verb with
      | Ping -> (Ok (Json.Obj [ ("op", Json.Str "ping"); ("pong", Json.Bool true) ]), false)
      | Shutdown ->
          (Ok (Json.Obj [ ("op", Json.Str "shutdown"); ("stopping", Json.Bool true) ]), false)
      | Metrics ->
          let text = metrics_text state in
          ( Ok
              (Json.Obj
                 [
                   ("op", Json.Str "metrics");
                   ("format", Json.Str "prometheus");
                   ("counters", Json.Int (List.length (Sw_obs.Sink.counters state.sink)));
                   ("text", Json.Str text);
                 ]),
            false )
      | Predict p -> (
          match predict state ?obs p with
          | Ok pr -> (Ok (predict_payload p pr), pr.pr_degraded)
          | Error msg -> (Error msg, false))
      | Tune t -> (
          match tune state ~degrade ?pool ?obs t with
          | Ok tr -> (Ok (tune_payload t tr), tr.tr_degraded)
          | Error msg -> (Error msg, false))
      | Timeline l -> (
          match timeline state ?obs l with
          | Ok payload -> (Ok payload, false)
          | Error msg -> (Error msg, false))
    with exn -> (Error (Printexc.to_string exn), false)
  in
  observe_service state cls (Unix.gettimeofday () -. t0);
  if Result.is_error result then Sw_obs.Sink.incr state.sink "handler.errors";
  { id = request.id; degraded; resumed; deadline_exceeded = false; result }
