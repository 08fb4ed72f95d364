(** The request layer shared by the CLI and the [swmodel serve] daemon.

    Every operation the daemon answers — [predict], [tune], [timeline],
    [ping], [metrics], [shutdown] — lives here as a typed request, one
    execution function, and one {!Sw_obs.Json} payload builder.  The
    CLI's [predict]/[tune]/[timeline] subcommands build the same request
    records and serialize the same payloads through the same functions,
    which is how a daemon response is {e bit-identical} to the
    equivalent one-shot CLI invocation (same seed, same backend): there
    is exactly one code path.

    A {!state} is the process-wide shared context that makes a
    long-running server worth having: one {!Sw_obs.Sink.t} accumulating
    counters across requests, and one memoizing wrapper per backend
    ({!Sw_backend.Backend.memoize}) so repeated assessments of the same
    (config, kernel, variant) key are answered from cache, including a
    cut-off the memo has already proved — on top of the global
    [Lower.lower_cached] and [Sw_isa.Schedule.block_costs] caches that
    already survive across calls.  The state builds each registry
    (kernel, scale) once and hands every request that value, so those
    caches, which key on a kernel's physical identity, hit across
    requests too; and it keeps a fixed-size table of timeline payloads
    ({!timeline}).  Every tune, sharded or
    not, also validates its pick and default through the shared
    [memo(sim)], so a repeated tune (or a ["sim"] tune, whose search
    just stored the pick's verdict) validates from cache; the
    ["memo.hits"]/["memo.misses"] counters therefore include those two
    validation lookups per tune.  All of it is
    mutex-guarded and safe to drive from several {!Sw_util.Pool}
    domains at once. *)

type state
(** Shared cross-request context (sink, per-backend memo caches,
    optional state directory and simulation timeout). *)

val create :
  ?sink:Sw_obs.Sink.t -> ?state_dir:string -> ?sim_timeout_s:float -> unit -> state
(** [sink] defaults to a fresh one.  [state_dir] is where the server
    keeps its request log and auto-assigned tune checkpoints (the
    handler only records it; {!Server} does the journaling).
    [sim_timeout_s] arms graceful degradation for [predict]: assessments
    on a simulating backend are wrapped in
    {!Sw_backend.Backend.with_timeout} chained ({!Sw_backend.Backend.fallback})
    to the static model, so an over-budget simulation degrades to a
    model answer (marked [degraded]) instead of stalling the queue.
    Creation also installs the learned backend
    ({!Sw_learn.Surrogate.install}), so ["surrogate"] resolves like any
    built-in backend for every request. *)

val sink : state -> Sw_obs.Sink.t

val state_dir : state -> string option

val backend : state -> string -> (string * Sw_backend.Backend.t, string) result
(** [backend state name] resolves [name] (aliases included) to its
    canonical key plus this state's {e shared memoized} instance —
    created on first use, reused by every later request naming the same
    backend. *)

(** {1 Requests} *)

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
      (** Ranking backend for shortlist/adaptive/robust strategies
          (any registered backend name, e.g. ["surrogate"]); [None] =
          the static model. *)
  t_shortlist : int;  (** 0 = a quarter of the space. *)
  t_rungs : int;
  t_robust : int;  (** Robust-tuning seeds; 0 = off. *)
  t_seed : int option;
  t_faults : int option;
  t_fault_level : string;
  t_checkpoint : string option;
  t_workers : int;
      (** Worker processes for a sharded tune; 1 (the default) searches
          in-process.  Excluded from {!request_key}: how many processes
          search does not change what is searched. *)
  t_max_restarts : int;
      (** Per-shard relaunch budget under {!Sw_tuning.Shard.supervise}
          (default 2).  Supervision policy, so excluded from
          {!request_key}. *)
  t_hang_timeout_s : float option;
      (** Progress deadline: a worker whose link stays silent this long
          is presumed hung, killed and relaunched.  [None] (default)
          disables hang detection.  Excluded from {!request_key}. *)
  t_grains : string option;
      (** Grain-axis override in {!Sw_tuning.Space.parse_axis} syntax
          (["lo..hi"], ["lo..hi:step"], ["a,b,c"]); [None] = the
          registry entry's axis. *)
  t_unrolls : string option;  (** Unroll-axis override, same syntax. *)
  t_db_both : bool;
      (** Search both double-buffer settings instead of just [false]. *)
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

type request = { id : Sw_obs.Json.t; verb : verb; deadline_ms : int option }
(** [id] is echoed verbatim in the response ([Null] when absent).
    [deadline_ms] is the client's latency budget: the server refuses
    ({!deadline_response}) or degrades work it estimates cannot finish
    in time, and retroactively marks responses that missed anyway.
    [None] = no deadline (never refused).  Like the supervision knobs
    it is excluded from {!request_key}. *)

val predict_defaults : kernel:string -> predict_req
val tune_defaults : kernel:string -> tune_req
val timeline_defaults : kernel:string -> timeline_req

val parse_request : string -> (request, string) result
(** Parse one line-delimited JSON request.  The wire format is an
    object with an ["op"] field naming the verb plus the flat fields of
    the corresponding record (["kernel"], ["scale"], ["backend"],
    ["seed"], …; ["double_buffer"] for the flag); absent fields take
    the CLI's defaults, unknown fields are ignored, wrong-typed fields
    are readable errors. *)

val is_tune : request -> bool

val with_checkpoint : request -> string -> request
(** Fill a tune request's [t_checkpoint] if it has none (identity for
    every other verb and for explicit checkpoints). *)

val request_key : request -> string
(** Digest of the request's canonical form, [id] excluded — two
    requests asking for the same work share a key.  The server derives
    auto-checkpoint paths from it, so a resumed tune finds the journal
    its interrupted twin was writing. *)

(** {1 Responses} *)

type response = {
  id : Sw_obs.Json.t;
  degraded : bool;  (** Answered by a degraded path (shed or timeout). *)
  resumed : bool;  (** Replayed from the server's request log. *)
  deadline_exceeded : bool;
      (** The request's [deadline_ms] was (or would have been) blown:
          either refused up front by admission or marked after the fact
          when execution overran.  Never silently false-negative. *)
  result : (Sw_obs.Json.t, string) result;
}

val response_to_json : response -> Sw_obs.Json.t
(** [{"id": …, "ok": true, "degraded": b, "resumed": b, "result": …}] on
    success, [{"id": …, "ok": false, "error": msg}] on failure.
    ["deadline_exceeded": true] is inserted before [result]/[error]
    when set, and omitted entirely otherwise (pre-deadline transcripts
    stay byte-identical). *)

val response_to_string : response -> string

val error_response : ?resumed:bool -> Sw_obs.Json.t -> string -> response

val deadline_response : ?resumed:bool -> Sw_obs.Json.t -> response
(** The typed admission refusal: [ok = false], [error =
    "deadline_exceeded"], [deadline_exceeded = true]. *)

(** {1 Execution}

    The typed functions are what the CLI calls (then formats humanly or
    serializes the payload); {!run} is the daemon's single entry point
    over a parsed {!request}. *)

type predict_result = {
  pr_backend : string;  (** Canonical name of the requested backend. *)
  pr_variant : Sw_swacc.Kernel.variant;  (** Fully resolved variant. *)
  pr_verdict : Sw_backend.Backend.verdict;
  pr_degraded : bool;  (** A timeout fallback served this answer. *)
}

type tune_result = {
  tr_backend : string;  (** Canonical name of the backend that searched. *)
  tr_outcome : Sw_tuning.Tuner.outcome;
  tr_degraded : bool;  (** Shed to model-only shortlist scoring. *)
}

val predict_config : predict_req -> (Sw_sim.Config.t, string) result
val tune_config : tune_req -> (Sw_sim.Config.t, string) result
val timeline_config : timeline_req -> (Sw_sim.Config.t, string) result

val predict :
  state -> ?obs:Sw_obs.Sink.t -> predict_req -> (predict_result, string) result
(** {!predict}, {!tune}, {!timeline} and {!worker_main} answer [Error]
    for a scale {!Sw_workloads.Registry.check_scale} rejects, before
    any kernel is built. *)

val tune :
  state ->
  ?degrade:bool ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  tune_req ->
  (tune_result, string) result
(** With [degrade] (the server's overload path), the request's backend
    and strategy are replaced by model-only shortlist scoring (K = a
    quarter of the space) — the cheapest search that still returns a
    simulator-validated argmin.

    With [t_workers > 1] (and not degraded), the search fans out over
    that many [swmodel shard-worker] processes via
    {!Sw_tuning.Tuner.tune_sharded}: the space is partitioned by
    {!Sw_tuning.Shard.assign}, each worker journals its shard to
    [<checkpoint>.shard<i>of<N>] (temp files when no checkpoint), and
    the combined shard summaries yield the argmin.  The workers run supervised
    ([t_max_restarts]/[t_hang_timeout_s]): a crashed or hung worker is
    relaunched and replays its journal; a shard that exhausts its
    budget is quarantined and the response comes back [degraded] with
    the outcome's [quarantined] list naming it.  The worker executable
    is [$SWPM_WORKER_EXE] when set (tests and bench point it at a built
    [swmodel]), else [Sys.executable_name]. *)

val tune_points :
  tune_req -> Sw_workloads.Registry.entry -> (Sw_tuning.Space.point list, string) result
(** The request's search space: the registry entry's axes with the
    request's [grains]/[unrolls]/[db_both] overrides applied.  The CLI,
    the daemon and every shard worker enumerate through this one
    function, in one deterministic order. *)

val worker_argv :
  tune_req -> shard:int -> shards:int -> journal:string -> string array
(** The command line {!tune} launches for one shard worker —
    [\[| exe; "shard-worker"; "--spec"; <json> |\]].  Exposed so the
    bench can launch (and kill) a lone worker; pass an explicit
    [t_seed] so the spec's config matches the coordinating process. *)

val worker_main : string -> (unit, string) result
(** Body of the [swmodel shard-worker] entrypoint: parse a
    {!worker_argv} spec, search this shard's points with the cutoff
    link on stdin/stdout while journaling every resolved assessment,
    close the journal, and emit the [Done] stats line.  Honors
    {!Sw_fault.Fault.Chaos} plans from [$SWPM_CHAOS] (filtered by
    shard and [$SWPM_CHAOS_INCARNATION]): journal corruption is
    applied before the journal opens, link loss is wired into the
    worker link, and kills/stalls fire after the planned number of
    newly journaled lines. *)

val timeline : state -> ?obs:Sw_obs.Sink.t -> timeline_req -> (Sw_obs.Json.t, string) result
(** The timeline payload: makespan, event and retry counts, and the
    rendered per-CPE activity chart.  The state keeps the last
    {!timeline_slots} payloads, keyed on the canonical request with the
    seed resolved, so a repeated timeline is answered from the table
    (counted as ["timeline.hits"], a simulation as ["timeline.misses"]).
    A call with [obs] always simulates, recording its spans there, and
    leaves the table alone. *)

val timeline_slots : int
(** How many timeline payloads a {!state} keeps (oldest out first). *)

val predict_payload : predict_req -> predict_result -> Sw_obs.Json.t
val tune_payload : tune_req -> tune_result -> Sw_obs.Json.t

val metrics_text : ?extra:(string * float) list -> state -> string
(** {!Sw_obs.Sink.render_metrics} of the shared sink. *)

val metrics_of_trace : string -> (string, string) result
(** Offline metrics: read a Chrome trace JSON file (as written by
    {!Sw_obs.Chrome.write}), pick out its counter events ([ph = "C"])
    and render them as the same Prometheus-style text — [swmodel
    metrics --trace FILE]. *)

val strip_volatile : Sw_obs.Json.t -> Sw_obs.Json.t
(** Recursively drop payload fields that legitimately differ between
    two executions of the same request (host wall/CPU seconds, machine
    time billed against shared caches, journal hit counts, checkpoint
    paths, metrics text).  What remains — cycles, variants, speedups,
    verdicts — must be bit-identical between the CLI and the daemon;
    the bench and tests compare through this. *)

val estimate_s : state -> ?degrade:bool -> request -> float
(** Forecast host seconds for serving [request], from an EWMA of
    observed service times bucketed by coarse request class (op ×
    simulating-or-not × degraded), seeded with conservative priors.
    A timeline the state's table already holds is a class of its own.
    The server's deadline admission compares this (plus queue backlog)
    against [deadline_ms]. *)

val run :
  state ->
  ?degrade:bool ->
  ?resumed:bool ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  request ->
  response
(** Execute one request.  Never raises: backend exceptions
    ({!Sw_sim.Engine.Event_limit}, invalid configurations, …) become
    error responses, so a malformed or explosive request cannot take
    the daemon down.  Bumps ["handler.requests"], ["handler.<op>"] and
    ["handler.errors"] on the shared sink, and folds the request's host
    seconds into its {!estimate_s} class ([new = 0.7*old + 0.3*obs]),
    the class taken before it runs. *)
