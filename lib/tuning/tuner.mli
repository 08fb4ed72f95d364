(** The auto-tuners of Section V-D, generalized over cost backends.

    A tuner walks a search space and asks one {!Sw_backend.Backend.t}
    to price every variant; the paper's two tuners are two choices of
    backend:

    - the {e empirical} (dynamic) tuner uses the ["sim"] backend —
      compile (lower) each variant and run it on the cycle-level
      simulator, our stand-in for the machine;
    - the {e static} tuner uses the ["model"] backend — compile each
      variant and ask the performance model, never executing anything.

    The ["hybrid"] and ["roofline"] backends slot straight in, giving
    the four-way comparison of the bench backend matrix.

    Tuning cost is measured in host wall-clock seconds (with CPU
    seconds reported separately) and in simulated machine time billed
    by the backend's verdicts — the quantity that on the real
    TaihuLight made dynamic tuning take hours.

    Tuners can fan variant assessment out over a {!Sw_util.Pool} of
    OCaml domains; results are guaranteed identical to the sequential
    search. *)

type tally = {
  tuning_host_s : float;
  tuning_cpu_s : float;
  machine_time_us : float;
  points_pruned : int;
  rank_host_s : float;
  rank_machine_us : float;
  journal_hits : int;
  journal_misses : int;
}
(** What one search cost, and what it pruned: the bills of an
    {!outcome} (each field means what the outcome's field of the same
    name means), computed in one place for the in-process tune, every
    shard worker and the sharded coordinator.  The rest of the counts
    are the search's {!summary}. *)

type summary = {
  evaluated : int;  (** [Priced] results. *)
  infeasible : int;  (** [Rejected] results, the ranking pass's included. *)
  first : (Space.point * float) option;
      (** The first priced point in enumeration order, and its cycles. *)
  best : (Space.point * float) option;
      (** The strict-[<] argmin and its cycles: the earliest point
          among equal cycles. *)
}
(** What a tune decides by, folded from a search's results — the whole
    space's in-process, one shard's in a shard worker. *)

type outcome = {
  backend : string;  (** Name of the backend that searched. *)
  strategy : string;  (** {!Search.name} of the strategy that walked the space. *)
  best : Sw_swacc.Kernel.variant;
  best_cycles : float;
      (** Simulated cycles of the chosen variant, priced by the tune's
          validating [machine] backend (quality measure; this one
          validation is {e not} part of the tuning cost).  In the
          daemon the machine is the shared [memo(sim)], so a repeated
          tune — or a ["sim"] tune whose search just priced the pick —
          answers it from the memo, bit-identical to a fresh run. *)
  default_cycles : float;
      (** Simulated cycles of the default variant, validated the same
          way as [best_cycles]. *)
  speedup : float;  (** [default_cycles / best_cycles]. *)
  tuning_host_s : float;
      (** Monotonic wall-clock seconds spent assessing variants — the
          latency a user waits for, and the figure Table II's savings
          column compares.  Unlike CPU time it stays truthful when the
          search runs on several domains. *)
  tuning_cpu_s : float;
      (** Process CPU seconds spent assessing variants (≥ wall-clock
          under parallel execution; the total host effort). *)
  machine_time_us : float;
      (** Simulated machine microseconds billed by the backend's
          verdicts (0 for purely static backends; per-variant runs for
          the simulator; one profile per kernel for the hybrid). *)
  evaluated : int;  (** Variants the backend priced in full. *)
  infeasible : int;  (** Variants rejected at compile time (SPM, …). *)
  points_pruned : int;
      (** Variants the strategy skipped or abandoned mid-run — never
          priced by the main backend (0 under [Exhaustive]). *)
  rank_host_s : float;
      (** Host seconds of the shortlist ranking pass (0 otherwise);
          included in [tuning_host_s]. *)
  rank_machine_us : float;
      (** Machine time billed by the shortlist ranking backend;
          included in [machine_time_us]. *)
  journal_hits : int;
      (** Assessments answered from the [checkpoint] journal instead of
          being recomputed (0 without a checkpoint).  On a resumed
          sweep this counts exactly the points the interrupted run had
          already resolved, cut-off bounds included. *)
  journal_misses : int;
      (** Assessments that actually ran through the journal (0 without
          a checkpoint); each one that resolved its point or proved a
          stronger bound under the journal's configuration was
          appended to it. *)
  restarts : int;
      (** Worker relaunches the supervisor performed ({!tune_sharded}
          only; 0 in-process). *)
  quarantined : int list;
      (** Shards that exhausted their restart budget and contributed
          nothing: non-empty means this outcome is a {e partial}
          result — the argmin over every shard that completed.  Always
          [[]] in-process. *)
  link_lines_dropped : int;
      (** Worker->coordinator protocol lines lost in transit, counted
          from per-worker sequence-number gaps.  Lost lines cost extra
          verifications, never the argmin — this counter is what makes
          that loss observable instead of silent. *)
}

val summarize : (Space.point * Search.result_) list -> summary
(** The one fold behind {!tune}, every shard worker and (through
    {!combine}) {!tune_sharded}, over results in enumeration order. *)

val combine : Space.axes -> summary list -> summary
(** The summaries of disjoint parts of [axes] (the shards of
    {!Shard.enumerate}, in any order) as one: counts add, [first] is
    the point with the lowest global enumeration index and [best] the
    lowest (cycles, index) pair — equal to {!summarize} over the whole
    enumeration.  A value's index is its first position on each axis.
    @raise Invalid_argument when a summarized point is not in [axes]. *)

val tune :
  backend:Sw_backend.Backend.t ->
  ?machine:Sw_backend.Backend.t ->
  ?strategy:Search.t ->
  ?active_cpes:int ->
  ?default:Sw_swacc.Kernel.variant ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  ?checkpoint:string ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  (outcome, [ `No_feasible_point of string ]) result
(** Search [points] under [backend] and return the outcome, or a typed
    error (carrying a human-readable message with the first backend
    rejection) when every point is infeasible.  [strategy] (default
    {!Search.exhaustive}) decides which points the backend prices and
    at what budget; [default] defaults to the first {e priced} point
    with unroll 1 (pass an explicit [default] when comparing strategies
    — a pruning strategy may not price the same first point);
    [active_cpes] to one core group's 64.  [machine] (default
    {!Sw_backend.Backend.simulator}) prices [best_cycles] and
    [default_cycles]; pass a memoized simulator to answer repeated
    validations from its table.  It is never instrumented or journaled,
    and its runs are not billed to the tune.

    When [pool] is given, variant assessment fans out over its domains.
    The argmin is order-independent (strict improvement only, ties
    broken by enumeration index), so [best], [best_cycles], [evaluated]
    and [infeasible] are identical to the sequential search for any
    pool size — for every strategy.

    [machine_time_us] bills everything the search simulated: completed
    verdicts, the sunk prefixes of cut-off runs, and the ranking pass.

    When [obs] is given, the search is telemetered into that sink —
    the backend is wrapped with {!Sw_backend.Backend.instrument} (one
    host span per variant assessment, attributed to the pool domain
    that ran it), one ["tuner"] span covers the whole search, and the
    ["tuner.searches"/"tuner.points"/"tuner.evaluated"/
    "tuner.infeasible"/"tuner.pruned"/"tuner.machine_us"] counters
    accumulate search progress (pruning strategies additionally bump
    ["search.pruned"]/["search.rungs"], the robust strategy
    ["search.robust_assessments"]).  Tracing is purely an
    observer: the outcome is bit-identical with and without [obs], at
    any pool size.

    When [checkpoint] is given, the backend is additionally wrapped
    (outermost) in a crash-safe {!Sw_backend.Backend.journal} bound to
    [config] at that path: every resolved assessment is appended and
    flushed one JSON line at a time, and a rerun after an interruption
    — even a [SIGKILL] mid-write — replays the journaled points
    verbatim instead of recomputing them, reaching a bit-identical
    argmin.  [journal_hits]/[journal_misses] in the outcome prove what
    was replayed vs recomputed.  A [Cut_off] is journaled as a lower
    bound, so a resumed ranked search answers the verifications its
    cutoff abandoned from the file too.  The robust strategy's
    fault-plan re-assessments run under perturbed configurations: the
    journal memoizes them for the run but does not record them. *)

val tune_sharded :
  backend_name:string ->
  strategy_name:string ->
  workers:int ->
  argv:(shard:int -> journal:string -> string array) ->
  journal_of:(int -> string) ->
  ?machine:Sw_backend.Backend.t ->
  ?active_cpes:int ->
  ?default:Sw_swacc.Kernel.variant ->
  ?max_restarts:int ->
  ?hang_timeout_s:float ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  axes:Space.axes ->
  (outcome, [ `No_feasible_point of string | `Worker_failure of string ]) result
(** Fan one search out across [workers] processes.  [argv ~shard
    ~journal] names the command line for one worker (a [swmodel
    shard-worker] invocation); [journal_of shard] is the
    {!Sw_backend.Backend.journal} path that worker resumes from and
    appends to — the caller owns both so the daemon can key them by
    request digest and the CLI by [--checkpoint].

    Each worker runs the ordinary {!Search} strategy over the shard
    {!Shard.assign} gives it, pruning against the {e global} incumbent
    via the {!Shard} cutoff protocol, and ends with a [Done] line that
    carries its shard's {!summary} ({!search_shard}).  The coordinator
    assesses nothing and reads no journal: it {!combine}s the
    summaries, so the argmin is the strict-[<] pick over [axes] in
    global enumeration order, as in {!tune}, and the sharded pick is the
    single-process pick whenever each worker's search finds its shard's
    minimum (shortlist/adaptive/halving with the rank backend equal to
    the verify backend, or exhaustive, guarantee this: cutoffs are
    strict, so a shard's minimum is always fully priced).

    Self-healing: the workers run under {!Shard.supervise} — one that
    dies (or, with [hang_timeout_s], hangs) is relaunched up to
    [max_restarts] times (default 2), replays its journal and
    summarizes the whole shard, so the argmin of a disturbed run is
    bit-identical to an undisturbed one.  A shard that exhausts its
    budget lands in the outcome's [quarantined] list and the tune
    completes as a typed partial result over the surviving shards (its
    points count as pruned) instead of failing.  [`Worker_failure] is a
    completed worker whose [Done] line carries no readable summary (a
    worker from an older build, say) or a point outside [axes].  The
    journals also survive the coordinator itself dying: re-running
    with the same [journal_of] replays every resolved point —
    [journal_hits] counts them — to a bit-identical argmin.

    The outcome's [backend] reads ["sharded(<backend_name>,workers=N)"];
    [tuning_host_s] is the coordinator's wall clock, [tuning_cpu_s] the
    summed worker CPU bill, [rank_host_s] the slowest worker's ranking
    pass.  [evaluated] and [infeasible] (the workers' ranking-pass
    rejections included, as in {!tune}) are the summed summaries, and
    [points_pruned] is the rest of the space.  [best_cycles] and
    [default_cycles] are the usual one-per-variant validations, priced
    by the coordinator's [machine] as in {!tune}. *)

val search_shard :
  shard:int ->
  Search.t ->
  backend:Sw_backend.Backend.t ->
  journal:Sw_backend.Backend.journal ->
  link:Search.link ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  Sw_obs.Json.t
(** A shard worker's search: run the strategy over the worker's own
    [points] (64 active CPEs) with the cutoff [link], tally and
    {!summarize} it as {!tune} does, and return the stats for the
    worker's [Done] line ({!stats_to_json}).  [backend] is the worker's
    full stack, already wrapped in [journal] (and whatever else the
    worker adds), so replayed points are summarized with the rest; the
    journal is read for its hit/miss counts and left open. *)

val stats_to_json : shard:int -> tally -> summary -> Sw_obs.Json.t
(** The worker-stats codec that {!search_shard} writes and
    {!tune_sharded} reads: ["shard"], ["cpu_s"], ["machine_us"],
    ["rank_host_s"], ["rank_machine_us"],
    ["journal_hits"], ["journal_misses"], and the shard's summary:
    ["evaluated"], ["infeasible"], and ["first"] and ["best"], each
    [null] or [[grain, unroll, double_buffer, cycles]] with the cycles
    bit-exact.  [tuning_host_s] and [points_pruned] are not sent: the
    coordinator measures its own wall clock, and a point no summary
    counts is pruned. *)

val stats_of_json : Sw_obs.Json.t -> tally
(** Inverse of {!stats_to_json} on the bills it sends; a missing or
    non-numeric field, and every field it does not send, reads as 0. *)

val summary_of_json : Sw_obs.Json.t -> summary option
(** The summary in {!stats_to_json}'s object; [None] when any of its
    four fields is missing or does not decode. *)

val tune_exn :
  backend:Sw_backend.Backend.t ->
  ?strategy:Search.t ->
  ?active_cpes:int ->
  ?default:Sw_swacc.Kernel.variant ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  ?checkpoint:string ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  outcome
(** {!tune}, raising [Invalid_argument] on [`No_feasible_point]. *)

val outcome_to_json : outcome -> Sw_obs.Json.t
(** The canonical machine-readable form of an outcome — the object the
    CLI's [tune --json] prints and the [swmodel serve] daemon returns as
    a tune response's [result] (which is how the two stay bit-identical:
    they serialize the same value through {!Sw_obs.Json.to_string}).
    Fields mirror the record; [points_pruned] appears as ["pruned"]. *)

val quality_loss : static:outcome -> empirical:outcome -> float
(** Relative slowdown of the static tuner's pick vs the empirical one's:
    [(static.best_cycles - empirical.best_cycles) / empirical.best_cycles]. *)

val pp_outcome : Format.formatter -> outcome -> unit
