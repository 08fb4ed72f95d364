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

type method_ = Static | Empirical
(** The paper's original two tuners, named by their backend. *)

val backend_of_method : method_ -> Sw_backend.Backend.t
(** [Static] is the ["model"] backend, [Empirical] the ["sim"] one. *)

type outcome = {
  backend : string;  (** Name of the backend that searched. *)
  strategy : string;  (** {!Search.name} of the strategy that walked the space. *)
  best : Sw_swacc.Kernel.variant;
  best_cycles : float;
      (** Simulated cycles of the chosen variant (quality measure; this
          one validation run is {e not} part of the tuning cost). *)
  default_cycles : float;  (** Simulated cycles of the default variant. *)
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
          already resolved. *)
  journal_misses : int;
      (** Assessments that actually ran and were appended to the
          journal (0 without a checkpoint). *)
  restarts : int;
      (** Worker relaunches the supervisor performed ({!tune_sharded}
          only; 0 in-process). *)
  quarantined : int list;
      (** Shards that exhausted their restart budget (or whose journal
          came back unreadable) and contributed nothing: non-empty
          means this outcome is a {e partial} result — the argmin over
          every shard that completed.  Always [[]] in-process. *)
  link_lines_dropped : int;
      (** Worker->coordinator protocol lines lost in transit, counted
          from per-worker sequence-number gaps.  Lost lines cost extra
          verifications, never the argmin — this counter is what makes
          that loss observable instead of silent. *)
}

val tune :
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
  (outcome, [ `No_feasible_point of string ]) result
(** Search [points] under [backend] and return the outcome, or a typed
    error (carrying a human-readable message with the first backend
    rejection) when every point is infeasible.  [strategy] (default
    {!Search.exhaustive}) decides which points the backend prices and
    at what budget; [default] defaults to the first {e priced} point
    with unroll 1 (pass an explicit [default] when comparing strategies
    — a pruning strategy may not price the same first point);
    [active_cpes] to one core group's 64.

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
    was replayed vs recomputed.  [Cut_off] results are never journaled
    (they depend on the run's budgets), and the robust strategy's
    fault-plan re-assessments run under perturbed configurations, which
    pass through the journal unrecorded. *)

val tune_sharded :
  backend_name:string ->
  strategy_name:string ->
  workers:int ->
  argv:(shard:int -> journal:string -> string array) ->
  journal_of:(int -> string) ->
  ?active_cpes:int ->
  ?default:Sw_swacc.Kernel.variant ->
  ?max_restarts:int ->
  ?hang_timeout_s:float ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  (outcome, [ `No_feasible_point of string | `Worker_failure of string ]) result
(** Fan one search out across [workers] processes.  [argv ~shard
    ~journal] names the command line for one worker (a [swmodel
    shard-worker] invocation); [journal_of shard] is the
    {!Sw_backend.Backend.journal} path that worker appends to and the
    coordinator merges from — the caller owns both so the daemon can
    key them by request digest and the CLI by [--checkpoint].

    Each worker runs the ordinary {!Search} strategy over the shard
    {!Shard.assign} gives it, pruning against the {e global} incumbent
    via the {!Shard} cutoff protocol.  The coordinator assesses nothing
    itself: it merges the per-shard journals
    ({!Sw_backend.Backend.journal_merge} — config-digest-checked,
    truncated tails dropped, first-written entry wins) and folds the
    argmin over [points] in global enumeration order with the same
    strict [<] tie-break as {!tune}, so the sharded pick is the
    single-process pick whenever each worker's search finds its shard's
    minimum (shortlist/adaptive/halving with the rank backend equal to
    the verify backend, or exhaustive, guarantee this: cutoffs are
    strict, so a shard's minimum is always fully priced and journaled).

    Self-healing: the workers run under {!Shard.supervise} — one that
    dies (or, with [hang_timeout_s], hangs) is relaunched up to
    [max_restarts] times (default 2) and replays its journal, so the
    argmin of a disturbed run is bit-identical to an undisturbed one.
    A shard that exhausts its budget, or whose journal comes back
    unreadable, lands in the outcome's [quarantined] list and the tune
    completes as a typed partial result over the surviving shards (its
    points count as pruned) instead of failing.  [`Worker_failure] is
    reserved for a journal digest mismatch — a caller bug.  The
    journals also survive the coordinator itself dying: re-running
    with the same [journal_of] replays every resolved point —
    [journal_hits] counts them — to a bit-identical argmin.

    The outcome's [backend] reads ["sharded(<backend_name>,workers=N)"];
    [tuning_host_s] is the coordinator's wall clock, [tuning_cpu_s] the
    summed worker CPU bill, [rank_host_s] the slowest worker's ranking
    pass, and the counts ([evaluated]/[infeasible]/[points_pruned])
    are recomputed from the merged journals, so a resumed run reports
    the same totals as an uninterrupted one.  Points a worker's ranking
    pass rejected are never journaled; each worker's [Done] stats carry
    their count as ["rank_rejected"], and they count as [infeasible],
    as in {!tune}.  [best_cycles] and
    [default_cycles] are the usual one-per-variant validation runs,
    executed by the coordinator. *)

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
