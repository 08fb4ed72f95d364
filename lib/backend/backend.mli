(** First-class cost backends: one pluggable interface over every way
    this repository can price a code variant.

    The paper's whole argument is a comparison of cost estimators — the
    closed-form static model (Eqs. 1–12), the machine (our cycle-level
    simulator), the Section III-F hybrid, and the Section VI Roofline.
    This module makes each of them a value of the same type, so tuners,
    experiments, the CLI and the bench harness can swap estimators
    without hand-wiring [Engine.run] or [Predict.run] call sites.

    Every assessment returns either a {!verdict} — predicted or measured
    cycles plus what producing that number {e cost} (host wall/CPU
    seconds and simulated machine time) — or a typed {!infeasibility}
    (SPM overflow, too many CPEs, …) exactly where a real tuner would
    get a compile error.

    All backends are safe to share across {!Sw_util.Pool} domains:
    assessments are pure except for mutex-guarded internal caches, and
    results are deterministic regardless of assessment order. *)

(** What producing one verdict cost. *)
type cost = {
  host_wall_s : float;  (** Wall-clock seconds of this assessment. *)
  host_cpu_s : float;  (** Process CPU seconds of this assessment. *)
  machine_us : float;
      (** Simulated machine microseconds consumed (0 for purely static
          backends; the profiling bill for simulator-in-the-loop ones). *)
  machine_events : int;
      (** Simulator events processed to produce this answer (0 for
          static backends).  Successive halving uses the incumbent's
          event count as the yardstick for its rung budgets. *)
}

val zero_cost : cost

val add_cost : cost -> cost -> cost

type verdict = {
  cycles : float;
      (** The backend's reading of the variant's execution time in
          cycles — predicted (model, hybrid, roofline) or measured
          (simulator). *)
  cost : cost;
  breakdown : Swpm.Predict.t option;
      (** Model-term breakdown when the backend evaluates the
          closed-form equations (static model and hybrid); [None] for
          the simulator and Roofline. *)
}

type infeasibility = {
  backend : string;  (** Name of the backend that rejected the variant. *)
  reason : string;  (** Compile-time rejection, e.g. SPM overflow. *)
}

(** Outcome of one (possibly budgeted) assessment. *)
type assessment =
  | Assessed of verdict  (** The variant was priced in full. *)
  | Infeasible of infeasibility  (** Compile-time rejection. *)
  | Cut_off of { at : float; cost : cost }
      (** A budgeted assessment was abandoned: the backend proved the
          variant cannot beat the [cutoff] (the simulator's event clock
          passed it — [at] is a lower bound on the true cycles — or a
          static prediction exceeded it) or its [event_budget] ran out.
          [cost] is the prefix actually paid; no cycles reading is
          fabricated. *)

(** The interface every estimator implements. *)
module type S = sig
  val name : string
  (** Short registry key, e.g. ["model"] or ["sim"]. *)

  val description : string

  val assess :
    ?cutoff:float ->
    ?event_budget:int ->
    Sw_sim.Config.t ->
    Sw_swacc.Kernel.t ->
    Sw_swacc.Kernel.variant ->
    assessment
  (** Without budgets the result is never [Cut_off].  [cutoff] is
      strict: a variant whose cycles exactly equal the cutoff is still
      [Assessed] (pruned searches preserve exhaustive tie-breaking).
      Backends that don't simulate ignore [event_budget]. *)
end

type t = (module S)

val name : t -> string

val description : t -> string

val assess :
  t ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  Sw_swacc.Kernel.variant ->
  (verdict, infeasibility) result
(** Unbudgeted assessment — the plain two-way result every
    non-pruning caller wants. *)

val assess_budget :
  ?cutoff:float ->
  ?event_budget:int ->
  t ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  Sw_swacc.Kernel.variant ->
  assessment
(** Budgeted assessment (see {!S.assess}); the doorway pruned searches
    use. *)

val cycles_exn :
  t -> Sw_sim.Config.t -> Sw_swacc.Kernel.t -> Sw_swacc.Kernel.variant -> float
(** The cycles of the variant's verdict.
    @raise Invalid_argument on an infeasible variant. *)

(** {1 Implementing estimators}

    Helpers for third-party backends (the learned surrogate lives in a
    separate library and registers itself through {!register}): [timed]
    measures host wall/CPU seconds around an assessment body and builds
    the {!cost} record; [static_result] applies the strict-cutoff
    classification every closed-form estimator shares. *)

val timed :
  (unit ->
  [ `Infeasible of infeasibility
  | `Priced of float * float * int * Swpm.Predict.t option
  | `Cut of float * float * int ]) ->
  assessment
(** Run the body and stamp its outcome with measured host seconds.
    [`Priced (cycles, machine_us, machine_events, breakdown)] becomes
    {!Assessed}; [`Cut (at, machine_us, machine_events)] becomes
    {!Cut_off} with the sunk cost billed. *)

val static_result :
  ?cutoff:float ->
  float ->
  Swpm.Predict.t option ->
  [ `Infeasible of infeasibility
  | `Priced of float * float * int * Swpm.Predict.t option
  | `Cut of float * float * int ]
(** [static_result ?cutoff cycles breakdown] prices a closed-form
    prediction at zero machine time, classifying it as [`Cut] when it
    strictly exceeds the cutoff (ties are still priced, preserving
    exhaustive tie-breaking). *)

(** {1 The four estimators} *)

val static_model : t
(** ["model"]: compile a static summary ({!Sw_swacc.Lower.summarize})
    and evaluate Equations 1–12.  Runs nothing; [machine_us] is 0. *)

val simulator : t
(** ["sim"]: lower fully and run the cycle-level simulator — the
    stand-in for measuring on the machine.  [machine_us] bills the
    simulated execution itself, the quantity that made dynamic tuning
    take hours on TaihuLight. *)

val roofline : t
(** ["roofline"]: the Section VI comparator — attainable-rate reading
    from arithmetic intensity alone. *)

val hybrid : ?profile:Sw_swacc.Kernel.variant -> unit -> t
(** ["hybrid"]: the Section III-F estimator — the static model with its
    Gload term calibrated by {e one} lightweight profiling run per
    kernel.  The first assessment of a kernel with Gloads runs a single
    canonical profile variant ([profile] if given, else the first
    feasible of grain 64/32/…/1 at unroll 1) on the simulator, caches
    the resulting calibration, and bills its machine time to that one
    verdict; every later assessment of the same kernel is as cheap as
    the static model.  Kernels without Gloads never profile, so the
    hybrid degrades to {!static_model} exactly.  The calibration cache
    is mutex-guarded and keyed independently of assessment order, so
    results are identical under any {!Sw_util.Pool} fan-out.

    Each [hybrid ()] call returns a fresh instance with an empty
    calibration cache. *)

val calibrate : Sw_sim.Config.t -> Sw_swacc.Lowered.t -> Swpm.Hybrid.calibration
(** Run the given (small) lowering once on the simulator and extract
    the Gload calibration via {!Swpm.Hybrid.calibration_of} — the
    simulator-driven half of the Section III-F procedure (the pure half
    lives in {!Swpm.Hybrid}).  Kernels without Gloads calibrate to
    {!Swpm.Hybrid.no_calibration} without running anything. *)

(** {1 Observability}

    Instrumentation is strictly an observer: a wrapped backend returns
    byte-for-byte the verdicts of the backend it wraps, so tuner picks
    and experiment rows are unchanged by tracing. *)

val instrument : Sw_obs.Sink.t -> t -> t
(** [instrument sink backend] records, per assessment, one host-track
    span (category ["backend"], name ["<backend>:<kernel>"], track =
    the assessing domain — so pooled searches show per-domain lanes)
    carrying the variant and the verdict in its args, and bumps the
    counters ["backend.<name>.ok"] / ["backend.<name>.infeasible"] /
    ["backend.<name>.cutoff"] / ["backend.<name>.machine_us"] (the
    machine counter also bills cut-off prefixes).  Counter totals
    therefore reconcile exactly with {!Sw_tuning.Tuner.outcome}'s
    [evaluated], [infeasible] and [machine_time_us] accounting. *)

(** {1 Memoization}

    One verdict store serves {!memoize} and {!journal}: the same key,
    the same lookup and the same publish rule; a journal only preloads
    its table from a file and appends what it publishes.

    A memoizing wrapper keyed on the full simulation configuration
    (machine parameters included), the kernel's identity (name, element
    count, vector width) and the variant.  Verdicts {e and}
    infeasibilities are cached; a hit returns the cached verdict with
    {!zero_cost}, since the work was already paid for.  The wrapper is
    mutex-guarded and composes with {!Sw_util.Pool} fan-out: misses are
    {e single-flight} — racing misses of one key block on a condition
    until the first domain publishes, so the inner backend is asked
    once per miss and the hit/miss counters are exact under any
    concurrency (a waiter the published result answers counts as a
    hit; it did not compute).

    Budgets and the cache: a hit under an [event_budget] returns the
    cached full verdict (free, and strictly more informative than
    re-deriving a [Cut_off]).  A hit with [cutoff = Some c], no
    [event_budget] and cached cycles above [c] answers
    [Cut_off { at = cycles; cost = zero_cost }] instead, as a fresh run
    would, so a warm memo prunes exactly the points a cold one does.  A
    [Cut_off { at }] is stored as a lower bound: the engine's clock is
    monotone, so the variant costs at least [at] cycles.  A later lookup
    with [cutoff = Some c], no [event_budget] and [at > c] is a hit
    answering [Cut_off { at; cost = zero_cost }] — a run under [c] would
    be cut off too, though it might stop at a different [at]; searches
    read only whether [at > c].  Every other lookup of a bounded key
    recomputes.  A stored bound is never weakened: a re-run that raises
    or cuts off earlier (under an event budget) keeps the strongest
    bound proved so far. *)

type memo

val memoize : ?sink:Sw_obs.Sink.t -> t -> memo
(** With [sink], every hit/miss also bumps the ["memo.hits"] /
    ["memo.misses"] counters there, mirroring {!memo_hits} /
    {!memo_misses} exactly (both are incremented on the same code
    path).  A hit answered with a [Cut_off] (from a stored bound, or
    from a stored verdict past the cutoff) also bumps
    ["memo.cutoff_hits"], a subset of ["memo.hits"]. *)

val memoized : memo -> t
(** The wrapping backend (named ["memo(<inner>)"]). *)

val memo_hash : Sw_sim.Config.t -> Sw_swacc.Kernel.t -> Sw_swacc.Kernel.variant -> int
(** The hash the memo table files a key under: the kernel's name,
    element count and vector width, every variant field and the
    configuration's fault seed.  Keys still compare structurally, the
    whole configuration included, so a collision costs a comparison,
    never a wrong answer. *)

val memo_hits : memo -> int

val memo_misses : memo -> int

val memo_clear : memo -> unit

(** {1 Graceful degradation}

    Estimators can misbehave: a simulation hits its event cap
    ({!Sw_sim.Engine.Event_limit}), a fault-perturbed configuration
    deadlocks, an assessment takes longer than the tuning loop can
    afford.  These combinators turn such failures into {e policy} —
    disqualify it, degrade to a cheaper estimator — with
    every decision visible as a sink counter, so a robust tuning run
    never dies mid-sweep and never hides what it did. *)

exception Timeout of { backend : string; limit_s : float; elapsed_s : float }
(** Raised by a {!with_timeout} wrapper whose inner assessment took
    longer than the limit. *)

val with_timeout : ?sink:Sw_obs.Sink.t -> limit_s:float -> t -> t
(** [with_timeout ~limit_s b] disqualifies assessments that take more
    than [limit_s] host wall-clock seconds by raising {!Timeout}.  The
    watchdog is {e post-hoc} — OCaml cannot preempt a running
    computation, so the answer is computed, then discarded if it came
    too late; the point is to feed {!fallback} a typed failure, not to
    bound latency hard.  With [sink], bumps
    ["backend.timeout.<name>"]. *)

val fallback : ?sink:Sw_obs.Sink.t -> t list -> t
(** [fallback [sim; hybrid; model]] assesses with the first backend in
    the chain and degrades to the next whenever one {e raises}
    ({!Timeout}, {!Sw_sim.Engine.Event_limit}, deadlocks under fault
    plans, …).  [Infeasible] is a typed answer, not a failure: it is
    returned as-is.  If every backend raises, the result is an
    [Infeasible] naming the chain — a fallback chain {e never} raises.
    With [sink], each hop bumps ["backend.degraded.<name>"] (the
    backend that failed) and total exhaustion bumps
    ["backend.fallback.exhausted"].
    @raise Invalid_argument on an empty chain. *)

(** {1 Crash-safe journaling}

    A journal is the memo store above made durable: it persists what
    the store learns — every resolved assessment and every cut-off
    bound — one JSON object per line, flushed as written, so an
    interrupted tuning sweep can resume without repeating work.  Replay
    is {e exact}: cycles are serialized with 17 significant digits
    (lossless for IEEE doubles), so a resumed argmin is bit-identical
    to the uninterrupted one.  The file is bound to one simulation
    configuration by a digest in its header line; a journal written
    under different machine parameters is discarded rather than
    replayed.  A truncated final line — the kill-mid-write case — is
    ignored on replay, losing at most the single point in flight.  A
    [Cut_off { at }] is journaled as a bound, exactly as the memo keeps
    it: a resumed search that asks again under a cutoff below [at] is
    answered from the file, and any other ask re-runs the point.

    {2 Line format}

    The header, then one line per entry (shown wrapped):
{v
{"journal": "swpm", "version": 1, "config": "<digest>"}
{"kernel": "vector-add", "elems": 65536, "vw": 4, "grain": 64, "unroll": 2,
 "cpes": 64, "db": true, "status": "ok", "cycles": 18463.25,
 "machine_us": 12.5, "events": 930, "backend": "", "reason": ""}
v}
    Strings are OCaml literals (["%S"]: [String.escaped], so non-ASCII
    bytes read as [\ddd]), ints decimal, bools [true]/[false], floats
    ["%.17g"].  An [infeasible] line carries [backend] and [reason] and
    zeros for the numbers; an [ok] line the reverse.  A [cutoff] line
    carries the bound [at] in [cycles], the cut-off run's sunk cost in
    [machine_us] and [events], and empty strings; builds that predate
    it skip such a line as an unknown status.  The [ok] and
    [infeasible] lines are the
    bytes of the [Printf] formats every earlier build wrote, so journals
    replay across builds.  A reader accepts what the mirror-image
    [Scanf] format accepted: a space matches any run of blanks, ints
    may carry a sign and ['_'] separators, floats are ["%f"] tokens, and
    bytes after the closing brace are ignored.  Every strict prefix of
    a line (a torn tail) is rejected, and so is a non-finite float
    (["inf"], ["nan"]): ["%f"] never read one, so such an entry replays
    as nothing and its point is re-assessed. *)

type journal

val journal : ?sink:Sw_obs.Sink.t -> path:string -> Sw_sim.Config.t -> t -> journal
(** [journal ~path config b] opens (or resumes) the journal at [path]
    for assessments under [config]: it replays the file into a memo
    store (see {!memoize}) and wraps [b] with it.  Lines of one key fold
    as {!journal_merge} folds them.  Points already journaled are
    answered with {!zero_cost} and a [None] breakdown instead of being
    re-assessed, and a journaled bound answers as a stored one does;
    misses are single-flight, and each one that adds to the store — a
    verdict, an infeasibility, a stronger bound — is appended and
    flushed as one line.  Assessments under a {e different}
    configuration are memoized but not journaled.  With [sink],
    hits/misses bump ["journal.hits"] / ["journal.misses"], mirroring
    {!journal_hits} / {!journal_misses}, and a hit answered with a
    [Cut_off] also bumps ["journal.cutoff_hits"]. *)

val journaled : journal -> t
(** The wrapping backend (named ["journal(<inner>)"]). *)

val journal_hits : journal -> int
(** Assessments answered from the journal's store (replayed or
    repeated, cut-off bounds included) — each one is a point the
    resumed run did {e not} recompute. *)

val journal_misses : journal -> int
(** Assessments that ran the inner backend. *)

val journal_close : journal -> unit
(** Close the underlying channel (idempotent).  Writes are flushed per
    line, so this is about file descriptors, not durability. *)

(** {2 Offline journal access}

    Readers for journal files that no process holds open for
    appending — the per-shard journals of a sharded tune, say, which
    tools and the benchmark inspect (the sharded coordinator itself
    reads the workers' summaries, not their journals).  These readers
    share the resume reader above: the same header/digest check, the
    same line decoder, the same tolerance for a truncated final
    line. *)

type journal_key = {
  jk_kernel : string;
  jk_elems : int;
  jk_vw : int;
  jk_variant : Sw_swacc.Kernel.variant;
}
(** What one journal line identifies: a kernel (by name, element count
    and vector width) at one tuning variant. *)

type journal_entry =
  | Journal_ok of { cycles : float; machine_us : float; machine_events : int }
  | Journal_infeasible of { jbackend : string; jreason : string }
  | Journal_cutoff of { at : float }
      (** An assessment as journaled: priced ([cycles] round-trips
          bit-exactly), compile-time infeasible, or cut off — the
          variant costs at least [at] cycles (the file image of a memo
          bound; its line's sunk cost is not read back). *)

exception Journal_mismatch of { path : string; expected : string; found : string }
(** Raised by {!journal_merge} (without [on_issue]) when a journal file
    exists but is bound to a different configuration digest.
    [expected] is the digest of the caller's configuration; [found] is
    what the file declared. *)

(** Why a journal file could not be read.  A {e mismatched} journal is
    well-formed but bound to a different configuration — replaying it
    would be wrong; an {e unreadable} one (zero-length, garbage bytes,
    torn header) carries no usable information at all and readers fall
    back to recomputing. *)
type journal_issue =
  | Journal_mismatched of { path : string; expected : string; found : string }
  | Journal_unreadable of { path : string; reason : string }

val journal_issue_string : journal_issue -> string
(** One-line human rendering. *)

val config_digest : Sw_sim.Config.t -> string
(** The digest a journal header binds its file to (MD5 of the
    marshalled configuration, hex). *)

val journal_key_of : Sw_swacc.Kernel.t -> Sw_swacc.Kernel.variant -> journal_key
(** The key {!journal} writes for an assessment of [kernel] at
    [variant] — use it to look merged results back up. *)

val journal_header_line : Sw_sim.Config.t -> string
(** The exact header line (no newline) a fresh journal starts with. *)

val journal_entry_line : journal_key -> journal_entry -> string
(** The exact line (no newline) {!journal} appends for one resolved
    assessment — exposed so tests and tools can craft journal files
    byte-compatible with the writer.  A [Journal_cutoff] line carries
    zero sunk cost. *)

val journal_parse_line : string -> (journal_key * journal_entry) option
(** The decoder every journal reader applies to one line (no newline):
    the inverse of {!journal_entry_line}, [None] for anything else (a
    torn tail, a non-finite float, an unknown status). *)

val journal_read :
  config:Sw_sim.Config.t ->
  string ->
  ((journal_key * journal_entry) list, journal_issue) result
(** [journal_read ~config path] parses one journal file into its
    entries, in write order.  A missing file reads as [Ok []] (a worker
    that never started writing is not an error); a truncated final line
    is dropped, exactly as the resume path does.  Never raises: a
    zero-length or garbage file is [Error Journal_unreadable], a
    well-formed file bound to a different configuration is
    [Error Journal_mismatched]. *)

val journal_merge :
  ?on_issue:(journal_issue -> unit) ->
  config:Sw_sim.Config.t ->
  string list ->
  (journal_key, journal_entry) Hashtbl.t
(** [journal_merge ~config paths] folds {!journal_read} over [paths]
    into one table, lines in write order and files in [paths] order.
    Lines of one key combine by one rule, the one resume uses too: a
    verdict ([Journal_ok] or [Journal_infeasible]) beats a
    [Journal_cutoff], two cut-offs keep the larger [at], and of two
    verdicts the {e first}-written one stands — deterministic backends
    journal the same verdict everywhere, so this only matters for
    crafted inputs, but the rule is fixed so merged argmins are
    reproducible.  A file that
    fails to read contributes nothing: with [on_issue] the issue is
    reported to the callback; without it an unreadable file is skipped
    silently and a mismatched one raises {!Journal_mismatch} (a digest
    conflict is a caller bug, not an IO accident). *)

(** {1 Registry}

    String-keyed lookup for CLI flags and bench sections.  Built-ins:
    ["model"] (aliases ["static"], ["static-model"]), ["sim"] (aliases
    ["empirical"], ["simulator"]), ["hybrid"], ["roofline"].  Each
    lookup builds a fresh instance, so stateful backends (hybrid) start
    with an empty cache. *)

val register : string -> (unit -> t) -> unit
(** [register key make] adds or replaces a backend constructor. *)

val registered : unit -> string list
(** Canonical keys, in registration order (built-ins first). *)

val find : string -> t option
(** Canonical keys and aliases, case-insensitive. *)

val find_exn : string -> t
(** @raise Invalid_argument for unknown keys, listing the known ones. *)
