(** Search strategies: how a tuner walks its space.

    The paper's pitch is that a precise static model makes auto-tuning
    affordable because a model evaluation is orders of magnitude
    cheaper than a measurement.  This module turns that argument into
    search structure: instead of paying the expensive backend
    (simulator, hybrid) for {e every} point, a strategy decides which
    points deserve a full-fidelity assessment and what budget each one
    gets.

    All strategies compose with {!Sw_util.Pool} (deterministic at any
    pool size) and with an observability sink, and none of them ever
    fabricates a cycles number: a point is either {!Priced} by the real
    backend, {!Rejected} at compile time, or {!Pruned} with only its
    sunk cost recorded. *)

(** When a ranked search stops verifying. *)
type stop =
  | One_rung  (** Verify the first rung only: a fixed budget of [k] points. *)
  | Quiet_rung
      (** Keep verifying rungs of [k] until one completes without
          strictly beating the bar (see {!Ranked}). *)

(** How a ranked search scores the points it verified. *)
type score =
  | Nominal  (** The verifier's cycles, under the running cutoff. *)
  | Quantile of { seeds : int list; quantile : float; spec : Sw_fault.Fault.spec }
      (** The [quantile] ([1.0] = worst case) of the point's cycles
          under one {!Sw_fault.Fault.plan} per seed; a plan under which
          a point fails outright scores infinity.  Turns cutoff pruning
          off. *)

(** A strategy.  The type is private: the smart constructors below are
    the only way in, so every value has passed their checks. *)
type t = private
  | Exhaustive
      (** Assess every point with the main backend — the pre-strategy
          behaviour, bit-identical at any pool size. *)
  | Ranked of { rank : Sw_backend.Backend.t; k : int; stop : stop; score : score }
      (** Rank the whole space with the cheap [rank] backend (default
          the static model), then verify the ranked order with the main
          backend, best first, in rungs of [k] points.  The bar is
          min(local incumbent, link cutoff), read before each
          verification; under [Nominal] scoring it is the verification's
          strict cutoff, so losing verifications abandon early.

          - [One_rung] ({!shortlist}) verifies the [k] best-ranked
            points.  It returns the same best variant as [Exhaustive]
            whenever the ranker's top-[k] contains the true argmin — the
            paper's model is precise enough that a quarter of the space
            suffices on every Table II kernel.
          - [Quiet_rung] ({!adaptive_shortlist}) stops after the first
            rung in which no verification strictly beat the bar; while
            the bar is unset, a rung never ends the search (seeding the
            first incumbent is not an improvement).  A well-ranked space
            verifies exactly [k] points, a misranked one keeps paying
            one rung at a time, and a shard whose every verification the
            global incumbent cuts off stops after one rung.
          - [Quantile] scoring ({!robust}) fully prices every verified
            point, then rescores it over the fault plans, so the
            downstream argmin picks min-of-worst-case — the schedule
            whose bad days are cheapest — instead of the nominal
            winner. *)
  | Successive_halving of { rungs : int }
      (** Race all points through [rungs] rounds of growing
          event-budget, halving the field between rounds by partial
          progress; the final rung runs unmetered under the incumbent
          cutoff.  [rungs <= 1] degrades to [Exhaustive] exactly. *)

val exhaustive : t

val shortlist : ?rank:Sw_backend.Backend.t -> k:int -> unit -> t
(** [Ranked] with [One_rung] and [Nominal] scoring.  [rank] defaults to
    {!Sw_backend.Backend.static_model}. *)

val adaptive_shortlist : ?rank:Sw_backend.Backend.t -> k:int -> unit -> t
(** [Ranked] with [Quiet_rung] and [Nominal] scoring.  [rank] defaults
    to {!Sw_backend.Backend.static_model}.
    @raise Invalid_argument when [k < 1]. *)

val successive_halving : rungs:int -> t
(** @raise Invalid_argument when [rungs < 1]. *)

val robust :
  ?rank:Sw_backend.Backend.t ->
  k:int ->
  seeds:int list ->
  ?quantile:float ->
  ?spec:Sw_fault.Fault.spec ->
  unit ->
  t
(** [Ranked] with [One_rung] and [Quantile] scoring.  [rank] defaults
    to the static model, [quantile] to [1.0] (worst case), [spec] to
    {!Sw_fault.Fault.default}.
    @raise Invalid_argument on an empty seed list or a quantile outside
    [(0, 1]]. *)

val name : t -> string
(** Human/JSON label: ["exhaustive"], ["shortlist(model,k=6)"],
    ["adaptive(surrogate,k=6)"], ["successive-halving(rungs=3)"],
    ["robust(model,k=6,seeds=8,q=1.00)"]. *)

(** What the search decided about one point. *)
type result_ =
  | Priced of Sw_backend.Backend.verdict  (** Fully assessed by the main backend. *)
  | Rejected of Sw_backend.Backend.infeasibility  (** Compile-time infeasible. *)
  | Pruned of Sw_backend.Backend.cost
      (** Skipped (never assessed, zero cost) or abandoned mid-run (the
          sunk prefix cost, summed across successive-halving rungs). *)

type link = { publish : float -> unit; current : unit -> float option }
(** A cutoff link lets a search prune against an incumbent held {e
    outside} the process — the sharded tuner's coordinator rebroadcasts
    the best cycles seen by any worker, and each worker folds it (min)
    into its local incumbent before every verification.  [current] is
    polled per verification; [publish] fires whenever the local
    incumbent strictly improves (including its seeding).  The link is
    purely advisory: cutoffs stay strict, so a stale, lossy or absent
    remote value costs extra verifications, never the argmin.
    [Successive_halving] and [Ranked] with [Nominal] scoring prune on
    the remote cutoff, and [Quiet_rung] also counts it in its stop
    rule.  [Quantile] scoring publishes its incumbents but never prunes
    on the cutoff (cutoff pruning is off by design); [Exhaustive]
    (price everything) only ticks the link for liveness. *)

type stats = {
  strategy : string;  (** {!name} of the strategy that ran. *)
  pruned : int;  (** Points with a [Pruned] result. *)
  rank_host_s : float;  (** Host seconds of the shortlist ranking pass (0 otherwise). *)
  rank_machine_us : float;
      (** Machine time billed by the ranking backend (0 for the static
          model; nonzero if a simulating backend ranks). *)
}

val run :
  t ->
  backend:Sw_backend.Backend.t ->
  active_cpes:int ->
  ?pool:Sw_util.Pool.t ->
  ?obs:Sw_obs.Sink.t ->
  ?link:link ->
  Sw_sim.Config.t ->
  Sw_swacc.Kernel.t ->
  points:Space.point list ->
  (Space.point * result_) list * stats
(** Run the strategy over [points].  Results come back in enumeration
    order, one per input point, so the caller's argmin (strict [<],
    earliest index wins) sees exactly the exhaustive ordering.

    With [obs], the search bumps ["search.pruned"] (points pruned),
    ["search.rungs"] (rounds raced: one per verified rung of a
    [Ranked] search — 1 for shortlist and robust — and one per
    successive-halving round) and ["search.robust_assessments"]
    (fault-plan re-assessments under [Quantile] scoring); per-assessment
    telemetry comes from wrapping [backend] with
    {!Sw_backend.Backend.instrument} before calling.

    Determinism: for every strategy the result list — and therefore
    the argmin — is identical at any pool size.  [Exhaustive] is
    furthermore bit-identical to the pre-strategy tuner. *)
