(** Deterministic fault planning: seeded perturbations of a simulator
    configuration.

    A {!spec} describes {e how much} misbehaviour to inject; {!plan}
    turns it into a concrete, validated {!Sw_sim.Config.t} — jittered
    machine parameters plus a {!Sw_sim.Config.faults} record (transient
    DMA failures, straggler CPEs, throttled memory-controller windows)
    the engine resolves with modeled retry and exponential backoff.

    Everything is a pure function of [(spec, seed, config)]: the same
    triple yields the same perturbed configuration, and the engine's own
    failure draws are seeded from the plan, so a faulty run is exactly
    as reproducible as a fault-free one.  This is what lets the robust
    search ({!Sw_tuning.Search.robust}) and the robustness study re-rank
    candidate schedules under a {e fixed} set of adverse worlds instead
    of chasing noise. *)

type spec = {
  latency_jitter : float;
      (** Relative jitter on [l_base]: drawn uniformly in
          [[1-j, 1+j)].  [0] leaves latency nominal. *)
  bandwidth_jitter : float;
      (** Relative jitter on [mem_bw_bytes_per_s], same convention. *)
  dma_fail_prob : float;
      (** Per-admission transient DMA failure probability, in [[0,1)]. *)
  dma_max_retries : int;  (** Retry budget before a request is forced through. *)
  dma_backoff_cycles : int;  (** First-retry backoff; doubles per attempt. *)
  n_stragglers : int;  (** Distinct CPEs retiring compute slower. *)
  straggler_slowdown : float;
      (** Compute-time multiplier for each straggler ([>= 1]; [1]
          disables the channel). *)
  n_throttles : int;  (** Throttled memory-controller windows to place. *)
  throttle_depth : float;
      (** Bandwidth factor inside each window ([(0,1]]; [1] disables
          the channel). *)
  throttle_horizon : float;
      (** Cycle range the windows are placed in: starts are uniform in
          [[0, 0.75h)], lengths in [[0.05h, 0.25h)]. *)
}

val none : spec
(** Identity: {!plan} with [none] returns the input configuration with
    only {!Sw_sim.Config.no_faults}-equivalent fault state (still
    validated). *)

val mild : spec
(** Small perturbations: 5% parameter jitter, 1% DMA failure rate, one
    mild straggler, one shallow throttle window. *)

val harsh : spec
(** Hostile machine: 15% jitter, 5% DMA failures, four 1.5x stragglers,
    two half-bandwidth windows. *)

val default : spec
(** [mild]. *)

val of_string : string -> spec option
(** ["none"], ["mild"] (or ["default"]), ["harsh"]. *)

val plan : ?spec:spec -> seed:int -> Sw_sim.Config.t -> Sw_sim.Config.t
(** [plan ~seed config] is a validated perturbation of [config]:
    jittered [l_base] and memory bandwidth, [spec]'s DMA-failure
    channel seeded with [seed], [n_stragglers] distinct CPEs chosen by
    a seeded shuffle, and [n_throttles] windows placed inside
    [throttle_horizon].  Deterministic in [(spec, seed, config)]; the
    PRNG stream is consumed identically for every spec, so plans at
    different severity levels are comparable draw-for-draw per seed.
    Raises {!Sw_sim.Config.Invalid_config} if [spec] describes an
    invalid fault state (e.g. [dma_fail_prob > 0] with a zero retry
    budget). *)

(** Deterministic {e process-level} fault plans for the sharded tuning
    path.  Where {!plan} perturbs the simulated machine, a chaos plan
    perturbs the worker processes themselves: SIGKILL after [n] journal
    lines, a pipe stall, a corrupted journal tail, dropped or
    duplicated incumbent-link lines.  Plans travel between processes as
    a compact spec string in the [SWPM_CHAOS] environment variable
    ({!Chaos.env_var}), honored by [swmodel shard-worker]; with
    {!Chaos.generate} the whole scenario is a pure function of a seed,
    so every failure replays exactly. *)
module Chaos : sig
  type action =
    | Kill_after of int
        (** SIGKILL the worker once it has written this many {e new}
            journal lines (replayed hits don't count). *)
    | Stall_after of { lines : int; secs : float }
        (** Sleep [secs] (no heartbeats, no progress) after [lines]
            new journal lines — a hung pipe.  Short stalls resume;
            stalls longer than the supervisor's progress deadline get
            the worker killed and relaunched. *)
    | Corrupt_journal of { mode : string }
        (** Damage the shard journal at worker startup, before it is
            opened: ["tail"] tears the last entry mid-line (the shape a
            mid-write SIGKILL produces), ["garbage"] overwrites the
            file with non-JSON bytes, ["zero"] truncates it to empty. *)
    | Drop_incumbents of int  (** Silently drop every k-th incumbent line. *)
    | Dup_incumbents of int  (** Write every k-th incumbent line twice. *)

  type cplan = { shard : int; sticky : bool; action : action }
  (** One plan, targeting one shard.  Kills and stalls fire only in the
      worker's first incarnation unless [sticky] (a sticky kill re-arms
      after every relaunch, exhausting the restart budget — the
      quarantine path); corruption and link loss stay armed in every
      incarnation. *)

  type t = cplan list

  val env_var : string
  (** ["SWPM_CHAOS"] — carries {!to_spec} output to worker processes. *)

  val incarnation_var : string
  (** ["SWPM_CHAOS_INCARNATION"] — set by the supervisor on each
      relaunch (0 for the first launch), so non-[sticky] kills and
      stalls fire exactly once. *)

  val to_spec : t -> string
  (** Spec grammar: semicolon-separated plans, each
      [kind:key=val,...] — e.g.
      ["kill:shard=0,after=6;stall:shard=1,after=3,secs=2.5"].
      Kinds: [kill] ([after]), [stall] ([after], [secs]), [corrupt]
      ([mode]), [drop]/[dup] ([every]); any plan takes [sticky=1]. *)

  val parse : string -> (t, string) result
  (** Inverse of {!to_spec}; [Ok []] for the empty string. *)

  val of_env : unit -> t
  (** Parse {!env_var} from the environment; unset, empty or malformed
      (with a warning on stderr) yields []. *)

  val incarnation : unit -> int
  (** Parse {!incarnation_var} from the environment; defaults to 0. *)

  val armed : shard:int -> incarnation:int -> t -> action list
  (** The actions a worker must apply: plans targeting [shard],
      filtered by the incarnation rule on {!cplan}. *)

  val generate : seed:int -> shards:int -> t
  (** A deterministic scenario drawn from [seed]: one victim shard and
      one failure mode (kill, short stall, long stall, kill+corrupt,
      link drop, link dup, or a sticky kill that forces quarantine). *)

  val corrupt_file : mode:string -> string -> bool
  (** Apply a {!Corrupt_journal} mode to a file in place; [false] when
      the file does not exist. *)
end
