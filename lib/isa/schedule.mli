(** Static instruction scheduling for a CPE basic block.

    This stands in for the SW26010 native compiler's annotated assembly:
    the paper's model reads predicted issue cycles, block execution time
    and average ILP from compiler annotations; we recompute the same
    facts with an in-order, dual-issue scoreboard (pipeline P0 for
    arithmetic, P1 for data motion; one instruction per pipe per cycle;
    divide/sqrt occupy P0 unpipelined).

    Loop iteration costs use steady-state analysis: re-running the block
    through the scoreboard lets upward-exposed register reads express
    loop-carried dependences (e.g. reduction accumulators) while
    freshly-written registers behave as if renamed per iteration. *)

type t = {
  issue : int array;  (** Issue cycle of every instruction (one pass). *)
  completion : int;  (** Cycle when the last result is available. *)
}

val once : Sw_arch.Params.t -> Instr.t array -> t
(** Schedule a single execution of the block from a cold scoreboard. *)

val steady_cycles : Sw_arch.Params.t -> Instr.t array -> float
(** Cycles per iteration once the loop reaches steady state. *)

val iterated_cycles : Sw_arch.Params.t -> Instr.t array -> trips:int -> float
(** Predicted cycles for [trips] back-to-back executions:
    first-iteration cost plus [(trips-1)] steady-state iterations.
    [trips = 0] is 0.  Served from {!block_costs}' shared cache. *)

val block_costs : Sw_arch.Params.t -> Instr.t array -> float * float
(** [block_costs params block] is [(first, steady)]: the completion
    cycles of one cold execution and the steady-state cycles per loop
    iteration.  Results are memoized in a process-wide
    {!Sw_util.Memo} keyed by [(params, block)] and bounded to
    {!cache_capacity} blocks, so repeated simulator and model runs
    across code variants — and across domains of a tuning pool — never
    reschedule a structurally identical block that is still resident. *)

val cache_capacity : int
(** Blocks the block-cost cache holds before it forgets the oldest.
    [Lower]'s code-block table shares this bound: the cost cache pins
    the blocks it has scheduled anyway, so a block table that matches
    it costs no extra memory. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the shared block-cost cache since start or the
    last {!clear_cache}. *)

val clear_cache : unit -> unit
(** Drop every memoized block cost (mainly for tests and benchmarks). *)

(** Flat per-block cost tables: distinct compute blocks intern to dense
    ids and their [(first, steady)] costs live in flat [float array]s,
    so a hot loop (the simulator's execution core) costs a block with
    two array reads instead of a hashtable probe.  {!Table.intern} is
    served from the same process-wide memo as
    {!block_costs}, so the table stays coherent with the static model
    and with other tuning domains. *)
module Table : sig
  type t

  val create : Sw_arch.Params.t -> t

  val intern : t -> Instr.t array -> int
  (** Dense id of the block, scheduling it (through the shared
      {!block_costs} cache) the first time it is seen. *)

  val first : t -> int -> float
  (** Completion cycles of one cold execution of the block. *)

  val steady : t -> int -> float
  (** Steady-state cycles per loop iteration of the block. *)

  val size : t -> int
  (** Number of distinct blocks interned. *)

  val iterated : t -> int -> trips:int -> float
  (** [first + (trips - 1) * steady] ([0] when [trips <= 0]) — the same
      arithmetic as {!iterated_cycles}, from the flat table. *)
end

val avg_ilp : Sw_arch.Params.t -> Instr.t array -> float
(** Average instruction-level parallelism of the steady-state schedule:
    [Σ #t × L_t / steady_cycles] (the paper's avg_ILP).  Blocks with no
    compute instructions report 1. *)
