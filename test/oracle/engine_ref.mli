(** The preserved pre-optimization engine (heap of boxed events,
    per-frame block recosting, per-issue transaction routing).

    This is the reference semantics for {!Sw_sim.Engine}: every observable —
    {!Sw_sim.Metrics.t}, spans, DMA request lifetimes, retry events, cutoff
    points — must be bit-identical between the two on any (config,
    programs) input.  The differential tests and the [bench engine]
    section (events/sec gate, BENCH_engine.json) run both; nothing else
    should call this module.  Kept deliberately unoptimized. *)

exception Deadlock of string

exception Event_limit

val run : Sw_sim.Config.t -> Sw_isa.Program.t array -> Sw_sim.Metrics.t

type run_result = Finished of Sw_sim.Metrics.t | Cutoff of { at : float; events : int }

val run_budget :
  ?cutoff:float ->
  ?event_budget:int ->
  Sw_sim.Config.t ->
  Sw_isa.Program.t array ->
  run_result

val run_traced : Sw_sim.Config.t -> Sw_isa.Program.t array -> Sw_sim.Metrics.t * Sw_sim.Trace.t

val run_traced_full :
  Sw_sim.Config.t ->
  Sw_isa.Program.t array ->
  Sw_sim.Metrics.t * Sw_sim.Trace.t * Sw_sim.Trace.dma_req list * Sw_sim.Trace.dma_retry list
