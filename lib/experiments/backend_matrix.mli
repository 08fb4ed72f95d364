(** The Table II search run under every registered cost backend.

    Where {!Table2} reproduces the paper's two-way static-vs-empirical
    comparison, this experiment exercises the whole backend layer: for
    each kernel of the tuning subset, the same search space is priced
    by the ["model"], ["sim"], ["hybrid"] and ["roofline"] backends and
    every outcome is judged against the empirical (sim) pick — quality
    loss, whether the same variant was chosen, and what the search cost
    in host seconds and simulated machine microseconds. *)

type row = {
  kernel : string;
  outcome : Sw_tuning.Tuner.outcome;
  quality_loss_vs_sim : float;
      (** Relative slowdown of this backend's pick vs the empirical
          one's (0 for the sim row itself). *)
  same_pick_as_sim : bool;
}

val run :
  ?scale:float ->
  ?params:Sw_arch.Params.t ->
  ?backends:string list ->
  ?pool:Sw_util.Pool.t ->
  unit ->
  row list
(** Rows are grouped per kernel, in [backends] order within each group
    ([["model"; "sim"; "hybrid"; "roofline"]] by default).  [pool] fans each search's variant assessments out, as in
    {!Table2.run}. *)

val print : row list -> unit

val csv : row list -> Sw_util.Csv.t
