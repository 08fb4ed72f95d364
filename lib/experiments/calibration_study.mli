(** DiffTune-style calibration study: perturb the simulator's machine
    parameters, pretend the perturbed simulator is the real hardware,
    and check that {!Sw_learn.Calibrate.fit} recovers the perturbation
    from measured cycles alone.

    The nominal Table I configuration plays the role of the published
    datasheet; the perturbed one is the machine on the floor.  A few
    dozen small-scale measurements (K-Means at two CPE counts for the
    DMA side, BFS for the gload side) are labelled under the perturbed
    configuration, then coordinate descent starts from nominal and fits
    [l_base], [delta_delay] and [mem_bw].  Success means each fitted
    value lands near its hidden truth — evidence the simulator's
    parameters are identifiable from end-to-end cycle counts, which is
    what makes calibrating it against a real SW26010 plausible. *)

type recovery = {
  r_name : string;
  r_nominal : float;  (** Starting value (Table I). *)
  r_truth : float;  (** Hidden perturbed value. *)
  r_fitted : float;  (** What the fit recovered. *)
  r_error : float;  (** [|fitted - truth| / truth]. *)
}

type result = {
  recoveries : recovery list;  (** One per fitted parameter. *)
  n_points : int;  (** Measured points the fit saw. *)
  report : Sw_learn.Calibrate.report;
}

val perturb : ?factors:(string * float) list -> Sw_sim.Config.t -> Sw_sim.Config.t
(** Apply the factors, a multiplier per parameter name, to a
    configuration (exposed for tests).  [factors] defaults to
    [l_base ×1.25], [delta_delay ×1.5], [mem_bw ×0.7]. *)

val points :
  ?scale:float -> Sw_sim.Config.t -> Sw_learn.Calibrate.point list
(** Label the study's variant mix under a (perturbed) configuration at
    [scale] (default 0.25) — the measurements the fit consumes. *)

val run :
  ?scale:float ->
  ?factors:(string * float) list ->
  ?sweeps:int ->
  unit ->
  result

val print : result -> unit
