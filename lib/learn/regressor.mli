(** Ridge regression on standardized features — the learned half of the
    surrogate backend.

    Everything is solved in-process with dense normal equations
    (Gaussian elimination with partial pivoting over a [dim x dim]
    system; feature vectors here are ~20 wide, so this is microseconds),
    no external dependencies.  Fitting standardizes each feature column
    (degenerate columns get unit scale and a zero weight, so constant
    features are harmless), optionally fits the target in log space
    ({!Log}, the right choice for cycle counts spanning orders of
    magnitude), and penalizes weights — never the intercept — by
    [lambda].

    Models serialize to {!Sw_obs.Json} and round-trip exactly
    ([to_string] floats are shortest-exact). *)

type transform =
  | Identity
  | Log  (** Fit [log y]; predictions are mapped back with [exp]. *)

type t = {
  mean : float array;  (** Per-feature standardization mean. *)
  std : float array;  (** Per-feature scale ([1.0] for degenerate columns). *)
  weights : float array;  (** Per standardized feature. *)
  intercept : float;
  transform : transform;
  lambda : float;
}

val fit :
  ?lambda:float -> ?transform:transform -> float array array -> float array -> t
(** [fit xs ys] with [lambda] defaulting to [0.05] and [transform] to
    {!Log}.  Under {!Log}, non-positive targets are clamped to a tiny
    positive value first.
    @raise Invalid_argument on empty or ragged input. *)

val predict : t -> float array -> float
(** Always finite, and strictly positive under {!Log}. *)

(** {1 Standardization}

    Exposed for the property tests: standardizing with the moments of a
    sample and inverting is the identity on that sample. *)

val moments : float array array -> float array * float array
(** [(mean, std)] per column; [std] is [1.0] where the column is
    constant (or the sample has a single row). *)

val standardize : mean:float array -> std:float array -> float array -> float array

val unstandardize : mean:float array -> std:float array -> float array -> float array

(** {1 Validation} *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (average ranks on ties).  [1.0] for
    fewer than two points; [0.0] when either side is constant. *)

type cv = {
  folds : int;
  n : int;  (** Points cross-validated. *)
  mape : float;  (** Pooled held-out MAPE, raw (untransformed) space. *)
  rank_correlation : float;  (** Pooled held-out Spearman rho. *)
}

val cross_validate :
  ?k:int -> ?lambda:float -> ?transform:transform -> float array array -> float array -> cv
(** Deterministic [k]-fold (default 5, capped at [n]) cross-validation:
    fold membership is [index mod k], each fold is predicted by a model
    fitted on the others, and the held-out (prediction, truth) pairs are
    pooled for MAPE and Spearman rho.
    @raise Invalid_argument when there are fewer than two points. *)

(** {1 Persistence} *)

val of_json : Sw_obs.Json.t -> (t, string) result

val save : t -> string -> unit

val load : string -> (t, string) result
