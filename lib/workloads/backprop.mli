(** Backpropagation weight adjustment (Rodinia). *)

val hidden : int

val kernel : scale:float -> Sw_swacc.Kernel.t
(** Build the kernel at the given scale (1.0 = the documented
    evaluation size). *)

val variant : Sw_swacc.Kernel.variant
(** Hand-tuned default configuration. *)

val grains : int list
(** Tuning search space: copy granularities. *)

val unrolls : int list
(** Tuning search space: unroll factors. *)
