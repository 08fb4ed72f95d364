(** Shared helpers for workload construction. *)

val scaled : float -> int -> int
(** [scaled s n] scales a base size, keeping at least 1. *)

val copy :
  Sw_swacc.Layout.t ->
  name:string ->
  bytes_per_elem:int ->
  n_elements:int ->
  ?freq:Sw_swacc.Kernel.copy_freq ->
  ?layout:Sw_swacc.Kernel.layout_kind ->
  Sw_swacc.Kernel.direction ->
  Sw_swacc.Kernel.copy_spec
(** Allocate main memory for the array and build its copy spec.  For
    [Per_chunk] arrays, [bytes_per_elem] is the whole chunk payload and
    [n_elements] is ignored for sizing (one copy lives in memory). *)


val hash2 : int -> int -> int
(** Deterministic non-negative hash of two integers (splitmix64 mix);
    used to derive irregular degrees and addresses per element without
    storing a trace. *)
