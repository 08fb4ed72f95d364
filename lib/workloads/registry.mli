(** Catalog of all benchmark kernels.

    The Rodinia-style suite the paper evaluates on (Section V-A), plus
    the two WRF kernels and the vector-add example.  Every entry builds
    deterministically from a scale factor, so experiments are
    reproducible; [scale = 1.0] is the default evaluation size
    (documented in EXPERIMENTS.md; smaller than the paper's inputs so
    everything runs in seconds on a laptop). *)

type kind = Regular | Irregular

type entry = {
  name : string;
  kind : kind;
  description : string;
  build : scale:float -> Sw_swacc.Kernel.t;
  variant : Sw_swacc.Kernel.variant;  (** Hand-tuned default configuration. *)
  grains : int list;  (** Tuning search space: copy granularities. *)
  unrolls : int list;  (** Tuning search space: unroll factors. *)
}

val all : entry list
(** Every kernel, Rodinia suite first. *)

val rodinia : entry list
(** The 13 Rodinia-style kernels (Fig. 6 population). *)

val tuning_subset : entry list
(** The five Table-II kernels: kmeans, cfd, lud, hotspot, backprop. *)

val find : string -> entry option

val find_exn : string -> entry
(** @raise Not_found for unknown names. *)

val names : unit -> string list

val check_scale : float -> (unit, string) result
(** The one check of a requested scale, shared by the CLI and every
    request the daemon serves: [Error] for a scale that is not finite,
    not positive, or above 2^16 = 65536.  [Build_util.scaled] would
    clamp any of them to a minimum-size kernel.  The bound keeps a wide
    margin under overflow: the first kernel whose sizes leave an [int]
    is vector-add at 2^38, and the lowering and the model take further
    products of those sizes. *)
