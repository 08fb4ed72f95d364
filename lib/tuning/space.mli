(** Tuning search space: the cartesian product of copy granularities
    (the paper's [tile]), unroll factors, and optionally double
    buffering — the dimensions Section V-D searches.

    Infeasible points (SPM overflow) are kept in the enumeration and
    rejected by lowering, exactly as a real tuner discovers them at
    compile time; {!feasible} pre-filters when wanted. *)

type point = { grain : int; unroll : int; double_buffer : bool }

type axes = { grains : int list; unrolls : int list; double_buffers : bool list }
(** A product space by its axes, before any point is built. *)

val fold : axes -> ('a -> point -> 'a) -> 'a -> 'a
(** Folds over every combination in enumeration order (grain-major,
    then unroll, then double buffering) without building the list. *)

val enumerate :
  grains:int list -> unrolls:int list -> ?double_buffers:bool list -> unit -> point list
(** All combinations, in {!fold}'s order.  [double_buffers] defaults
    to [\[false\]]. *)

val to_variant : point -> active_cpes:int -> Sw_swacc.Kernel.variant

val feasible :
  Sw_arch.Params.t -> Sw_swacc.Kernel.t -> active_cpes:int -> point list -> point list
(** Points whose chunk fits the SPM. *)

val size : grains:int list -> unrolls:int list -> ?double_buffers:bool list -> unit -> int

val range : ?step:int -> int -> int -> int list
(** [range lo hi] is the inclusive integer range, [step] apart (default
    1) — the product-space generator the synthetic million-point bench
    spaces are built from.
    @raise Invalid_argument when [step < 1]. *)

val parse_axis : string -> (int list, string) result
(** One product-space axis from the command line: ["lo..hi"],
    ["lo..hi:step"], or a comma list ["a,b,c"] (a single integer is a
    one-element list).  Values must be positive; errors name the
    offending axis. *)
