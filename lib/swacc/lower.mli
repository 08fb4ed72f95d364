(** Lowering: kernel + tuning variant to per-CPE programs.

    Mirrors the SWACC compiler's CPE-side code generation (Figure 3 of
    the paper): per chunk, issue one DMA per consecutive region of each
    copied-in array, wait, run the computation (with per-element Gloads
    for irregular kernels), issue the copy-out DMAs, wait.  The
    double-buffer variant issues the next chunk's copy-in before
    computing on the current one, using two SPM buffers and four DMA
    tags.

    Lowering fails (with [Error]) rather than silently producing an
    infeasible program when the chunk does not fit the SPM or the
    variant asks for more CPEs than the machine has. *)

val lower :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.t, string) result

val lower_exn : Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> Lowered.t
(** @raise Invalid_argument when {!lower} returns [Error]. *)

val summarize :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.summary, string) result
(** The compile-time half of {!lower}: generate code blocks and the
    static summary without materializing per-CPE programs.  This is all
    a static tuner needs to assess a variant, and is what makes model
    assessment so much cheaper than a profiling run. *)

val spm_required : Kernel.t -> Kernel.variant -> int
(** SPM bytes the variant needs (doubled under double buffering). *)

(** {1 Lowering cache}

    Lowering is pure, so its result is shared process-wide, keyed on
    the machine parameters, the kernel value ({e physically} — a
    [Kernel.t] carries gload closures, so only pointer identity is a
    sound key; sweeps hold one kernel value across all points, which is
    exactly when sharing pays) and the variant.  Both [Ok] and [Error]
    (infeasible) results are cached.

    {!summarize} and {!lower} build their summary through one path
    whose two halves are memoized the same way: the grain-only shape
    (DMA request groups, Gload count and bytes, the longest CPE's
    element count — the chunk walk over the fleet), keyed on
    (parameters, kernel, grain, effective active CPEs), and the code
    blocks, keyed on (kernel, unroll).  Only the compute trip counts
    are recomputed per variant, so every variant of a grain shares one
    chunk walk.

    All three tables are {!Sw_util.Memo}s (safe under {!Sw_util.Pool}
    fan-out, oldest entry forgotten first) bounded to 64 lowerings, 16
    shapes and {!Sw_isa.Schedule.cache_capacity} blocks, which covers a
    sweep's working set because the tuner's [Space.enumerate] is
    grain-major and shards keep that order: a whole unroll axis stays
    resident from one grain to the next. *)

val lower_cached :
  Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> (Lowered.t, string) result
(** {!lower} through the cache: a backend assessment and the tuner's
    winner/default re-runs of the same variant lower once. *)

val lower_cached_exn : Sw_arch.Params.t -> Kernel.t -> Kernel.variant -> Lowered.t
(** @raise Invalid_argument when {!lower_cached} returns [Error]. *)

val clear_cache : unit -> unit
(** Drop all cached lowerings, shapes and code blocks and zero the
    hit/miss counters (cold-run benchmarking). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!lower_cached} since creation or
    {!clear_cache}. *)
