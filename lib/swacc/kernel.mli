(** SWACC kernel descriptions.

    A kernel captures the two abstractions the SWACC programming model
    exposes (Section II-B of the paper): the {e data decomposition} — an
    outer dimension of [n_elements] distributed over CPEs — and the
    {e SPM data placement} — which arrays are copied in/out per chunk
    and at what granularity (the [tile] intrinsic, here the chunk
    [grain]).

    The per-element work is a {!Body.t} executed [body_trips_per_element]
    times, plus (for irregular kernels) data-dependent Gload requests
    described by a {!gload_spec}. *)

type direction = In | Out | Inout

type copy_freq =
  | Per_element  (** Bytes proportional to the chunk's element count. *)
  | Per_chunk  (** Fixed bytes per chunk (broadcast/shared data). *)

type layout_kind =
  | Contiguous  (** Consecutive elements are adjacent in memory. *)
  | Strided of int
      (** Each element's data is a row; consecutive rows are this many
          bytes apart (SWACC generates one DMA transfer per row). *)

type copy_spec = {
  array_name : string;
  bytes_per_elem : int;  (** Bytes per outer element (or per chunk for [Per_chunk]). *)
  direction : direction;
  freq : copy_freq;
  layout : layout_kind;
  base_addr : int;  (** Main-memory base address (see {!Layout}). *)
}

type gload_spec = {
  g_bytes : int;  (** Bytes per Gload request. *)
  count_for : int -> int;  (** Gloads needed by global element [i]. *)
  addr_for : int -> int -> int;  (** Address of the [j]-th Gload of element [i]. *)
}

type t = {
  name : string;
  n_elements : int;
  copies : copy_spec list;
  body : Body.t;
  body_trips_per_element : int;
  gloads : gload_spec option;
  ialu_per_access : int;  (** Address-arithmetic cost knob for {!Codegen}. *)
  vector_width : int;
      (** SIMD width the body is compiled at (1 = scalar, 4 = the
          256-bit vector unit).  A vector iteration covers [width]
          scalar iterations: trip counts shrink and each float
          instruction carries [width] lanes. *)
  spill_gloads : (int -> int) option;
      (** Native-compiler artifact (Section V-C1): at small copy
          granularities the compiler runs out of registers and emits
          extra Gload requests.  [spill_gloads grain] is the number of
          8-byte spill Gloads added per chunk.  Both the lowering
          summary (the model's input) and the generated program (what
          the simulator runs) include them — the model "captures such
          cases" because it reads the compiler's output. *)
}

(** Tuning knobs — the dimensions the auto-tuner searches. *)
type variant = {
  grain : int;  (** Elements per chunk (the [tile] copy granularity). *)
  unroll : int;  (** Body unroll factor. *)
  active_cpes : int;  (** CPEs in use (may span core groups). *)
  double_buffer : bool;
}


val make :
  name:string ->
  n_elements:int ->
  copies:copy_spec list ->
  body:Body.t ->
  ?body_trips_per_element:int ->
  ?gloads:gload_spec ->
  ?ialu_per_access:int ->
  ?spill_gloads:(int -> int) ->
  ?vector_width:int ->
  unit ->
  t
(** Construct and validate a kernel.
    @raise Invalid_argument on empty domain, invalid body, or
    non-positive copy sizes. *)

val spm_bytes_per_chunk : t -> grain:int -> int
(** SPM bytes a chunk of [grain] elements occupies (both directions;
    double buffering doubles this). *)

val elem_bytes_per_element : t -> int
(** DMA payload bytes per element (excludes [Per_chunk] arrays). *)

val total_chunks : t -> grain:int -> int

val chunks_of_cpe : t -> grain:int -> active_cpes:int -> cpe:int -> (int * int) list
(** [(first_element, n_elements)] chunks assigned to [cpe], round-robin
    over chunks as SWACC distributes them. *)

val effective_active_cpes : t -> grain:int -> requested:int -> int
(** CPEs that actually receive work: [min requested (total_chunks)] —
    a coarse [tile] on the outer loop starves CPEs (Section II-B). *)

val vectorize : t -> width:int -> t
(** Compile the body for the [width]-wide vector unit.  Only widths 1,
    2 and 4 exist on SW26010.
    @raise Invalid_argument on other widths. *)

val coalesce_gloads : t -> factor:int -> t
(** Memory-access coalescing, the "further optimizations to coalesce
    memory accesses" the paper calls for on irregular kernels: batch
    every [factor] consecutive Gloads of an element into one request of
    [factor * g_bytes] bytes (the data must be gathered adjacently — a
    software choice this transform assumes).  A kernel without Gloads is
    returned unchanged.

    @raise Invalid_argument if [factor < 1] or the merged request would
    exceed the 32-byte Gload limit. *)
