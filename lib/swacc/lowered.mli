(** Lowering artifacts: executable programs plus the static summary.

    The summary records exactly the facts the paper's model reads from
    the SWACC compiler and the annotated assembly — logical DMA requests
    (one per copy intrinsic, Section III-C) with their Equation-5 MRT,
    Gload counts, and compute blocks with trip counts.  The performance
    model consumes the summary; the simulator consumes the programs.
    Nothing in the summary comes from executing anything. *)

type dma_group = {
  payload_bytes : int;  (** Useful bytes of one such request. *)
  mrt : int;  (** Transactions of one such request (Eq. 5, alignment-aware). *)
  count : float;
      (** Requests of this shape per CPE, averaged over the active CPEs
          (fractional when alignment makes some CPEs' requests heavier:
          Eq. 4's wave size is the fleet total, [active * avg]). *)
  transfers : int;
      (** Individual array transfers composing one such request (one per
          copied array of the copy intrinsic); used by model ablations
          that undo the request grouping. *)
}

type compute_summary = {
  block : Sw_isa.Instr.t array;
  trips : int;  (** Total executions on the longest-path CPE. *)
}

type summary = {
  active_cpes : int;
  dma_groups : dma_group list;
  gload_count : int;  (** Longest-path per-CPE Gload/Gstore requests. *)
  gload_bytes : int;  (** Bytes per Gload (0 if none). *)
  computes : compute_summary list;
  vector_width : int;  (** SIMD lanes per float instruction (1, 2 or 4). *)
  double_buffered : bool;
}

type t = {
  kernel_name : string;
  programs : Sw_isa.Program.t array;  (** One per active CPE. *)
  summary : summary;
  spm_bytes_per_cpe : int;  (** SPM footprint of the chosen variant. *)
}

val dma_requests_per_cpe : summary -> float
(** Logical DMA requests per CPE (fleet average). *)

val avg_mrt : summary -> float
(** Request-weighted average MRT (Equation 12); 1.0 when no DMA. *)

val pp_summary : Format.formatter -> summary -> unit
