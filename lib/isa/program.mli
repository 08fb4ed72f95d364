(** Per-CPE executable programs.

    A program is what the SWACC compiler's CPE-side code amounts to: a
    sequence of DMA issues and waits, scheduled compute blocks, and
    blocking global loads/stores (Gload requests).  The simulator
    ({!Sw_sim}) executes programs; the static summaries the performance
    model needs are produced by the lowering pass that generates the
    program, not recovered from it. *)

type dma_dir =
  | Get  (** Main memory to SPM (copy-in). *)
  | Put  (** SPM to main memory (copy-out). *)

type dma = { dir : dma_dir; accesses : Sw_arch.Mem_req.access list; tag : int }
(** One logical DMA request: all the transfers of one copy intrinsic,
    issued back-to-back by the CPE's DMA engine and served as one burst
    (Section III-C: "we regard the copy of all arrays in one copy
    intrinsic as one request").  Waits name [tag]s. *)

val dma_payload : dma -> int
(** Useful bytes of the request (sum over its accesses). *)

type item =
  | Dma_issue of dma  (** Asynchronous DMA call. *)
  | Dma_wait of int  (** Block until every DMA with this tag completed. *)
  | Dma_wait_all  (** Block until all outstanding DMAs completed. *)
  | Compute of { block : Instr.t array; trips : int }
      (** Execute the scheduled block [trips] times back-to-back. *)
  | Gload of { addr : int; bytes : int }
      (** Blocking global load ("ld" bypassing SPM); at most
          {!Sw_arch.Params.t.gload_max_bytes} bytes. *)
  | Gstore of { addr : int; bytes : int }
      (** Global store; modelled with the same cost as a Gload request. *)
  | Repeat of { trips : int; body : item array }
      (** Loop.  DMA tags must be balanced within the body. *)

type t = item array

val length_flat : t -> int
(** Number of leaf items after loop expansion (guards against
    accidentally gigantic programs in tests). *)

val gload_count : t -> int
(** Total Gload + Gstore requests after loop expansion. *)

val dma_issue_count : t -> int
(** Total DMA calls after loop expansion. *)

val instr_counts : t -> Instr.Counts.t
(** Aggregate instruction histogram over all compute items (with trip
    multiplicities). *)

val compute_cycles : Sw_arch.Params.t -> t -> float
(** Static compute time of the program: sum of
    {!Schedule.iterated_cycles} over compute items. *)

val dma_payload_bytes : t -> int
(** Useful bytes moved by all DMA calls (both directions). *)

val validate : Sw_arch.Params.t -> t -> (unit, string) result
(** Structural checks: positive trip counts, Gload/Gstore sizes within
    [gload_max_bytes], no empty compute blocks, and every issued DMA tag
    is eventually awaited (directly or by a [Dma_wait_all]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing (loops summarized). *)
