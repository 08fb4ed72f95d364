(** WRF dynamics surrogate — the memory-intensive Fig. 9 kernel.

    The kernel depends on the active-CPE count: rows are sliced across
    CPEs, and past ~64 CPEs the slice drops below the DRAM transaction
    size, wasting bandwidth on padding (Section IV-3). *)

val row_bytes : int

val base_rows : int

val slice_bytes : active:int -> int
(** Per-CPE slice of one row.
    @raise Invalid_argument when [active] does not divide the row. *)

val supported_active : int list
(** The Fig. 9 sweep points (divisors of the row). *)

val kernel : ?active:int -> scale:float -> unit -> Sw_swacc.Kernel.t

val variant : Sw_swacc.Kernel.variant

val grains : int list

val unrolls : int list
