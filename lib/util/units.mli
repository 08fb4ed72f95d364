(** Unit conversions between cycles, seconds and bytes.

    The simulator and the model both work in CPE clock cycles; reports
    convert to wall-clock time at the configured frequency. *)

val cycles_to_seconds : freq_hz:float -> float -> float
(** [cycles_to_seconds ~freq_hz c] is [c /. freq_hz]. *)

val cycles_to_us : freq_hz:float -> float -> float
(** Microseconds. *)

val seconds_to_cycles : freq_hz:float -> float -> float

val bytes_per_cycle : bandwidth_bytes_per_s:float -> freq_hz:float -> float
(** Sustained memory bytes per CPE cycle. *)

val pp_cycles : Format.formatter -> float -> unit
(** Human-readable cycle count ("1.25 Mcyc"). *)

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count ("64.0 KiB"). *)
