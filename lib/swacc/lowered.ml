type dma_group = { payload_bytes : int; mrt : int; count : float; transfers : int }

type compute_summary = { block : Sw_isa.Instr.t array; trips : int }

type summary = {
  active_cpes : int;
  dma_groups : dma_group list;
  gload_count : int;
  gload_bytes : int;
  computes : compute_summary list;
  vector_width : int;
  double_buffered : bool;
}

type t = {
  kernel_name : string;
  programs : Sw_isa.Program.t array;
  summary : summary;
  spm_bytes_per_cpe : int;
}

let dma_requests_per_cpe s = List.fold_left (fun acc g -> acc +. g.count) 0.0 s.dma_groups

let avg_mrt s =
  let reqs = dma_requests_per_cpe s in
  if reqs <= 0.0 then 1.0
  else begin
    let weighted =
      List.fold_left (fun acc g -> acc +. (float_of_int g.mrt *. g.count)) 0.0 s.dma_groups
    in
    weighted /. reqs
  end

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>active CPEs : %d@,DMA requests: %.1f (avg MRT %.2f)@," s.active_cpes
    (dma_requests_per_cpe s) (avg_mrt s);
  Format.fprintf fmt "gloads      : %d x %dB@," s.gload_count s.gload_bytes;
  List.iteri
    (fun i c ->
      Format.fprintf fmt "compute[%d]  : %d instrs x %d trips@," i (Array.length c.block) c.trips)
    s.computes;
  Format.fprintf fmt "double buf  : %b@]" s.double_buffered
