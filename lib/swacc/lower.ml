module Program = Sw_isa.Program
module Mem_req = Sw_arch.Mem_req

let spm_required kernel (variant : Kernel.variant) =
  let base = Kernel.spm_bytes_per_chunk kernel ~grain:variant.grain in
  if variant.double_buffer then 2 * base else base

(* Main-memory access of one array for a chunk of [n] elements starting
   at global element [first]. *)
let chunk_access (c : Kernel.copy_spec) ~first ~n =
  match c.freq with
  | Kernel.Per_chunk -> Mem_req.contiguous ~addr:c.base_addr ~bytes:c.bytes_per_elem
  | Kernel.Per_element -> (
      match c.layout with
      | Kernel.Contiguous ->
          Mem_req.contiguous ~addr:(c.base_addr + (first * c.bytes_per_elem))
            ~bytes:(n * c.bytes_per_elem)
      | Kernel.Strided stride ->
          Mem_req.strided ~addr:(c.base_addr + (first * stride)) ~row_bytes:c.bytes_per_elem
            ~stride ~rows:n)

let is_in (c : Kernel.copy_spec) = match c.direction with Kernel.In | Kernel.Inout -> true | Kernel.Out -> false

let is_out (c : Kernel.copy_spec) = match c.direction with Kernel.Out | Kernel.Inout -> true | Kernel.In -> false

(* Compute items for the elements [first, first+n): per-element Gloads
   interleaved with per-element compute when the kernel is irregular,
   otherwise a single fused compute over the chunk. *)
let ceil_div a b = (a + b - 1) / b

(* scalar iterations -> vector iterations *)
let vector_iters kernel n = ceil_div n kernel.Kernel.vector_width

let compute_items kernel ~(blocks : Sw_isa.Instr.t array * Sw_isa.Instr.t array) ~unroll ~first ~n =
  let block_u, block_r = blocks in
  let per_elem_trips = kernel.Kernel.body_trips_per_element in
  let mk_compute total_scalar_iters =
    let total_iters = vector_iters kernel total_scalar_iters in
    let trips_u, rem = Codegen.trips_for ~total_iters ~unroll in
    let items = ref [] in
    if trips_u > 0 then items := Program.Compute { block = block_u; trips = trips_u } :: !items;
    if rem > 0 then items := Program.Compute { block = block_r; trips = rem } :: !items;
    List.rev !items
  in
  match kernel.Kernel.gloads with
  | None -> mk_compute (n * per_elem_trips)
  | Some g ->
      List.concat
        (List.init n (fun k ->
             let elem = first + k in
             let loads =
               List.init (g.Kernel.count_for elem) (fun j ->
                   Program.Gload { addr = g.Kernel.addr_for elem j; bytes = g.Kernel.g_bytes })
             in
             loads @ mk_compute per_elem_trips))

(* Register-spill Gloads the native compiler emits at small copy
   granularities (Section V-C1); addresses fall in the first array's
   chunk region. *)
let spill_items kernel ~grain ~first =
  match (kernel.Kernel.spill_gloads, kernel.Kernel.copies) with
  | None, _ | _, [] -> []
  | Some f, c :: _ ->
      let count = Stdlib.max 0 (f grain) in
      let base = c.Kernel.base_addr + (first * c.Kernel.bytes_per_elem) in
      List.init count (fun j -> Program.Gload { addr = base + (j * 8); bytes = 8 })

(* Synchronous schedule: copy-in, wait, compute, copy-out, wait. *)
(* All transfers of one copy intrinsic form one logical DMA request. *)
let group_issue kernel ~pred ~dir ~tag (first, n) =
  let accesses =
    List.filter_map
      (fun c -> if pred c then Some (chunk_access c ~first ~n) else None)
      kernel.Kernel.copies
  in
  if accesses = [] then [] else [ Program.Dma_issue { dir; accesses; tag } ]

let sync_chunk kernel ~blocks ~unroll (first, n) =
  let ins = group_issue kernel ~pred:is_in ~dir:Program.Get ~tag:0 (first, n) in
  let outs = group_issue kernel ~pred:is_out ~dir:Program.Put ~tag:0 (first, n) in
  let wait_in = if ins = [] then [] else [ Program.Dma_wait 0 ] in
  let wait_out = if outs = [] then [] else [ Program.Dma_wait 0 ] in
  ins @ wait_in
  @ spill_items kernel ~grain:n ~first
  @ compute_items kernel ~blocks ~unroll ~first ~n
  @ outs @ wait_out

(* Double-buffered schedule over a CPE's chunk list.  Buffer b of chunk k
   is k mod 2; tags: in_tag b = b, out_tag b = 2 + b. *)
let double_buffered_items kernel ~blocks ~unroll chunks =
  let in_tag b = b and out_tag b = 2 + b in
  let issues ~pred ~dir ~tag chunk = group_issue kernel ~pred ~dir ~tag chunk in
  let chunks = Array.of_list chunks in
  let nchunks = Array.length chunks in
  if nchunks = 0 then []
  else begin
    let items = ref [] in
    let push is = items := List.rev_append is !items in
    push (issues ~pred:is_in ~dir:Program.Get ~tag:(in_tag 0) chunks.(0));
    for k = 0 to nchunks - 1 do
      let b = k mod 2 in
      push [ Program.Dma_wait (in_tag b) ];
      if k + 1 < nchunks then begin
        let b' = (k + 1) mod 2 in
        (* the next copy-in reuses buffer b'; its previous copy-out must
           have drained first *)
        push [ Program.Dma_wait (out_tag b') ];
        push (issues ~pred:is_in ~dir:Program.Get ~tag:(in_tag b') chunks.(k + 1))
      end;
      let first, n = chunks.(k) in
      push (spill_items kernel ~grain:n ~first);
      push (compute_items kernel ~blocks ~unroll ~first ~n);
      push (issues ~pred:is_out ~dir:Program.Put ~tag:(out_tag b) chunks.(k))
    done;
    push [ Program.Dma_wait_all ];
    List.rev !items
  end

(* ------------------------------------------------------------------ *)
(* Static summary for the longest-path CPE, in two halves.

   The chunk walk over the whole fleet depends only on the machine
   (transaction size), the kernel, the grain and the effective CPE
   count: its result, the [shape], is shared by every unroll and
   double-buffer variant of one grain.  The compute entries depend only
   on the longest CPE's element count and the unroll, so they are
   rebuilt per variant for the price of one division. *)

type shape = {
  dma_groups : Lowered.dma_group list;
  gload_count : int;
  gload_bytes : int;
  longest_elems : int;  (* elements of the longest-path CPE *)
}

let walk_shape params kernel ~grain ~active =
  let per_cpe_chunks =
    Array.init active (fun cpe -> Kernel.chunks_of_cpe kernel ~grain ~active_cpes:active ~cpe)
  in
  let trans_size = params.Sw_arch.Params.trans_size in
  (* computation follows the longest path (the CPE with the most
     elements); DMA request shapes are tallied over the whole fleet and
     averaged per CPE — Eq. 4's request wave is the fleet total, and
     alignment can make some CPEs' requests heavier than others *)
  let cpe_elems = Array.map (fun chunks -> List.fold_left (fun a (_, n) -> a + n) 0 chunks) per_cpe_chunks in
  let longest = ref 0 in
  Array.iteri (fun i n -> if n > cpe_elems.(!longest) then longest := i) cpe_elems;
  (* one logical request per copy intrinsic per chunk: group identical
     shapes; the static transaction count is alignment-aware — the
     compiler knows bases and strides, and stride layout "has to be
     taken into special considerations" (Section III-C) *)
  let groups : (int * int * int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let note ~payload ~mrt ~transfers =
    if payload > 0 then begin
      match Hashtbl.find_opt groups (payload, mrt, transfers) with
      | Some r -> incr r
      | None -> Hashtbl.add groups (payload, mrt, transfers) (ref 1)
    end
  in
  Array.iter
    (fun chunks ->
      List.iter
        (fun (first, n) ->
          let tally pred =
            List.fold_left
              (fun (payload, mrt, transfers) c ->
                if pred c then begin
                  let access = chunk_access c ~first ~n in
                  ( payload + Mem_req.payload_bytes access,
                    mrt + Mem_req.transactions ~trans_size access,
                    transfers + 1 )
                end
                else (payload, mrt, transfers))
              (0, 0, 0) kernel.Kernel.copies
          in
          let in_payload, in_mrt, in_tr = tally is_in in
          let out_payload, out_mrt, out_tr = tally is_out in
          note ~payload:in_payload ~mrt:in_mrt ~transfers:in_tr;
          note ~payload:out_payload ~mrt:out_mrt ~transfers:out_tr)
        chunks)
    per_cpe_chunks;
  let dma_groups =
    Hashtbl.fold
      (fun (payload_bytes, mrt, transfers) count acc ->
        {
          Lowered.payload_bytes;
          mrt;
          count = float_of_int !count /. float_of_int active;
          transfers;
        }
        :: acc)
      groups []
    |> List.sort compare
  in
  (* gloads: max over CPEs, plus per-chunk compiler spills *)
  let spills_of chunks =
    match kernel.Kernel.spill_gloads with
    | None -> 0
    | Some f -> List.fold_left (fun acc (_, n) -> acc + Stdlib.max 0 (f n)) 0 chunks
  in
  let gload_count, gload_bytes =
    match kernel.Kernel.gloads with
    | None ->
        ( (if kernel.Kernel.spill_gloads = None then 0 else spills_of per_cpe_chunks.(!longest)),
          8 )
    | Some g ->
        let per_cpe =
          Array.map
            (fun chunks ->
              List.fold_left
                (fun acc (first, n) ->
                  let rec sum k acc =
                    if k = n then acc else sum (k + 1) (acc + g.Kernel.count_for (first + k))
                  in
                  sum 0 acc)
                0 chunks)
            per_cpe_chunks
        in
        let per_cpe = Array.map2 ( + ) per_cpe (Array.map spills_of per_cpe_chunks) in
        (Array.fold_left Stdlib.max 0 per_cpe, g.Kernel.g_bytes)
  in
  { dma_groups; gload_count; gload_bytes; longest_elems = cpe_elems.(!longest) }

let build_summary kernel shape ~blocks ~unroll ~active ~double_buffer =
  let block_u, block_r = blocks in
  let total_iters = vector_iters kernel (shape.longest_elems * kernel.Kernel.body_trips_per_element) in
  let trips_u, rem_per_block = Codegen.trips_for ~total_iters ~unroll in
  (* remainders occur per compute item; approximating by the aggregate
     split keeps the summary simple and matches the fused case exactly *)
  let computes =
    List.filter_map
      (fun (block, trips) -> if trips > 0 then Some { Lowered.block; trips } else None)
      [ (block_u, trips_u); (block_r, rem_per_block) ]
  in
  {
    Lowered.active_cpes = active;
    dma_groups = shape.dma_groups;
    gload_count = shape.gload_count;
    gload_bytes = shape.gload_bytes;
    computes;
    vector_width = kernel.Kernel.vector_width;
    double_buffered = double_buffer;
  }

(* ------------------------------------------------------------------ *)
(* Process-wide memo tables.

   Lowering, the chunk walk and code generation are pure, so their
   results can be shared by everyone pricing the same inputs.  The
   kernel is keyed by {e physical} identity: [Kernel.t] carries
   closures (gload address generators), so two structurally-different
   kernels can share a name ([Kernel.coalesce_gloads] keeps it) and no
   structural key is sound.  Sweeps hold one kernel value across every
   point, which is exactly when sharing pays.

   Every table is a {!Sw_util.Memo}, safe under pool fan-out (tuning
   pools lower from several domains) and bounded: an unbounded table
   would pin every lowered program of a long bench run in memory. *)

let kernel_hash (k : Kernel.t) = (k.Kernel.name, k.Kernel.n_elements, k.Kernel.vector_width)

(* Shapes, keyed on (params, kernel, grain, effective active CPEs).
   [Space.fold] is grain-major and [Shard.enumerate] keeps that order,
   so a sweep touches one grain at a time. *)
module Shape_memo = Sw_util.Memo.Make (struct
  type t = Sw_arch.Params.t * Kernel.t * int * int

  let equal (p, k, g, a) (p', k', g', a') = k == k' && g = g' && a = a' && p = p'

  let hash (p, k, g, a) = Hashtbl.hash (kernel_hash k, g, a, p)
end)

let shapes : shape Shape_memo.t = Shape_memo.create 16

(* Code blocks, keyed on (kernel, unroll): a sweep cycles through its
   unroll axis once per grain.  The bound is the block-cost cache's:
   that cache already pins every block it has scheduled, so holding the
   same arrays here costs no more memory, and a whole unroll axis stays
   resident across grains. *)
module Block_memo = Sw_util.Memo.Make (struct
  type t = Kernel.t * int

  let equal (k, u) (k', u') = k == k' && u = u'

  let hash (k, u) = Hashtbl.hash (kernel_hash k, u)
end)

let blocks : Sw_isa.Instr.t array Block_memo.t = Block_memo.create Sw_isa.Schedule.cache_capacity

let code_block kernel ~unroll =
  Block_memo.memo blocks (kernel, unroll) (fun () ->
      Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll kernel.Kernel.body)

(* Shared front half: validate the variant, then assemble the static
   summary from the memoized shape and code blocks. *)
let compile params kernel (variant : Kernel.variant) =
  let open Kernel in
  if variant.grain <= 0 then Error "grain must be positive"
  else if variant.unroll <= 0 then Error "unroll must be positive"
  else if variant.active_cpes <= 0 then Error "active_cpes must be positive"
  else if variant.active_cpes > Sw_arch.Params.total_cpes params then
    Error
      (Printf.sprintf "variant wants %d CPEs but the machine has %d" variant.active_cpes
         (Sw_arch.Params.total_cpes params))
  else begin
    let spm = spm_required kernel variant in
    if spm > params.Sw_arch.Params.spm_bytes then
      Error
        (Printf.sprintf "chunk needs %d B of SPM but only %d B available" spm
           params.Sw_arch.Params.spm_bytes)
    else begin
      let grain = variant.grain in
      let active = effective_active_cpes kernel ~grain ~requested:variant.active_cpes in
      let block_u = code_block kernel ~unroll:variant.unroll in
      let block_r = if variant.unroll = 1 then block_u else code_block kernel ~unroll:1 in
      let blocks = (block_u, block_r) in
      let shape =
        Shape_memo.memo shapes (params, kernel, grain, active) (fun () ->
            walk_shape params kernel ~grain ~active)
      in
      let summary =
        build_summary kernel shape ~blocks ~unroll:variant.unroll ~active
          ~double_buffer:variant.double_buffer
      in
      Ok (spm, blocks, summary)
    end
  end

let summarize params kernel variant =
  Result.map (fun (_, _, summary) -> summary) (compile params kernel variant)

let lower params kernel (variant : Kernel.variant) =
  match compile params kernel variant with
  | Error msg -> Error msg
  | Ok (spm, blocks, summary) ->
      let active = summary.Lowered.active_cpes in
      let programs =
        Array.init active (fun cpe ->
            let chunks =
              Kernel.chunks_of_cpe kernel ~grain:variant.grain ~active_cpes:active ~cpe
            in
            let items =
              if variant.double_buffer then
                double_buffered_items kernel ~blocks ~unroll:variant.unroll chunks
              else
                List.concat_map (sync_chunk kernel ~blocks ~unroll:variant.unroll) chunks
            in
            Array.of_list items)
      in
      Ok
        {
          Lowered.kernel_name = kernel.Kernel.name;
          programs;
          summary;
          spm_bytes_per_cpe = spm;
        }

let lower_exn params kernel variant =
  match lower params kernel variant with
  | Ok l -> l
  | Error msg -> invalid_arg (Printf.sprintf "Lower.lower_exn (%s): %s" kernel.Kernel.name msg)

(* ------------------------------------------------------------------ *)
(* Cross-run lowering cache: a pruned search assesses a variant (the
   backend lowers it) and then re-runs the winner and the default (the
   tuner lowers them again).  Keyed on (params, kernel, variant). *)

module Lowered_memo = Sw_util.Memo.Make (struct
  type t = Sw_arch.Params.t * Kernel.t * Kernel.variant

  let equal (p, k, v) (p', k', v') = k == k' && v = v' && p = p'

  let hash (p, k, v) = Hashtbl.hash (kernel_hash k, v, p)
end)

let lowerings : (Lowered.t, string) result Lowered_memo.t = Lowered_memo.create 64

let clear_cache () =
  Lowered_memo.clear lowerings;
  Shape_memo.clear shapes;
  Block_memo.clear blocks

let cache_stats () = Lowered_memo.stats lowerings

let lower_cached params kernel variant =
  Lowered_memo.memo lowerings (params, kernel, variant) (fun () -> lower params kernel variant)

let lower_cached_exn params kernel variant =
  match lower_cached params kernel variant with
  | Ok l -> l
  | Error msg -> invalid_arg (Printf.sprintf "Lower.lower_cached_exn (%s): %s" kernel.Kernel.name msg)
