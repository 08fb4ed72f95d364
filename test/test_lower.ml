open Sw_swacc
module Program = Sw_isa.Program
module Mem_req = Sw_arch.Mem_req

let p = Sw_arch.Params.default

let layout = Layout.create ()

let copy ?(bytes = 8) ?(freq = Kernel.Per_element) ?(layout_kind = Kernel.Contiguous) name dir n =
  {
    Kernel.array_name = name;
    bytes_per_elem = bytes;
    direction = dir;
    freq;
    layout = layout_kind;
    base_addr =
      Layout.alloc layout
        ~bytes:(match freq with Kernel.Per_chunk -> bytes | Kernel.Per_element -> bytes * n);
  }

let body = [ Body.Store ("out", Body.Add (Body.load "a", Body.load "b")) ]

let mk_kernel ?(n = 1024) ?gloads ?spill_gloads () =
  Kernel.make ~name:"t" ~n_elements:n
    ~copies:[ copy "a" Kernel.In n; copy "b" Kernel.In n; copy "out" Kernel.Out n ]
    ~body ?gloads ?spill_gloads ()

let variant ?(grain = 64) ?(unroll = 1) ?(active = 64) ?(db = false) () =
  { Kernel.grain; unroll; active_cpes = active; double_buffer = db }

let test_program_count () =
  let l = Lower.lower_exn p (mk_kernel ()) (variant ()) in
  Alcotest.(check int) "one program per active CPE" 16 (Array.length l.Lowered.programs)
(* 1024/64 = 16 chunks, so only 16 CPEs get work *)

let test_programs_validate () =
  let l = Lower.lower_exn p (mk_kernel ~n:4096 ()) (variant ()) in
  Array.iter
    (fun prog ->
      match Program.validate p prog with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid program: %s" m)
    l.Lowered.programs

let test_sync_structure () =
  (* one chunk: in-issue, wait, compute, out-issue, wait *)
  let l = Lower.lower_exn p (mk_kernel ~n:64 ()) (variant ~grain:64 ~active:1 ()) in
  match l.Lowered.programs.(0) with
  | [| Program.Dma_issue { dir = Program.Get; accesses; _ }; Program.Dma_wait _;
       Program.Compute _; Program.Dma_issue { dir = Program.Put; accesses = out_acc; _ };
       Program.Dma_wait _ |] ->
      Alcotest.(check int) "copy-in covers both In arrays" 2 (List.length accesses);
      Alcotest.(check int) "copy-out covers the Out array" 1 (List.length out_acc)
  | prog -> Alcotest.failf "unexpected shape: %a" Program.pp prog

let test_double_buffer_structure () =
  let l = Lower.lower_exn p (mk_kernel ~n:256 ()) (variant ~grain:64 ~active:1 ~db:true ()) in
  let prog = l.Lowered.programs.(0) in
  (* 4 chunks: 4 in-issues + 4 out-issues *)
  Alcotest.(check int) "8 dma requests" 8 (Program.dma_issue_count prog);
  (match Program.validate p prog with
  | Ok () -> ()
  | Error m -> Alcotest.failf "db program invalid: %s" m);
  (* second copy-in must be issued before the first compute *)
  let rec index_of pred i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else index_of pred (i + 1) rest
  in
  let items = Array.to_list prog in
  let second_in =
    index_of
      (function Program.Dma_issue { tag = 1; dir = Program.Get; _ } -> true | _ -> false)
      0 items
  in
  let first_compute = index_of (function Program.Compute _ -> true | _ -> false) 0 items in
  match (second_in, first_compute) with
  | Some si, Some fc ->
      Alcotest.(check bool) "prefetch precedes compute" true (si < fc)
  | _ -> Alcotest.fail "missing prefetch or compute"

let test_spm_overflow_rejected () =
  match Lower.lower p (mk_kernel ()) (variant ~grain:4096 ()) with
  | Error msg ->
      Alcotest.(check bool) "mentions SPM" true
        (String.length msg > 0
        && (let ok = ref false in
            String.iteri (fun i _ -> if i + 3 <= String.length msg && String.sub msg i 3 = "SPM" then ok := true) msg;
            !ok))
  | Ok _ -> Alcotest.fail "4096*24B chunk cannot fit a 64KiB SPM"

let test_db_doubles_spm () =
  let k = mk_kernel () in
  Alcotest.(check int) "sync" (64 * 24) (Lower.spm_required k (variant ~grain:64 ()));
  Alcotest.(check int) "db doubles" (2 * 64 * 24) (Lower.spm_required k (variant ~grain:64 ~db:true ()))

let test_bad_variants_rejected () =
  let k = mk_kernel () in
  let expect v = match Lower.lower p k v with Error _ -> () | Ok _ -> Alcotest.fail "expected error" in
  expect (variant ~grain:0 ());
  expect (variant ~unroll:0 ());
  expect (variant ~active:0 ());
  expect (variant ~active:65 ())

let test_summary_dma_groups () =
  (* 4096 elements, grain 64, 64 CPEs: every CPE has one 64-elem chunk
     per round, 4096/64/64 = 1 chunk... use n=8192 for 2 chunks each *)
  let l = Lower.lower_exn p (mk_kernel ~n:8192 ()) (variant ~grain:64 ()) in
  let s = l.Lowered.summary in
  (* per chunk: one in-group (1024B payload, 4 transactions) and one
     out-group (512B, 2); 2 chunks per CPE *)
  Alcotest.(check (float 1e-6)) "4 requests per CPE" 4.0 (Lowered.dma_requests_per_cpe s);
  Alcotest.(check (float 1e-6)) "avg MRT (4+2)/2" 3.0 (Lowered.avg_mrt s);
  Alcotest.(check int) "two group shapes" 2 (List.length s.Lowered.dma_groups)

let test_summary_compute_matches_program () =
  let l = Lower.lower_exn p (mk_kernel ~n:4096 ()) (variant ~grain:64 ~unroll:4 ()) in
  let from_summary =
    List.fold_left
      (fun acc (c : Lowered.compute_summary) ->
        acc +. Sw_isa.Schedule.iterated_cycles p c.Lowered.block ~trips:c.Lowered.trips)
      0.0 l.Lowered.summary.Lowered.computes
  in
  (* longest-path CPE: compare against its program's compute cycles; all
     CPEs are symmetric here *)
  let from_program = Program.compute_cycles p l.Lowered.programs.(0) in
  (* the summary aggregates trips across chunks, so the once-per-block
     warmup is charged once instead of per chunk: allow that slack *)
  Alcotest.(check bool)
    (Printf.sprintf "close (%.0f vs %.0f)" from_summary from_program)
    true
    (Float.abs (from_summary -. from_program) /. from_program < 0.02)

let test_gloads_lowered_per_element () =
  let gloads =
    { Kernel.g_bytes = 8; count_for = (fun e -> e mod 3); addr_for = (fun e j -> 8 * ((e * 7) + j)) }
  in
  let l = Lower.lower_exn p (mk_kernel ~n:128 ~gloads ()) (variant ~grain:32 ~active:4 ()) in
  let total = Array.fold_left (fun acc prog -> acc + Program.gload_count prog) 0 l.Lowered.programs in
  let expected = List.fold_left (fun acc e -> acc + (e mod 3)) 0 (List.init 128 Fun.id) in
  Alcotest.(check int) "all per-element gloads emitted" expected total;
  (* summary takes the heaviest CPE *)
  let per_cpe =
    Array.map (fun prog -> Program.gload_count prog) l.Lowered.programs
  in
  Alcotest.(check int) "summary gload count is the max"
    (Array.fold_left Stdlib.max 0 per_cpe)
    l.Lowered.summary.Lowered.gload_count

let test_spill_gloads () =
  let spill_gloads g = if g < 16 then 3 else 0 in
  let k = mk_kernel ~n:256 ~spill_gloads () in
  let l_small = Lower.lower_exn p k (variant ~grain:8 ~active:4 ()) in
  let l_big = Lower.lower_exn p k (variant ~grain:32 ~active:4 ()) in
  (* 256/8 = 32 chunks over 4 CPEs: 8 chunks per CPE, 3 spills each *)
  Alcotest.(check int) "spills at small grain" 24 l_small.Lowered.summary.Lowered.gload_count;
  Alcotest.(check int) "no spills at large grain" 0 l_big.Lowered.summary.Lowered.gload_count;
  let prog_gloads = Program.gload_count l_small.Lowered.programs.(0) in
  Alcotest.(check int) "program carries the spills too" 24 prog_gloads

(* Spills come from copies: a kernel with no copy intrinsic emits none,
   and the summary must not price any either. *)
let test_spill_gloads_without_copies () =
  let k = Kernel.make ~name:"t" ~n_elements:256 ~copies:[] ~body ~spill_gloads:(fun _ -> 3) () in
  let l = Lower.lower_exn p k (variant ~grain:8 ()) in
  let prog_gloads = Program.gload_count l.Lowered.programs.(0) in
  Alcotest.(check int) "CPE 0 holds no spill" 0 prog_gloads;
  Alcotest.(check int) "summary counts what CPE 0 runs" prog_gloads
    l.Lowered.summary.Lowered.gload_count

let test_strided_copy_requests () =
  let n = 64 in
  let stride = 1024 in
  let copies =
    [
      {
        Kernel.array_name = "s";
        bytes_per_elem = 128;
        direction = Kernel.In;
        freq = Kernel.Per_element;
        layout = Kernel.Strided stride;
        base_addr = Layout.alloc layout ~bytes:(stride * n);
      };
      copy "o2" Kernel.Out n;
    ]
  in
  let k = Kernel.make ~name:"strided" ~n_elements:n ~copies ~body:[ Body.Store ("o2", Body.load "s") ] () in
  let l = Lower.lower_exn p k (variant ~grain:16 ~active:4 ()) in
  (* each in-request: 16 rows of 128B, one transaction per row *)
  let group =
    List.find
      (fun (g : Lowered.dma_group) -> g.Lowered.payload_bytes = 16 * 128)
      l.Lowered.summary.Lowered.dma_groups
  in
  Alcotest.(check int) "one transaction per row" 16 group.Lowered.mrt

let test_summarize_matches_lower () =
  let k = mk_kernel ~n:4096 () in
  let v = variant ~grain:64 ~unroll:2 () in
  match (Lower.summarize p k v, Lower.lower p k v) with
  | Ok s, Ok l -> Alcotest.(check bool) "identical summaries" true (s = l.Lowered.summary)
  | _ -> Alcotest.fail "both should succeed"

let test_active_cpes_capped_by_chunks () =
  let l = Lower.lower_exn p (mk_kernel ~n:100 ()) (variant ~grain:50 ()) in
  Alcotest.(check int) "only 2 chunks -> 2 CPEs" 2 l.Lowered.summary.Lowered.active_cpes

(* The summary is assembled from a grain-keyed shape and unroll-keyed
   code blocks, both memoized.  Whatever the memo holds — warm in
   enumeration order, warm in a shuffled order, cold before every call,
   through [lower], or filled from two domains at once — every variant
   must get the same summary.  One kernel per summary branch: a
   [Per_chunk] copy (backprop), compiler spill Gloads (kmeans below
   grain 16), irregular per-element Gloads (bfs) and a strided copy. *)
let strided_kernel () =
  let n = 600 in
  let stride = 256 in
  let copies =
    [
      {
        Kernel.array_name = "s";
        bytes_per_elem = 32;
        direction = Kernel.In;
        freq = Kernel.Per_element;
        layout = Kernel.Strided stride;
        base_addr = Layout.alloc layout ~bytes:(stride * n);
      };
      copy "o3" Kernel.Out n;
    ]
  in
  Kernel.make ~name:"strided-grid" ~n_elements:n ~copies
    ~body:[ Body.Store ("o3", Body.load "s") ] ()

let test_memo_differential () =
  let grid =
    List.concat_map
      (fun grain ->
        List.concat_map
          (fun unroll -> List.map (fun db -> variant ~grain ~unroll ~db ()) [ false; true ])
          [ 1; 2; 3; 4 ])
      [ 1; 4; 8; 12; 16; 24; 64; 100; 256 ]
  in
  let kernels =
    [
      ("backprop", Sw_workloads.Backprop.kernel ~scale:0.05);
      ("kmeans", Sw_workloads.Kmeans.kernel ~scale:0.05);
      ("bfs", Sw_workloads.Bfs.kernel ~scale:0.05);
      ("strided", strided_kernel ());
    ]
  in
  let rng = Sw_util.Prng.create 7 in
  let shuffle xs =
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Sw_util.Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let pool = Sw_util.Pool.create ~size:2 () in
  List.iter
    (fun (name, k) ->
      let summarize v = Lower.summarize p k v in
      Lower.clear_cache ();
      let cold =
        List.map
          (fun v ->
            Lower.clear_cache ();
            summarize v)
          grid
      in
      Lower.clear_cache ();
      let warm = List.map summarize grid in
      Lower.clear_cache ();
      let shuffled =
        let results = List.map (fun v -> (v, summarize v)) (shuffle grid) in
        List.map (fun v -> List.assoc v results) grid
      in
      let lowered =
        List.map (fun v -> Result.map (fun l -> l.Lowered.summary) (Lower.lower p k v)) grid
      in
      Lower.clear_cache ();
      let pooled = Sw_util.Pool.map pool summarize grid in
      let feasible = List.length (List.filter Result.is_ok cold) in
      Alcotest.(check bool) (name ^ ": grid has feasible points") true (feasible > 0);
      List.iteri
        (fun i v ->
          let expect = List.nth cold i in
          let check what got =
            if got <> expect then
              Alcotest.failf "%s grain=%d unroll=%d db=%b: %s summary differs from cold" name
                v.Kernel.grain v.Kernel.unroll v.Kernel.double_buffer what
          in
          check "warm" (List.nth warm i);
          check "shuffled" (List.nth shuffled i);
          check "lower" (List.nth lowered i);
          check "pooled" (List.nth pooled i))
        grid)
    kernels

(* A grain-major sweep revisits its whole unroll axis once per grain.
   The code-block table must hold a long axis across grains: were it
   to evict blocks before the next grain reaches them, every grain
   would regenerate every block, and each regenerated array would cost
   a structural match in the block-cost cache. *)
let test_unroll_axis_resident () =
  let k = Sw_workloads.Vadd.kernel ~scale:0.01 in
  let unrolls = List.init 130 (fun i -> i + 1) in
  let blocks_at grain =
    List.map
      (fun unroll ->
        match Lower.summarize p k (variant ~grain ~unroll ()) with
        | Ok s -> List.map (fun c -> c.Lowered.block) s.Lowered.computes
        | Error msg -> Alcotest.failf "grain=%d unroll=%d: %s" grain unroll msg)
      unrolls
  in
  Lower.clear_cache ();
  let first = List.concat (blocks_at 1000) in
  List.iteri
    (fun i blocks ->
      let kept = blocks <> [] && List.for_all (fun b -> List.exists (( == ) b) first) blocks in
      if not kept then Alcotest.failf "unroll %d: the second grain rebuilt a code block" (i + 1))
    (blocks_at 1100)

(* The shape is tallied over one address period of chunks.  Its
   reference here is a plain chunk-by-chunk tally: every chunk's
   requests grouped one by one, every CPE's chunk list summed and the
   longest CPE found by scanning (ties to the lowest index). *)
let reference_access (c : Kernel.copy_spec) ~first ~n =
  match (c.Kernel.freq, c.Kernel.layout) with
  | Kernel.Per_chunk, _ -> Mem_req.contiguous ~addr:c.Kernel.base_addr ~bytes:c.Kernel.bytes_per_elem
  | Kernel.Per_element, Kernel.Contiguous ->
      Mem_req.contiguous
        ~addr:(c.Kernel.base_addr + (first * c.Kernel.bytes_per_elem))
        ~bytes:(n * c.Kernel.bytes_per_elem)
  | Kernel.Per_element, Kernel.Strided stride ->
      Mem_req.strided ~addr:(c.Kernel.base_addr + (first * stride)) ~row_bytes:c.Kernel.bytes_per_elem
        ~stride ~rows:n

(* Request shapes of a grain, counted over every chunk of the fleet:
   ((payload, transactions, transfers), requests) *)
let reference_requests params kernel ~grain =
  let trans_size = params.Sw_arch.Params.trans_size in
  let counts = Hashtbl.create 8 in
  let request dirs ~first ~n =
    let key =
      List.fold_left
        (fun ((payload, mrt, transfers) as acc) c ->
          if List.mem c.Kernel.direction dirs then begin
            let a = reference_access c ~first ~n in
            (payload + Mem_req.payload_bytes a, mrt + Mem_req.transactions ~trans_size a, transfers + 1)
          end
          else acc)
        (0, 0, 0) kernel.Kernel.copies
    in
    let _, _, transfers = key in
    if transfers > 0 then
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let n_elements = kernel.Kernel.n_elements in
  for k = 0 to Kernel.total_chunks kernel ~grain - 1 do
    let first = k * grain in
    let n = Stdlib.min grain (n_elements - first) in
    request [ Kernel.In; Kernel.Inout ] ~first ~n;
    request [ Kernel.Out; Kernel.Inout ] ~first ~n
  done;
  List.of_seq (Hashtbl.to_seq counts)

let reference_summary ?requests params kernel (v : Kernel.variant) =
  let grain = v.Kernel.grain in
  let active = Kernel.effective_active_cpes kernel ~grain ~requested:v.Kernel.active_cpes in
  let chunks =
    Array.init active (fun cpe -> Kernel.chunks_of_cpe kernel ~grain ~active_cpes:active ~cpe)
  in
  let requests =
    match requests with Some r -> r | None -> reference_requests params kernel ~grain
  in
  let dma_groups =
    List.map
      (fun ((payload_bytes, mrt, transfers), c) ->
        { Lowered.payload_bytes; mrt; count = float_of_int c /. float_of_int active; transfers })
      requests
    |> List.sort compare
  in
  let elems = Array.map (List.fold_left (fun acc (_, n) -> acc + n) 0) chunks in
  let longest = ref 0 in
  Array.iteri (fun i e -> if e > elems.(!longest) then longest := i) elems;
  let spills n = match kernel.Kernel.spill_gloads with None -> 0 | Some f -> Stdlib.max 0 (f n) in
  let gloads_of =
    List.fold_left
      (fun acc (first, n) ->
        let irregular =
          match kernel.Kernel.gloads with
          | None -> 0
          | Some g -> List.fold_left (fun a k -> a + g.Kernel.count_for (first + k)) 0 (List.init n Fun.id)
        in
        acc + spills n + irregular)
      0
  in
  let gload_count, gload_bytes =
    match kernel.Kernel.gloads with
    | None -> (gloads_of chunks.(!longest), 8)
    | Some g -> (Array.fold_left (fun acc cs -> Stdlib.max acc (gloads_of cs)) 0 chunks, g.Kernel.g_bytes)
  in
  let block unroll = Codegen.block ~ialu_per_access:kernel.Kernel.ialu_per_access ~unroll kernel.Kernel.body in
  let scalar_iters = elems.(!longest) * kernel.Kernel.body_trips_per_element in
  let total_iters = (scalar_iters + kernel.Kernel.vector_width - 1) / kernel.Kernel.vector_width in
  let trips_u, rem = Codegen.trips_for ~total_iters ~unroll:v.Kernel.unroll in
  let computes =
    List.filter_map
      (fun (block, trips) -> if trips > 0 then Some { Lowered.block; trips } else None)
      [ (block v.Kernel.unroll, trips_u); (block 1, rem) ]
  in
  {
    Lowered.active_cpes = active;
    dma_groups;
    gload_count;
    gload_bytes;
    computes;
    vector_width = kernel.Kernel.vector_width;
    double_buffered = v.Kernel.double_buffer;
  }

(* Shapes do not depend on the SPM size, so the checks below lift it
   to reach every grain. *)
let roomy params = { params with Sw_arch.Params.spm_bytes = 1 lsl 40 }

let check_against_reference ?requests params kernel v =
  match Lower.summarize params kernel v with
  | Error msg -> Error msg
  | Ok s ->
      if s = reference_summary ?requests params kernel v then Ok ()
      else Error "summary differs from the reference"

(* Random synthetic kernels: contiguous, strided and per-chunk copies in
   every direction at unaligned bases, element counts that the grain
   need not divide, irregular and spill Gloads, and any power-of-two
   transaction size the machine validation accepts. *)
type synthetic = {
  trans_size : int;
  n_elements : int;
  copy_specs : (int * Kernel.direction * Kernel.copy_freq * Kernel.layout_kind * int) list;
  irregular : bool;
  spill : bool;
  width : int;
  synth_variant : Kernel.variant;
}

let gen_synthetic =
  let open QCheck.Gen in
  let* trans_size = map (fun k -> 1 lsl k) (int_range 0 12) in
  let* n_elements = int_range 1 3000 in
  let gen_copy =
    let* bytes = int_range 1 64 in
    let* dir = oneofl [ Kernel.In; Kernel.Out; Kernel.Inout ] in
    let* freq = frequency [ (1, return Kernel.Per_chunk); (3, return Kernel.Per_element) ] in
    let* layout =
      frequency
        [ (2, return Kernel.Contiguous); (1, map (fun extra -> Kernel.Strided (bytes + extra)) (int_range 0 300)) ]
    in
    let* base = int_range 0 100_000 in
    return (bytes, dir, freq, layout, base)
  in
  let* copy_specs = list_size (int_range 1 4) gen_copy in
  let* irregular = bool in
  let* spill = bool in
  let* width = oneofl [ 1; 2; 4 ] in
  let* grain = frequency [ (3, int_range 1 64); (1, int_range 1 (n_elements + 5)) ] in
  let* unroll = int_range 1 4 in
  let* active_cpes = int_range 1 64 in
  let* double_buffer = bool in
  return
    {
      trans_size;
      n_elements;
      copy_specs;
      irregular;
      spill;
      width;
      synth_variant = { Kernel.grain; unroll; active_cpes; double_buffer };
    }

let print_synthetic s =
  Printf.sprintf "trans_size=%d n=%d grain=%d active=%d irregular=%b spill=%b copies=[%s]" s.trans_size
    s.n_elements s.synth_variant.Kernel.grain s.synth_variant.Kernel.active_cpes s.irregular s.spill
    (String.concat "; "
       (List.map
          (fun (bytes, _, freq, layout, base) ->
            Printf.sprintf "%dB %s %s @%d" bytes
              (match freq with Kernel.Per_chunk -> "chunk" | Kernel.Per_element -> "elem")
              (match layout with Kernel.Contiguous -> "contig" | Kernel.Strided st -> Printf.sprintf "stride %d" st)
              base)
          s.copy_specs))

let synthetic_kernel s =
  let copies =
    List.mapi
      (fun i (bytes_per_elem, direction, freq, layout, base_addr) ->
        { Kernel.array_name = Printf.sprintf "x%d" i; bytes_per_elem; direction; freq; layout; base_addr })
      s.copy_specs
  in
  let gloads =
    if s.irregular then
      Some { Kernel.g_bytes = 8; count_for = (fun e -> ((e * 7) + 3) mod 5); addr_for = (fun e j -> 8 * (e + j)) }
    else None
  in
  let spill_gloads = if s.spill then Some (fun g -> if g < 16 then 3 else g mod 3 - 1) else None in
  Kernel.make ~name:"synthetic" ~n_elements:s.n_elements ~copies ~body ?gloads ?spill_gloads
    ~vector_width:s.width ()

let prop_periodic_tally =
  QCheck.Test.make ~name:"periodic shape tally = chunk-by-chunk tally" ~count:400
    (QCheck.make ~print:print_synthetic gen_synthetic)
    (fun s ->
      let params =
        roomy { p with Sw_arch.Params.trans_size = s.trans_size; gload_max_bytes = Stdlib.min 32 s.trans_size }
      in
      (match Sw_arch.Params.validate params with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "invalid machine: %s" msg);
      match check_against_reference params (synthetic_kernel s) s.synth_variant with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Every registry kernel, every grain of a fine sweep and the grains
   around the element count, at three CPE counts. *)
let test_registry_sweep () =
  let params = roomy p in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let k = e.Sw_workloads.Registry.build ~scale:0.25 in
      let n = k.Kernel.n_elements in
      let grains = List.init 300 (fun i -> i + 1) @ [ 511; 512; 4097; n - 1; n; n + 1 ] in
      List.iter
        (fun grain ->
          let requests = reference_requests params k ~grain in
          List.iter
            (fun active ->
                match check_against_reference ~requests params k (variant ~grain ~active ()) with
                | Ok () -> ()
                | Error msg -> Alcotest.failf "%s grain=%d active=%d: %s" e.Sw_workloads.Registry.name grain active msg)
            [ 64; 17; 1 ])
        grains;
      Lower.clear_cache ())
    Sw_workloads.Registry.all

let tests =
  ( "lower",
    [
      Alcotest.test_case "program count" `Quick test_program_count;
      Alcotest.test_case "programs validate" `Quick test_programs_validate;
      Alcotest.test_case "sync chunk structure" `Quick test_sync_structure;
      Alcotest.test_case "double-buffer structure" `Quick test_double_buffer_structure;
      Alcotest.test_case "SPM overflow rejected" `Quick test_spm_overflow_rejected;
      Alcotest.test_case "double buffering doubles SPM" `Quick test_db_doubles_spm;
      Alcotest.test_case "bad variants rejected" `Quick test_bad_variants_rejected;
      Alcotest.test_case "summary DMA groups" `Quick test_summary_dma_groups;
      Alcotest.test_case "summary compute matches program" `Quick test_summary_compute_matches_program;
      Alcotest.test_case "per-element gloads" `Quick test_gloads_lowered_per_element;
      Alcotest.test_case "compiler spill gloads" `Quick test_spill_gloads;
      Alcotest.test_case "no spills without copies" `Quick test_spill_gloads_without_copies;
      Alcotest.test_case "strided copy requests" `Quick test_strided_copy_requests;
      Alcotest.test_case "summarize = lower summary" `Quick test_summarize_matches_lower;
      Alcotest.test_case "active CPEs capped by chunks" `Quick test_active_cpes_capped_by_chunks;
      Alcotest.test_case "memoized summary path agrees" `Quick test_memo_differential;
      Alcotest.test_case "unroll axis stays resident across grains" `Quick test_unroll_axis_resident;
      QCheck_alcotest.to_alcotest prop_periodic_tally;
      Alcotest.test_case "registry shapes = chunk-by-chunk tally" `Quick test_registry_sweep;
    ] )
