(* The optimized discrete-event core.  Observable behavior — metrics,
   spans, DMA request lifetimes, retry events, cutoff points, event
   counts, exception messages — is bit-identical to the reference
   engine (the preserved original, Sw_oracle.Engine_ref under test/)
   on every input; the differential tests and the golden traces
   enforce this.  What changed is purely mechanical:

   - Events live in a {!Sw_util.Calendar_queue}: an O(1) bucketed
     queue over a flat preallocated arena, with integer event codes
     [(payload lsl 2) lor kind] instead of boxed [ev] variants, and
     the same (time, global push sequence) FIFO tie-break as the old
     binary heap (Sw_oracle.Heap) — determinism survives by construction.
   - Programs are lowered to flat struct-of-arrays [compiled] form —
     parallel [int array]/[float array] fields walked sequentially, no
     per-item heap records to pointer-chase — with every constant the
     interpreter would otherwise recompute per execution folded in:
     per-block costs (interned through the process-wide cache of
     {!Sw_isa.Schedule}), per-controller transaction histograms
     (closed-form {!Sw_arch.Mem_req.count_per_cg}, not a per-transaction
     walk), stream lengths, remote flags, payload bytes.  Tags are
     remapped to dense ids (the original tag rides along for trace
     recorders).  Lowered programs are cached process-wide per
     (program physical identity, home CG, params) — a fleet lowers a
     shared program once, and repeated runs of the same lowered
     programs (tuning sweeps, robustness studies, benchmarks) skip
     lowering and validation entirely.
   - DMA requests are parallel arrays in a pool with a free-list, so
     a request slot is recycled at [Req_done] and steady-state
     simulation allocates nothing on the minor heap.
   - All same-timestamp [Req_admit] events at the head of the queue
     are drained in one pass after an admission, short-circuiting the
     outer loop (ordering is unchanged: only events the old loop would
     pop next anyway are drained).
   - Floats cross function boundaries through one-element scratch
     arrays ([tbuf]/[pbuf]/[qbuf]/[gbuf]) and handlers re-read inputs
     per branch, so the no-observer path boxes no floats and invokes
     no closures per event.

   Float arithmetic is kept in the reference's exact operation order
   (e.g. [latest +. tail +. l_base +. noc] as three separate adds) so
   results are bit-identical, not merely close. *)

module Program = Sw_isa.Program
module Mem_req = Sw_arch.Mem_req
module Cq = Sw_util.Calendar_queue

exception Deadlock of string

exception Event_limit

type run_result = Finished of Metrics.t | Cutoff of { at : float; events : int }

(* ------------------------------------------------------------------ *)
(* Compiled programs.

   [Program.item] trees are lowered into a flat pre-order item stream
   held in parallel arrays (struct-of-arrays): the interpreter reads a
   handful of scalar array slots per item instead of chasing a pointer
   to a per-item record, so walking a long program streams through
   memory instead of cache-missing per item.  A [Repeat]'s body
   immediately follows it; [c_arg2] holds the body's span in items, so
   entering a loop is a frame push and skipping it is an index add.

   Constants that vary per DMA request (per-controller transaction
   histogram, stream/tail lengths, remote flag, payload, tags) live in
   per-request rows indexed by [c_arg2] of the issuing item. *)

let op_compute = 0

let op_dma_issue = 1

let op_dma_wait = 2

let op_wait_all = 3

let op_gload = 4

let op_repeat = 5

type compiled = {
  c_op : int array;
  c_arg : int array;  (* dma issue/wait: dense tag; gload: addr; repeat: trips *)
  c_arg2 : int array;  (* dma_issue: request row; gload: bytes; repeat: body span *)
  c_cost : float array;  (* compute: iterated cycles before the slowdown factor *)
  (* one row per [Dma_issue] item *)
  r_tag : int array;  (* dense tag *)
  r_orig : int array;  (* the program's tag, for trace recorders *)
  r_payload : int array;
  r_stream : float array;  (* m_total * delta_delay *)
  r_tail : float array;  (* (m_total - 1) * delta_delay *)
  r_remote : bool array;  (* touches a non-home controller *)
  r_permc : int array;  (* transactions per controller, stride n_cgs *)
  k_nitems : int;
  k_ntags : int;  (* dense DMA tags used (issue or wait) *)
  k_depth : int;  (* max Repeat nesting incl. the top-level program *)
}

let dummy_compiled =
  { c_op = [||]; c_arg = [||]; c_arg2 = [||]; c_cost = [||]; r_tag = [||]; r_orig = [||];
    r_payload = [||]; r_stream = [||]; r_tail = [||]; r_remote = [||]; r_permc = [||];
    k_nitems = 0; k_ntags = 0; k_depth = 1 }

(* per-run memo of block -> cost-table id by physical identity: fleets
   share block arrays, and the structural hashtable lookup inside
   [Table.intern] deep-compares the whole instruction array on a hit *)
let rec assq_block (block : Sw_isa.Instr.t array) = function
  | [] -> -1
  | (b, id) :: tl -> if b == block then id else assq_block block tl

(* Lowering drops items the reference engine treats as complete no-ops
   (zero-trip computes/repeats — rejected by [Program.validate] anyway)
   but keeps a [Repeat] whose *original* body is non-empty even when
   its compiled body is empty: the reference charges [loop_overhead]
   per iteration of such a loop, and so must we. *)
let compile (p : Sw_arch.Params.t) table bcache ~home (prog : Program.t) =
  let ncgs = p.Sw_arch.Params.n_cgs in
  (* pass 1: sizes *)
  let n_items = ref 0 and n_dma = ref 0 and max_depth = ref 1 in
  let rec count depth (items : Program.item array) =
    if depth > !max_depth then max_depth := depth;
    Array.iter
      (fun (item : Program.item) ->
        match item with
        | Program.Compute { trips; _ } -> if trips > 0 then incr n_items
        | Program.Repeat { trips; body } ->
            if trips > 0 && Array.length body > 0 then begin
              incr n_items;
              count (depth + 1) body
            end
        | Program.Dma_issue _ ->
            incr n_items;
            incr n_dma
        | Program.Dma_wait _ | Program.Dma_wait_all -> incr n_items
        | Program.Gload _ | Program.Gstore _ -> incr n_items)
      items
  in
  count 1 prog;
  let ni = !n_items and nd = !n_dma in
  let c_op = Array.make ni 0 and c_arg = Array.make ni 0 and c_arg2 = Array.make ni 0 in
  let c_cost = Array.make ni 0.0 in
  let r_tag = Array.make nd 0 and r_orig = Array.make nd 0 and r_payload = Array.make nd 0 in
  let r_stream = Array.make nd 0.0 and r_tail = Array.make nd 0.0 in
  let r_remote = Array.make nd false in
  let r_permc = Array.make (nd * ncgs) 0 in
  let pmtmp = Array.make ncgs 0 in
  (* dense tag interning; tag populations are tiny, an assoc suffices *)
  let tags = ref [] in
  let ntags = ref 0 in
  let tag_id t =
    match List.assoc_opt t !tags with
    | Some i -> i
    | None ->
        let i = !ntags in
        tags := (t, i) :: !tags;
        ntags := i + 1;
        i
  in
  (* pass 2: fill, same walk order as pass 1 *)
  let pos = ref 0 and drow = ref 0 in
  let rec fill (items : Program.item array) =
    Array.iter
      (fun (item : Program.item) ->
        match item with
        | Program.Compute { block; trips } ->
            if trips > 0 then begin
              let id =
                match assq_block block !bcache with
                | -1 ->
                    let id = Sw_isa.Schedule.Table.intern table block in
                    bcache := (block, id) :: !bcache;
                    id
                | id -> id
              in
              let self = !pos in
              incr pos;
              c_op.(self) <- op_compute;
              c_cost.(self) <- Sw_isa.Schedule.Table.iterated table id ~trips
            end
        | Program.Repeat { trips; body } ->
            if trips > 0 && Array.length body > 0 then begin
              let self = !pos in
              incr pos;
              c_op.(self) <- op_repeat;
              c_arg.(self) <- trips;
              fill body;
              c_arg2.(self) <- !pos - self - 1
            end
        | Program.Dma_issue ({ tag; _ } as d) ->
            let self = !pos in
            incr pos;
            let row = !drow in
            incr drow;
            Array.fill pmtmp 0 ncgs 0;
            List.iter
              (fun access ->
                Mem_req.count_per_cg ~trans_size:p.trans_size ~n_cgs:ncgs access pmtmp)
              d.Program.accesses;
            let m_total = ref 0 in
            let remote = ref false in
            for mc = 0 to ncgs - 1 do
              let m = pmtmp.(mc) in
              r_permc.((row * ncgs) + mc) <- m;
              m_total := !m_total + m;
              if m > 0 && mc <> home then remote := true
            done;
            let dt = tag_id tag in
            c_op.(self) <- op_dma_issue;
            c_arg.(self) <- dt;
            c_arg2.(self) <- row;
            r_tag.(row) <- dt;
            r_orig.(row) <- tag;
            r_payload.(row) <- Program.dma_payload d;
            r_stream.(row) <- float_of_int !m_total *. float_of_int p.delta_delay;
            r_tail.(row) <- float_of_int ((!m_total - 1) * p.delta_delay);
            r_remote.(row) <- !remote
        | Program.Dma_wait tag ->
            let self = !pos in
            incr pos;
            c_op.(self) <- op_dma_wait;
            c_arg.(self) <- tag_id tag
        | Program.Dma_wait_all ->
            let self = !pos in
            incr pos;
            c_op.(self) <- op_wait_all
        | Program.Gload { addr; bytes } | Program.Gstore { addr; bytes } ->
            let self = !pos in
            incr pos;
            c_op.(self) <- op_gload;
            c_arg.(self) <- addr;
            c_arg2.(self) <- bytes)
      items
  in
  fill prog;
  { c_op; c_arg; c_arg2; c_cost; r_tag; r_orig; r_payload; r_stream; r_tail; r_remote;
    r_permc; k_nitems = ni; k_ntags = !ntags; k_depth = !max_depth }

(* ------------------------------------------------------------------ *)
(* Process-wide cache of lowered programs, keyed by (program physical
   identity, home CG, params).  A compiled program is pure constants —
   its content depends only on the key — so reuse across runs cannot
   change observable behavior; it only skips the lowering (and, since a
   cached program already passed {!Program.validate} under the same
   params, re-validation).  A {!Sw_util.Memo} like the
   {!Sw_isa.Schedule} block-cost cache (engine runs race from
   {!Sw_util.Pool} domains), forgetting the oldest program first.  It
   holds 2048 programs, 32 fleets of 64 CPEs: kept full at 4096, the
   table held about 14% more daemon memory on perfbench serve-mix, for
   no measured gain in speed.

   Entries hash on the program's *structure* ([Hashtbl.hash] examines a
   bounded prefix, so this is O(1) even for huge programs) but match on
   physical identity — per-CPE variants of one kernel often collide on
   the hash, and the bucket scan is then a few pointer compares. *)

module Compile_memo = Sw_util.Memo.Make (struct
  type t = Program.t * int * Sw_arch.Params.t

  let equal (prog, home, p) (prog', home', p') = prog == prog' && home = home' && p = p'

  let hash (prog, home, _) = Hashtbl.hash prog lxor (home * 0x9e3779b9)
end)

let compile_cache : compiled Compile_memo.t = Compile_memo.create 2048

let clear_compile_cache () = Compile_memo.clear compile_cache

(* ------------------------------------------------------------------ *)
(* Run state: struct-of-arrays so every hot field is an unboxed slot in
   a [float array]/[int array] — no per-CPE records, no mutable float
   fields (which box on every store). *)

(* event kinds, packed into the low two bits of the event code *)
let ev_step = 0

let ev_admit = 1

let ev_done = 2

let ev_gload = 3

(* blocked states *)
let b_none = 0

let b_tag = 1

let b_all = 2

let b_gload = 3

type state = {
  recorder : (Trace.span -> unit) option;
  req_recorder : (Trace.dma_req -> unit) option;
  retry_recorder : (Trace.dma_retry -> unit) option;
  (* per-CPE state *)
  cp_prog : compiled array;
  cp_home : int array;
  cp_now : float array;
  cp_engine_free : float array;
  cp_comp : float array;
  cp_gload_wait : float array;
  cp_dma_wait : float array;
  cp_finish : float array;
  cp_finished : bool array;
  cp_blocked : int array;
  cp_blocked_tag : int array;  (* dense tag when blocked = b_tag *)
  cp_blocked_start : float array;
  cp_gload_addr : int array;
  cp_outst : int array array;  (* outstanding DMAs per dense tag *)
  cp_outst_total : int array;
  cp_fstart : int array array;  (* frame stack: body start index per level *)
  cp_fend : int array array;  (* frame stack: body end index per level *)
  cp_fidx : int array array;  (* frame stack: next item index *)
  cp_frem : int array array;  (* frame stack: remaining iterations *)
  cp_depth : int array;
  (* memory controllers *)
  mc_bw : float array;
  mc_busy : float array;
  (* DMA request pool: parallel arrays plus a free-list stack *)
  mutable rq_cap : int;
  mutable rq_cpe : int array;
  mutable rq_attempts : int array;
  mutable rq_issue : float array;
  mutable rq_comp : compiled array;  (* the request's program *)
  mutable rq_row : int array;  (* the request's row in it *)
  mutable rq_free : int array;
  mutable rq_free_top : int;
  events : Cq.t;
  (* one-element scratch buffers: floats cross function boundaries in
     these, never as arguments or results (which would box) *)
  tbuf : float array;  (* time of the event being handled *)
  pbuf : float array;  (* push scratch *)
  qbuf : float array;  (* peek scratch for admission draining *)
  gbuf : float array;  (* latest-grant scratch *)
  acc : float array;  (* 0: total backoff cycles *)
  (* constants hoisted out of the loop (values identical to the
     per-use [float_of_int]s of the reference engine) *)
  k_issue : float;
  k_wait : float;
  k_loop : float;
  k_ttx : float;
  k_lbase : float;
  k_noc : float;
  k_trans_size : int;
  k_ncgs : int;
  k_fail_prob : float;
  k_max_retries : int;
  k_backoff_base : int;
  fault_dma : bool;  (* faults active and dma_fail_prob > 0 *)
  fault_prng : Sw_util.Prng.t;
  slowdown : float array;
  throttles : Config.mc_throttle list array;
  mutable retries : int;
  mutable transactions : int;
  mutable payload_bytes : int;
  mutable dma_requests : int;
  mutable gload_requests : int;
  mutable processed : int;
}

let[@inline] fmax (a : float) (b : float) = if a >= b then a else b

(* The bandwidth multiplier a throttled controller applies to a grant
   starting at [at]: the deepest factor of any window covering it.
   Only called on the fault path (throttle list non-empty). *)
let throttle_factor st mc_id ~at =
  List.fold_left
    (fun acc (w : Config.mc_throttle) ->
      if at >= w.Config.from_cycle && at < w.Config.until_cycle then
        Stdlib.min acc w.Config.bw_factor
      else acc)
    1.0 st.throttles.(mc_id)

(* Grant [m] transactions on one controller at the current event time
   ([tbuf]); folds the grant time into [gbuf] (the latest-grant max).
   The untrottled fast path skips the [/. 1.0] — bit-identical. *)
let grant_upd st mc m =
  let at = Array.unsafe_get st.tbuf 0 in
  let bw = Array.unsafe_get st.mc_bw mc in
  let start = if bw >= at then bw else at in
  let ttx =
    match st.throttles.(mc) with
    | [] -> st.k_ttx
    | _ :: _ -> st.k_ttx /. throttle_factor st mc ~at:start
  in
  let fm = float_of_int m in
  Array.unsafe_set st.mc_bw mc (start +. (fm *. ttx));
  Array.unsafe_set st.mc_busy mc (Array.unsafe_get st.mc_busy mc +. (fm *. ttx));
  st.transactions <- st.transactions + m;
  if start > Array.unsafe_get st.gbuf 0 then Array.unsafe_set st.gbuf 0 start

(* With faults injected, a request may transiently fail admission (see
   the reference engine).  The PRNG is consumed under exactly the reference's
   short-circuit conditions, so the same seed replays the same
   failures. *)
let admit_fails st r =
  st.fault_dma
  && st.rq_attempts.(r) < st.k_max_retries
  && Sw_util.Prng.float st.fault_prng 1.0 < st.k_fail_prob

let rq_alloc st =
  if st.rq_free_top = 0 then begin
    let cap = st.rq_cap in
    let ncap = cap * 2 in
    let grow_i a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    let b = Array.make ncap dummy_compiled in
    Array.blit st.rq_comp 0 b 0 cap;
    st.rq_comp <- b;
    let bf = Array.make ncap 0.0 in
    Array.blit st.rq_issue 0 bf 0 cap;
    st.rq_issue <- bf;
    st.rq_cpe <- grow_i st.rq_cpe;
    st.rq_attempts <- grow_i st.rq_attempts;
    st.rq_row <- grow_i st.rq_row;
    (* the new upper half becomes the free list *)
    let fl = Array.make ncap 0 in
    for k = 0 to cap - 1 do
      fl.(k) <- ncap - 1 - k
    done;
    st.rq_free <- fl;
    st.rq_free_top <- cap;
    st.rq_cap <- ncap
  end;
  st.rq_free_top <- st.rq_free_top - 1;
  st.rq_free.(st.rq_free_top)

(* Execute one CPE until it blocks or finishes.  Top-level recursion
   (a local closure would allocate per call); the frame-stack arrays of
   the CPE are threaded as arguments so the loop doesn't re-chase
   [st.cp_fidx.(i)] etc. on every item.  Unsafe accesses: [i] came out
   of an event code this engine pushed (so [i < n]), item indices are
   bounded by the frame ends the lowering computed, and rows/tags are
   in range by construction of [compiled]; the differential suite runs
   every op through these paths against the reference. *)
let rec exec st i k (fstart : int array) (fend : int array) (fidx : int array)
    (frem : int array) d =
  if d = 0 then begin
    Array.unsafe_set st.cp_finished i true;
    Array.unsafe_set st.cp_finish i (Array.unsafe_get st.cp_now i)
  end
  else begin
    let lvl = d - 1 in
    let idx = Array.unsafe_get fidx lvl in
    if idx >= Array.unsafe_get fend lvl then begin
      let rem = Array.unsafe_get frem lvl - 1 in
      Array.unsafe_set frem lvl rem;
      if rem > 0 then begin
        Array.unsafe_set fidx lvl (Array.unsafe_get fstart lvl);
        Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_loop);
        exec st i k fstart fend fidx frem d
      end
      else begin
        Array.unsafe_set st.cp_depth i lvl;
        exec st i k fstart fend fidx frem lvl
      end
    end
    else begin
      Array.unsafe_set fidx lvl (idx + 1);
      let op = Array.unsafe_get k.c_op idx in
      if op = op_compute then begin
        (* branch on the recorder first: in the None arm the cost is
           only ever used unboxed *)
        (match st.recorder with
        | Some record ->
            let cost = k.c_cost.(idx) *. st.slowdown.(i) in
            if cost > 0.0 then begin
              let t0 = st.cp_now.(i) in
              record { Trace.cpe = i; kind = Trace.Compute; t0; t1 = t0 +. cost }
            end;
            st.cp_now.(i) <- st.cp_now.(i) +. cost;
            st.cp_comp.(i) <- st.cp_comp.(i) +. cost
        | None ->
            let cost = Array.unsafe_get k.c_cost idx *. Array.unsafe_get st.slowdown i in
            Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. cost);
            Array.unsafe_set st.cp_comp i (Array.unsafe_get st.cp_comp i +. cost));
        exec st i k fstart fend fidx frem d
      end
      else if op = op_dma_issue then begin
        let row = Array.unsafe_get k.c_arg2 idx in
        let t_issue = Array.unsafe_get st.cp_now i in
        Array.unsafe_set st.cp_now i (t_issue +. st.k_issue);
        let arrival = fmax (Array.unsafe_get st.cp_engine_free i) (Array.unsafe_get st.cp_now i) in
        (* the engine busies itself for the stream length; refined at
           admission when the grant is later than the arrival *)
        Array.unsafe_set st.cp_engine_free i (arrival +. Array.unsafe_get k.r_stream row);
        let tag = Array.unsafe_get k.c_arg idx in
        let outst = Array.unsafe_get st.cp_outst i in
        Array.unsafe_set outst tag (Array.unsafe_get outst tag + 1);
        Array.unsafe_set st.cp_outst_total i (Array.unsafe_get st.cp_outst_total i + 1);
        st.dma_requests <- st.dma_requests + 1;
        st.payload_bytes <- st.payload_bytes + Array.unsafe_get k.r_payload row;
        let r = rq_alloc st in
        Array.unsafe_set st.rq_cpe r i;
        Array.unsafe_set st.rq_attempts r 0;
        Array.unsafe_set st.rq_issue r t_issue;
        Array.unsafe_set st.rq_comp r k;
        Array.unsafe_set st.rq_row r row;
        Array.unsafe_set st.pbuf 0 arrival;
        Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_admit);
        exec st i k fstart fend fidx frem d
      end
      else if op = op_dma_wait then begin
        let tag = Array.unsafe_get k.c_arg idx in
        if Array.unsafe_get (Array.unsafe_get st.cp_outst i) tag = 0 then begin
          Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_wait);
          exec st i k fstart fend fidx frem d
        end
        else begin
          Array.unsafe_set st.cp_blocked i b_tag;
          Array.unsafe_set st.cp_blocked_tag i tag;
          Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i)
        end
      end
      else if op = op_wait_all then begin
        if Array.unsafe_get st.cp_outst_total i = 0 then begin
          Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_wait);
          exec st i k fstart fend fidx frem d
        end
        else begin
          Array.unsafe_set st.cp_blocked i b_all;
          Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i)
        end
      end
      else if op = op_gload then begin
        st.gload_requests <- st.gload_requests + 1;
        st.payload_bytes <- st.payload_bytes + Array.unsafe_get k.c_arg2 idx;
        Array.unsafe_set st.cp_blocked i b_gload;
        Array.unsafe_set st.cp_gload_addr i (Array.unsafe_get k.c_arg idx);
        Array.unsafe_set st.cp_blocked_start i (Array.unsafe_get st.cp_now i);
        Array.unsafe_set st.pbuf 0 (Array.unsafe_get st.cp_now i);
        Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_gload)
      end
      else begin
        (* op_repeat: overhead on entry, then per re-iteration above;
           the parent resumes past the body *)
        Array.unsafe_set st.cp_now i (Array.unsafe_get st.cp_now i +. st.k_loop);
        let span = Array.unsafe_get k.c_arg2 idx in
        Array.unsafe_set fidx lvl (idx + 1 + span);
        Array.unsafe_set fstart d (idx + 1);
        Array.unsafe_set fend d (idx + 1 + span);
        Array.unsafe_set fidx d (idx + 1);
        Array.unsafe_set frem d (Array.unsafe_get k.c_arg idx);
        Array.unsafe_set st.cp_depth i (d + 1);
        exec st i k fstart fend fidx frem (d + 1)
      end
    end
  end

let run_cpe st i =
  exec st i st.cp_prog.(i) st.cp_fstart.(i) st.cp_fend.(i) st.cp_fidx.(i) st.cp_frem.(i)
    st.cp_depth.(i)

let resume st i =
  (match st.recorder with
  | Some record ->
      let at = st.tbuf.(0) in
      let start = st.cp_blocked_start.(i) in
      if at > start then record { Trace.cpe = i; kind = Trace.Dma_stall; t0 = start; t1 = at }
  | None -> ());
  let at = Array.unsafe_get st.tbuf 0 in
  let start = Array.unsafe_get st.cp_blocked_start i in
  let d = at -. start in
  Array.unsafe_set st.cp_dma_wait i
    (Array.unsafe_get st.cp_dma_wait i +. (if d >= 0.0 then d else 0.0));
  Array.unsafe_set st.cp_now i ((if at >= start then at else start) +. st.k_wait);
  Array.unsafe_set st.cp_blocked i b_none;
  Array.unsafe_set st.pbuf 0 (Array.unsafe_get st.cp_now i);
  Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)

let handle_req_done st r =
  let k = Array.unsafe_get st.rq_comp r in
  let row = Array.unsafe_get st.rq_row r in
  (match st.req_recorder with
  | Some record ->
      record
        { Trace.req_cpe = st.rq_cpe.(r); req_tag = k.r_orig.(row); t_issue = st.rq_issue.(r);
          t_done = st.tbuf.(0); req_retries = st.rq_attempts.(r) }
  | None -> ());
  let i = Array.unsafe_get st.rq_cpe r in
  let tag = Array.unsafe_get k.r_tag row in
  let outst = Array.unsafe_get st.cp_outst i in
  assert (outst.(tag) > 0);
  Array.unsafe_set outst tag (Array.unsafe_get outst tag - 1);
  Array.unsafe_set st.cp_outst_total i (Array.unsafe_get st.cp_outst_total i - 1);
  (match Array.unsafe_get st.cp_blocked i with
  | 1 (* b_tag *) ->
      if Array.unsafe_get st.cp_blocked_tag i = tag && Array.unsafe_get outst tag = 0 then
        resume st i
  | 2 (* b_all *) -> if Array.unsafe_get st.cp_outst_total i = 0 then resume st i
  | _ -> ());
  (* recycle the request slot *)
  Array.unsafe_set st.rq_free st.rq_free_top r;
  st.rq_free_top <- st.rq_free_top + 1

let handle_admit st r =
  let i = Array.unsafe_get st.rq_cpe r in
  let k = Array.unsafe_get st.rq_comp r in
  let row = Array.unsafe_get st.rq_row r in
  if admit_fails st r then begin
    st.rq_attempts.(r) <- st.rq_attempts.(r) + 1;
    let backoff = float_of_int (st.k_backoff_base * (1 lsl (st.rq_attempts.(r) - 1))) in
    st.retries <- st.retries + 1;
    st.acc.(0) <- st.acc.(0) +. backoff;
    (match st.retry_recorder with
    | Some record ->
        let at = st.tbuf.(0) in
        record
          { Trace.rt_cpe = i; rt_tag = k.r_orig.(row); rt_attempt = st.rq_attempts.(r);
            t_fail = at; t_retry = at +. backoff }
    | None -> ());
    st.pbuf.(0) <- st.tbuf.(0) +. backoff;
    Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_admit)
  end
  else begin
    (* bandwidth grant on every controller the request touches;
       [gbuf] accumulates the latest grant starting from [at] *)
    Array.unsafe_set st.gbuf 0 (Array.unsafe_get st.tbuf 0);
    let base = row * st.k_ncgs in
    for mc = 0 to st.k_ncgs - 1 do
      let m = Array.unsafe_get k.r_permc (base + mc) in
      if m > 0 then grant_upd st mc m
    done;
    let lg = Array.unsafe_get st.gbuf 0 in
    let tail = Array.unsafe_get k.r_tail row in
    let noc = if Array.unsafe_get k.r_remote row then st.k_noc else 0.0 in
    let completion = lg +. tail +. st.k_lbase +. noc in
    (* the CPE's DMA engine is occupied until the stream drains *)
    Array.unsafe_set st.cp_engine_free i
      (fmax (Array.unsafe_get st.cp_engine_free i) (lg +. tail));
    Array.unsafe_set st.pbuf 0 completion;
    Cq.push_ref st.events st.pbuf ((r lsl 2) lor ev_done)
  end

let handle_gload_mc st i =
  if st.cp_blocked.(i) <> b_gload then
    invalid_arg "Engine: Gload_mc event for a CPE not blocked on a gload";
  let block_addr = st.cp_gload_addr.(i) / st.k_trans_size * st.k_trans_size in
  let mc_id = Mem_req.route_cg ~trans_size:st.k_trans_size ~n_cgs:st.k_ncgs block_addr in
  st.gbuf.(0) <- neg_infinity;
  grant_upd st mc_id 1;
  let noc = if mc_id <> st.cp_home.(i) then st.k_noc else 0.0 in
  let completion = st.gbuf.(0) +. st.k_lbase +. noc in
  st.cp_gload_wait.(i) <- st.cp_gload_wait.(i) +. (completion -. st.cp_blocked_start.(i));
  st.cp_now.(i) <- completion;
  (match st.recorder with
  | Some record ->
      record
        { Trace.cpe = i; kind = Trace.Gload_stall; t0 = st.cp_blocked_start.(i);
          t1 = st.cp_now.(i) }
  | None -> ());
  st.cp_blocked.(i) <- b_none;
  st.pbuf.(0) <- st.cp_now.(i);
  Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)

(* After an admission, drain every same-timestamp [Req_admit] sitting
   at the head of the queue in one pass.  Only events the outer loop
   would pop next anyway are taken (the peek respects the global
   (time, seq) order), so event ordering — and hence every observable —
   is unchanged; the point is to skip the outer loop's dispatch and
   cutoff checks across a burst of simultaneous admissions, the common
   shape at a saturated controller. *)
let rec drain_admits st ~event_budget ~max_events =
  if st.processed < event_budget then begin
    let c = Cq.peek_into st.events st.qbuf in
    if c >= 0 && c land 3 = ev_admit && st.qbuf.(0) = st.tbuf.(0) then begin
      let c = Cq.pop_into st.events st.tbuf in
      st.processed <- st.processed + 1;
      if st.processed > max_events then raise Event_limit;
      handle_admit st (c lsr 2);
      drain_admits st ~event_budget ~max_events
    end
  end

let run_internal ?recorder ?req_recorder ?retry_recorder ?cutoff ?event_budget
    (config : Config.t) programs =
  let p = config.params in
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> raise (Config.Invalid_config ("Engine.run: " ^ msg)));
  let n = Array.length programs in
  if n = 0 then invalid_arg "Engine.run: no programs";
  if n > Sw_arch.Params.total_cpes p then
    invalid_arg
      (Printf.sprintf "Engine.run: %d programs but only %d CPEs configured" n
         (Sw_arch.Params.total_cpes p));
  (* one cache probe per program, shared by the validation skip and the
     lowering: a compile-cache hit proves the program already validated
     under these params.  Validation of every program still precedes
     any lowering so rejection order matches the reference. *)
  let key i = (programs.(i), i / p.cpes_per_cg, p) in
  let cached = Array.init n (fun i -> Compile_memo.find compile_cache (key i)) in
  Array.iteri
    (fun i prog ->
      if cached.(i) = None then
        match Program.validate p prog with
        | Ok () -> ()
        | Error msg -> invalid_arg (Printf.sprintf "Engine.run: program %d invalid: %s" i msg))
    programs;
  (* lower the programs: per-block costs flow through the process-wide
     cache of {!Sw_isa.Schedule}, and whole lowered programs are reused
     across runs via the (program, home CG, params) compile cache *)
  let table = lazy (Sw_isa.Schedule.Table.create p) in
  let bcache = ref [] in
  let compiled =
    Array.init n (fun i ->
        match cached.(i) with
        | Some c -> c
        | None ->
            Compile_memo.add compile_cache (key i)
              (compile p (Lazy.force table) bcache ~home:(i / p.cpes_per_cg) programs.(i)))
  in
  let prng = Sw_util.Prng.create config.seed in
  let cp_now = Array.make n 0.0 in
  for i = 0 to n - 1 do
    (* jitter draws in CPE order, exactly as the reference's Array.init *)
    cp_now.(i) <-
      (if config.start_jitter > 0 then
         float_of_int (Sw_util.Prng.int prng (config.start_jitter + 1))
       else 0.0)
  done;
  let cp_fstart = Array.init n (fun i -> Array.make compiled.(i).k_depth 0) in
  let cp_fend = Array.init n (fun i -> Array.make compiled.(i).k_depth 0) in
  let cp_fidx = Array.init n (fun i -> Array.make compiled.(i).k_depth 0) in
  let cp_frem = Array.init n (fun i -> Array.make compiled.(i).k_depth 0) in
  let cp_depth = Array.make n 0 in
  for i = 0 to n - 1 do
    if Array.length programs.(i) > 0 then begin
      cp_fend.(i).(0) <- compiled.(i).k_nitems;
      cp_frem.(i).(0) <- 1;
      cp_depth.(i) <- 1
    end
  done;
  let faults = config.Config.faults in
  let slowdown = Array.make n 1.0 in
  List.iter (fun (id, factor) -> if id < n then slowdown.(id) <- factor) faults.Config.stragglers;
  let throttles = Array.make p.n_cgs [] in
  List.iter (fun (mc, w) -> throttles.(mc) <- throttles.(mc) @ [ w ]) faults.Config.mc_throttles;
  let faults_on = Config.faults_active faults in
  let rq_cap = let c = 2 * n in if c < 16 then 16 else c in
  let st =
    {
      recorder;
      req_recorder;
      retry_recorder;
      cp_prog = compiled;
      cp_home = Array.init n (fun i -> i / p.cpes_per_cg);
      cp_now;
      cp_engine_free = Array.make n 0.0;
      cp_comp = Array.make n 0.0;
      cp_gload_wait = Array.make n 0.0;
      cp_dma_wait = Array.make n 0.0;
      cp_finish = Array.make n 0.0;
      cp_finished = Array.make n false;
      cp_blocked = Array.make n b_none;
      cp_blocked_tag = Array.make n 0;
      cp_blocked_start = Array.make n 0.0;
      cp_gload_addr = Array.make n 0;
      cp_outst = Array.init n (fun i -> Array.make compiled.(i).k_ntags 0);
      cp_outst_total = Array.make n 0;
      cp_fstart;
      cp_fend;
      cp_fidx;
      cp_frem;
      cp_depth;
      mc_bw = Array.make p.n_cgs 0.0;
      mc_busy = Array.make p.n_cgs 0.0;
      rq_cap;
      rq_cpe = Array.make rq_cap 0;
      rq_attempts = Array.make rq_cap 0;
      rq_issue = Array.make rq_cap 0.0;
      rq_comp = Array.make rq_cap dummy_compiled;
      rq_row = Array.make rq_cap 0;
      rq_free = Array.init rq_cap (fun k -> rq_cap - 1 - k);
      rq_free_top = rq_cap;
      events = Cq.create ~capacity:(4 * n) ();
      tbuf = Array.make 1 0.0;
      pbuf = Array.make 1 0.0;
      qbuf = Array.make 1 0.0;
      gbuf = Array.make 1 0.0;
      acc = Array.make 1 0.0;
      k_issue = float_of_int config.dma_issue_cost;
      k_wait = float_of_int config.dma_wait_cost;
      k_loop = float_of_int config.loop_overhead;
      k_ttx = Sw_arch.Params.cycles_per_transaction p;
      k_lbase = float_of_int p.l_base;
      k_noc = float_of_int p.noc_extra_latency;
      k_trans_size = p.trans_size;
      k_ncgs = p.n_cgs;
      k_fail_prob = faults.Config.dma_fail_prob;
      k_max_retries = faults.Config.dma_max_retries;
      k_backoff_base = faults.Config.dma_backoff_cycles;
      fault_dma = faults_on && faults.Config.dma_fail_prob > 0.0;
      fault_prng = Sw_util.Prng.create faults.Config.fault_seed;
      slowdown;
      throttles;
      retries = 0;
      transactions = 0;
      payload_bytes = 0;
      dma_requests = 0;
      gload_requests = 0;
      processed = 0;
    }
  in
  for i = 0 to n - 1 do
    st.pbuf.(0) <- st.cp_now.(i);
    Cq.push_ref st.events st.pbuf ((i lsl 2) lor ev_step)
  done;
  let cutoff = Option.value cutoff ~default:infinity in
  let event_budget = Option.value event_budget ~default:max_int in
  let max_events = config.max_events in
  (* The queue delivers events in time order, so the clock of the next
     unprocessed event is a lower bound on the final makespan: the
     moment it passes [cutoff] the run cannot beat the incumbent and is
     abandoned.  The comparison is strict so a run that exactly ties
     the incumbent still completes — pruned searches keep the
     earliest-index tie-break of the exhaustive argmin. *)
  let rec loop () =
    let c = Cq.pop_into st.events st.tbuf in
    if c < 0 then begin
      let first = ref (-1) in
      for i = n - 1 downto 0 do
        if not st.cp_finished.(i) then first := i
      done;
      if !first >= 0 then
        raise
          (Deadlock
             (Printf.sprintf "event queue empty with unfinished CPEs (first: %d)" !first));
      None
    end
    else if st.tbuf.(0) > cutoff || st.processed >= event_budget then Some st.tbuf.(0)
    else begin
      st.processed <- st.processed + 1;
      if st.processed > max_events then raise Event_limit;
      (match c land 3 with
      | 0 (* ev_step *) ->
          let i = c lsr 2 in
          if not st.cp_finished.(i) then run_cpe st i
      | 1 (* ev_admit *) ->
          handle_admit st (c lsr 2);
          drain_admits st ~event_budget ~max_events
      | 2 (* ev_done *) -> handle_req_done st (c lsr 2)
      | _ (* ev_gload *) -> handle_gload_mc st (c lsr 2));
      loop ()
    end
  in
  match loop () with
  | Some at -> Cutoff { at; events = st.processed }
  | None ->
      let maxf a = Array.fold_left (fun acc v -> fmax acc v) 0.0 a in
      Finished
        {
          Metrics.cycles = maxf st.cp_finish;
          per_cpe_finish = Array.copy st.cp_finish;
          comp_cycles = maxf st.cp_comp;
          dma_wait_cycles = maxf st.cp_dma_wait;
          gload_cycles = maxf st.cp_gload_wait;
          comp_cycles_sum = Array.fold_left ( +. ) 0.0 st.cp_comp;
          transactions = st.transactions;
          payload_bytes = st.payload_bytes;
          dma_requests = st.dma_requests;
          gload_requests = st.gload_requests;
          mc_busy_cycles = Array.copy st.mc_busy;
          events = st.processed;
          retries = st.retries;
          backoff_cycles = st.acc.(0);
        }

let finished_exn = function
  | Finished m -> m
  | Cutoff _ -> assert false (* unreachable without ?cutoff/?event_budget *)

let run config programs = finished_exn (run_internal config programs)

let run_budget ?cutoff ?event_budget config programs =
  run_internal ?cutoff ?event_budget config programs

let run_traced_full config programs =
  let spans = ref [] in
  let reqs = ref [] in
  let retries = ref [] in
  let metrics =
    finished_exn
      (run_internal
         ~recorder:(fun s -> spans := s :: !spans)
         ~req_recorder:(fun r -> reqs := r :: !reqs)
         ~retry_recorder:(fun r -> retries := r :: !retries)
         config programs)
  in
  (metrics, List.rev !spans, List.rev !reqs, List.rev !retries)

let run_traced config programs =
  let metrics, spans, _, _ = run_traced_full config programs in
  (metrics, spans)
