(* The pre-calendar-queue engine, preserved verbatim as the reference
   path: a generic {!Heap} of boxed [ev] variants, per-frame
   recosting through a per-run block-cost hashtable, and per-issue
   transaction routing.  Sw_sim.Engine (the production core) must stay
   bit-identical to this module on every workload — the differential
   tests in test/test_engine_diff.ml and the [bench engine] section
   compare against it — and the bench gate measures speedup relative
   to it.  Do not optimize this file. *)

module Program = Sw_isa.Program
module Mem_req = Sw_arch.Mem_req
module Config = Sw_sim.Config
module Metrics = Sw_sim.Metrics
module Trace = Sw_sim.Trace

exception Deadlock of string

exception Event_limit

(* One DMA request: transaction counts per memory controller, plus
   completion bookkeeping. *)
type req = {
  r_cpe : int;
  r_tag : int;
  r_issue : float;  (* CPE clock when the issue instruction started *)
  per_mc : int array;  (* transactions routed to each controller *)
  m_total : int;
  remote : bool;  (* touches a controller other than the home CG *)
  mutable r_attempts : int;  (* injected transient failures survived *)
}

type gload_pending = { g_addr : int; g_bytes : int; g_start : float }

type blocked =
  | Not_blocked
  | On_tag of int * float
  | On_all of float
  | On_gload of gload_pending

type frame = { body : Program.item array; mutable idx : int; mutable remaining : int }

type cpe = {
  id : int;
  home_cg : int;
  mutable now : float;
  mutable stack : frame list;
  outstanding : (int, int ref) Hashtbl.t;
  mutable outstanding_total : int;
  mutable blocked : blocked;
  mutable engine_free : float;
  mutable comp : float;
  mutable gload_wait : float;
  mutable dma_wait : float;
  mutable finished : bool;
  mutable finish_time : float;
}

(* A controller grants bandwidth to requests in admission order:
   [bw_clock] is the time up to which the bandwidth is committed.  A
   request of [m] transactions commits [m * cycles_per_transaction] of
   bandwidth-time and streams from its grant at the DMA engine's
   [delta_delay] per transaction — so roughly [delta/ttx] requests are
   in flight at saturation, which is the paper's MRP. *)
type mc = { mutable bw_clock : float; mutable busy : float }

type ev = Step of int | Req_admit of req | Gload_mc of int | Req_done of req

type run_result = Finished of Metrics.t | Cutoff of { at : float; events : int }

type state = {
  config : Config.t;
  recorder : (Trace.span -> unit) option;
  req_recorder : (Trace.dma_req -> unit) option;
  retry_recorder : (Trace.dma_retry -> unit) option;
  cpes : cpe array;
  mcs : mc array;
  events : ev Heap.t;
  block_costs : (Sw_isa.Instr.t array, float * float) Hashtbl.t;
  (* fault-injection state: all derived from [config.faults], all
     consumed inside the (deterministic, single-threaded) event loop *)
  faults_on : bool;
  fault_prng : Sw_util.Prng.t;
  slowdown : float array;  (* per-CPE compute slowdown factor, 1.0 nominal *)
  throttles : Config.mc_throttle list array;  (* per-MC throttle windows *)
  mutable retries : int;
  mutable backoff_cycles : float;
  mutable transactions : int;
  mutable payload_bytes : int;
  mutable dma_requests : int;
  mutable gload_requests : int;
  mutable processed : int;
}

(* Block costs come from the process-wide Schedule cache so repeated
   runs across variants (and tuning domains) share the scheduling work;
   the per-run table is a lock-free L1 in front of it. *)
let compute_cost st block trips =
  if trips <= 0 then 0.0
  else begin
    let once, steady =
      match Hashtbl.find_opt st.block_costs block with
      | Some pair -> pair
      | None ->
          let pair = Sw_isa.Schedule.block_costs st.config.params block in
          Hashtbl.add st.block_costs block pair;
          pair
    in
    once +. (float_of_int (trips - 1) *. steady)
  end

let route_counts (p : Sw_arch.Params.t) accesses =
  let counts = Array.make p.n_cgs 0 in
  List.iter
    (fun access ->
      Mem_req.iter_transactions ~trans_size:p.trans_size access (fun block_addr ->
          let mc = Mem_req.route_cg ~trans_size:p.trans_size ~n_cgs:p.n_cgs block_addr in
          counts.(mc) <- counts.(mc) + 1))
    accesses;
  counts

(* The bandwidth multiplier a throttled controller applies to a grant
   starting at [at]: the deepest factor of any window covering it. *)
let throttle_factor st mc_id ~at =
  match st.throttles.(mc_id) with
  | [] -> 1.0
  | windows ->
      List.fold_left
        (fun acc (w : Config.mc_throttle) ->
          if at >= w.Config.from_cycle && at < w.Config.until_cycle then
            Stdlib.min acc w.Config.bw_factor
          else acc)
        1.0 windows

(* Grant [m] transactions of bandwidth on one controller at time [t];
   returns the grant time.  A throttled window stretches the per-
   transaction service time by [1 / bw_factor]. *)
let grant st mc_id ~at ~m =
  let p = st.config.params in
  let mc = st.mcs.(mc_id) in
  let start = Stdlib.max mc.bw_clock at in
  let ttx = Sw_arch.Params.cycles_per_transaction p /. throttle_factor st mc_id ~at:start in
  mc.bw_clock <- start +. (float_of_int m *. ttx);
  mc.busy <- mc.busy +. (float_of_int m *. ttx);
  st.transactions <- st.transactions + m;
  start

let outstanding_for cpe tag =
  match Hashtbl.find_opt cpe.outstanding tag with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add cpe.outstanding tag r;
      r

let rec run_cpe st cpe =
  match cpe.stack with
  | [] ->
      cpe.finished <- true;
      cpe.finish_time <- cpe.now
  | frame :: rest ->
      if frame.idx >= Array.length frame.body then begin
        frame.remaining <- frame.remaining - 1;
        if frame.remaining > 0 then begin
          frame.idx <- 0;
          cpe.now <- cpe.now +. float_of_int st.config.loop_overhead
        end
        else cpe.stack <- rest;
        run_cpe st cpe
      end
      else begin
        let item = frame.body.(frame.idx) in
        frame.idx <- frame.idx + 1;
        match item with
        | Program.Compute { block; trips } ->
            let cost = compute_cost st block trips *. st.slowdown.(cpe.id) in
            (match st.recorder with
            | Some record when cost > 0.0 ->
                record { Trace.cpe = cpe.id; kind = Trace.Compute; t0 = cpe.now; t1 = cpe.now +. cost }
            | Some _ | None -> ());
            cpe.now <- cpe.now +. cost;
            cpe.comp <- cpe.comp +. cost;
            run_cpe st cpe
        | Program.Repeat { trips; body } ->
            if trips > 0 && Array.length body > 0 then begin
              cpe.now <- cpe.now +. float_of_int st.config.loop_overhead;
              cpe.stack <- { body; idx = 0; remaining = trips } :: cpe.stack
            end;
            run_cpe st cpe
        | Program.Dma_issue ({ tag; _ } as d) ->
            let t_issue = cpe.now in
            cpe.now <- cpe.now +. float_of_int st.config.dma_issue_cost;
            let p = st.config.params in
            let per_mc = route_counts p d.Program.accesses in
            let m_total = Array.fold_left ( + ) 0 per_mc in
            (* allocation-free early-exit scan: this runs once per DMA
               request, the hottest admin path in memory-bound sweeps *)
            let remote =
              let n = Array.length per_mc in
              let rec scan i = i < n && ((per_mc.(i) > 0 && i <> cpe.home_cg) || scan (i + 1)) in
              scan 0
            in
            let arrival = Stdlib.max cpe.engine_free cpe.now in
            (* the engine busies itself for the stream length; refined at
               admission when the grant is later than the arrival *)
            cpe.engine_free <- arrival +. (float_of_int m_total *. float_of_int p.delta_delay);
            let counter = outstanding_for cpe tag in
            incr counter;
            cpe.outstanding_total <- cpe.outstanding_total + 1;
            st.dma_requests <- st.dma_requests + 1;
            st.payload_bytes <- st.payload_bytes + Program.dma_payload d;
            let req =
              { r_cpe = cpe.id; r_tag = tag; r_issue = t_issue; per_mc; m_total; remote;
                r_attempts = 0 }
            in
            Heap.push st.events arrival (Req_admit req);
            run_cpe st cpe
        | Program.Dma_wait tag ->
            let counter = outstanding_for cpe tag in
            if !counter = 0 then begin
              cpe.now <- cpe.now +. float_of_int st.config.dma_wait_cost;
              run_cpe st cpe
            end
            else cpe.blocked <- On_tag (tag, cpe.now)
        | Program.Dma_wait_all ->
            if cpe.outstanding_total = 0 then begin
              cpe.now <- cpe.now +. float_of_int st.config.dma_wait_cost;
              run_cpe st cpe
            end
            else cpe.blocked <- On_all cpe.now
        | Program.Gload { addr; bytes } | Program.Gstore { addr; bytes } ->
            st.gload_requests <- st.gload_requests + 1;
            st.payload_bytes <- st.payload_bytes + bytes;
            cpe.blocked <- On_gload { g_addr = addr; g_bytes = bytes; g_start = cpe.now };
            Heap.push st.events cpe.now (Gload_mc cpe.id)
      end

let resume_after_wait st cpe ~at =
  match cpe.blocked with
  | On_tag (_, start) | On_all start ->
      (match st.recorder with
      | Some record when at > start ->
          record { Trace.cpe = cpe.id; kind = Trace.Dma_stall; t0 = start; t1 = at }
      | Some _ | None -> ());
      cpe.dma_wait <- cpe.dma_wait +. Stdlib.max 0.0 (at -. start);
      cpe.now <- Stdlib.max at start +. float_of_int st.config.dma_wait_cost;
      cpe.blocked <- Not_blocked;
      Heap.push st.events cpe.now (Step cpe.id)
  | Not_blocked | On_gload _ -> ()

let handle_req_done st req ~at =
  (match st.req_recorder with
  | Some record ->
      record
        { Trace.req_cpe = req.r_cpe; req_tag = req.r_tag; t_issue = req.r_issue; t_done = at;
          req_retries = req.r_attempts }
  | None -> ());
  let cpe = st.cpes.(req.r_cpe) in
  let counter = outstanding_for cpe req.r_tag in
  assert (!counter > 0);
  decr counter;
  cpe.outstanding_total <- cpe.outstanding_total - 1;
  match cpe.blocked with
  | On_tag (tag, _) when tag = req.r_tag && !counter = 0 -> resume_after_wait st cpe ~at
  | On_all _ when cpe.outstanding_total = 0 -> resume_after_wait st cpe ~at
  | Not_blocked | On_tag _ | On_all _ | On_gload _ -> ()

(* With faults injected, a request may transiently fail admission: it
   re-queues after an exponential backoff (base doubling per attempt),
   up to [dma_max_retries] attempts — transient faults always resolve.
   The failure draw consumes the fault PRNG inside the deterministic
   event loop, so the same seed replays the same failures exactly. *)
let admit_fails st req =
  let f = st.config.Config.faults in
  st.faults_on
  && f.Config.dma_fail_prob > 0.0
  && req.r_attempts < f.Config.dma_max_retries
  && Sw_util.Prng.float st.fault_prng 1.0 < f.Config.dma_fail_prob

let handle_admit st req ~at =
  let p = st.config.params in
  let cpe = st.cpes.(req.r_cpe) in
  if admit_fails st req then begin
    req.r_attempts <- req.r_attempts + 1;
    let backoff =
      float_of_int
        (st.config.Config.faults.Config.dma_backoff_cycles * (1 lsl (req.r_attempts - 1)))
    in
    st.retries <- st.retries + 1;
    st.backoff_cycles <- st.backoff_cycles +. backoff;
    (match st.retry_recorder with
    | Some record ->
        record
          { Trace.rt_cpe = req.r_cpe; rt_tag = req.r_tag; rt_attempt = req.r_attempts;
            t_fail = at; t_retry = at +. backoff }
    | None -> ());
    Heap.push st.events (at +. backoff) (Req_admit req)
  end
  else begin
    (* bandwidth grant on every controller the request touches *)
    let latest_grant = ref at in
    Array.iteri
      (fun mc_id m ->
        if m > 0 then latest_grant := Stdlib.max !latest_grant (grant st mc_id ~at ~m))
      req.per_mc;
    let stream_tail = float_of_int ((req.m_total - 1) * p.delta_delay) in
    let noc = if req.remote then float_of_int p.noc_extra_latency else 0.0 in
    let completion = !latest_grant +. stream_tail +. float_of_int p.l_base +. noc in
    (* the CPE's DMA engine is occupied until the stream drains *)
    cpe.engine_free <- Stdlib.max cpe.engine_free (!latest_grant +. stream_tail);
    Heap.push st.events completion (Req_done req)
  end

let handle_event st ~at = function
  | Step id ->
      let cpe = st.cpes.(id) in
      if not cpe.finished then run_cpe st cpe
  | Req_admit req -> handle_admit st req ~at
  | Req_done req -> handle_req_done st req ~at
  | Gload_mc id -> (
      let cpe = st.cpes.(id) in
      match cpe.blocked with
      | On_gload { g_addr; g_bytes = _; g_start } ->
          let p = st.config.params in
          let block_addr = g_addr / p.trans_size * p.trans_size in
          let mc_id = Mem_req.route_cg ~trans_size:p.trans_size ~n_cgs:p.n_cgs block_addr in
          let start = grant st mc_id ~at ~m:1 in
          let noc = if mc_id <> cpe.home_cg then float_of_int p.noc_extra_latency else 0.0 in
          let completion = start +. float_of_int p.l_base +. noc in
          (match st.recorder with
          | Some record ->
              record { Trace.cpe = cpe.id; kind = Trace.Gload_stall; t0 = g_start; t1 = completion }
          | None -> ());
          cpe.gload_wait <- cpe.gload_wait +. (completion -. g_start);
          cpe.now <- completion;
          cpe.blocked <- Not_blocked;
          Heap.push st.events completion (Step id)
      | Not_blocked | On_tag _ | On_all _ ->
          invalid_arg "Engine: Gload_mc event for a CPE not blocked on a gload")

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
  Array.iteri
    (fun i prog ->
      match Program.validate p prog with
      | Ok () -> ()
      | Error msg -> invalid_arg (Printf.sprintf "Engine.run: program %d invalid: %s" i msg))
    programs;
  let prng = Sw_util.Prng.create config.seed in
  let cpes =
    Array.init n (fun i ->
        let jitter =
          if config.start_jitter > 0 then
            float_of_int (Sw_util.Prng.int prng (config.start_jitter + 1))
          else 0.0
        in
        {
          id = i;
          home_cg = i / p.cpes_per_cg;
          now = jitter;
          stack =
            (if Array.length programs.(i) = 0 then []
             else [ { body = programs.(i); idx = 0; remaining = 1 } ]);
          outstanding = Hashtbl.create 4;
          outstanding_total = 0;
          blocked = Not_blocked;
          engine_free = 0.0;
          comp = 0.0;
          gload_wait = 0.0;
          dma_wait = 0.0;
          finished = false;
          finish_time = 0.0;
        })
  in
  let faults = config.Config.faults in
  let slowdown = Array.make n 1.0 in
  List.iter
    (fun (id, factor) -> if id < n then slowdown.(id) <- factor)
    faults.Config.stragglers;
  let throttles = Array.make p.n_cgs [] in
  List.iter
    (fun (mc, w) -> throttles.(mc) <- throttles.(mc) @ [ w ])
    faults.Config.mc_throttles;
  let st =
    {
      config;
      recorder;
      req_recorder;
      retry_recorder;
      cpes;
      mcs = Array.init p.n_cgs (fun _ -> { bw_clock = 0.0; busy = 0.0 });
      events = Heap.create ();
      block_costs = Hashtbl.create 16;
      faults_on = Config.faults_active faults;
      fault_prng = Sw_util.Prng.create faults.Config.fault_seed;
      slowdown;
      throttles;
      retries = 0;
      backoff_cycles = 0.0;
      transactions = 0;
      payload_bytes = 0;
      dma_requests = 0;
      gload_requests = 0;
      processed = 0;
    }
  in
  Array.iter (fun cpe -> Heap.push st.events cpe.now (Step cpe.id)) cpes;
  let cutoff = Option.value cutoff ~default:infinity in
  let event_budget = Option.value event_budget ~default:max_int in
  (* The heap delivers events in time order, so the clock of the next
     unprocessed event is a lower bound on the final makespan: the
     moment it passes [cutoff] the run cannot beat the incumbent and is
     abandoned.  The comparison is strict so a run that exactly ties
     the incumbent still completes — pruned searches keep the
     earliest-index tie-break of the exhaustive argmin. *)
  let rec loop () =
    match Heap.pop st.events with
    | None ->
        if Array.exists (fun c -> not c.finished) st.cpes then
          raise
            (Deadlock
               (Printf.sprintf "event queue empty with unfinished CPEs (first: %d)"
                  (let found = ref (-1) in
                   Array.iteri
                     (fun i c -> if (not c.finished) && !found < 0 then found := i)
                     st.cpes;
                   !found)));
        None
    | Some (at, ev) ->
        if at > cutoff || st.processed >= event_budget then Some at
        else begin
          st.processed <- st.processed + 1;
          if st.processed > config.max_events then raise Event_limit;
          handle_event st ~at ev;
          loop ()
        end
  in
  match loop () with
  | Some at -> Cutoff { at; events = st.processed }
  | None ->
      let finish = Array.map (fun c -> c.finish_time) cpes in
      let maxf f = Array.fold_left (fun acc c -> Stdlib.max acc (f c)) 0.0 cpes in
      Finished
        {
          Metrics.cycles = Array.fold_left Stdlib.max 0.0 finish;
          per_cpe_finish = finish;
          comp_cycles = maxf (fun c -> c.comp);
          dma_wait_cycles = maxf (fun c -> c.dma_wait);
          gload_cycles = maxf (fun c -> c.gload_wait);
          comp_cycles_sum = Array.fold_left (fun acc c -> acc +. c.comp) 0.0 cpes;
          transactions = st.transactions;
          payload_bytes = st.payload_bytes;
          dma_requests = st.dma_requests;
          gload_requests = st.gload_requests;
          mc_busy_cycles = Array.map (fun mc -> mc.busy) st.mcs;
          events = st.processed;
          retries = st.retries;
          backoff_cycles = st.backoff_cycles;
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
