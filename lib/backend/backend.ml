module Kernel = Sw_swacc.Kernel
module Lower = Sw_swacc.Lower
module Lowered = Sw_swacc.Lowered

type cost = {
  host_wall_s : float;
  host_cpu_s : float;
  machine_us : float;
  machine_events : int;
}

let zero_cost = { host_wall_s = 0.0; host_cpu_s = 0.0; machine_us = 0.0; machine_events = 0 }

let add_cost a b =
  {
    host_wall_s = a.host_wall_s +. b.host_wall_s;
    host_cpu_s = a.host_cpu_s +. b.host_cpu_s;
    machine_us = a.machine_us +. b.machine_us;
    machine_events = a.machine_events + b.machine_events;
  }

type verdict = { cycles : float; cost : cost; breakdown : Swpm.Predict.t option }

type infeasibility = { backend : string; reason : string }

type assessment =
  | Assessed of verdict
  | Infeasible of infeasibility
  | Cut_off of { at : float; cost : cost }

module type S = sig
  val name : string

  val description : string

  val assess :
    ?cutoff:float ->
    ?event_budget:int ->
    Sw_sim.Config.t ->
    Kernel.t ->
    Kernel.variant ->
    assessment
end

type t = (module S)

let name (module B : S) = B.name

let description (module B : S) = B.description

let assess_budget ?cutoff ?event_budget (module B : S) config kernel variant =
  B.assess ?cutoff ?event_budget config kernel variant

let assess (module B : S) config kernel variant =
  match B.assess config kernel variant with
  | Assessed v -> Ok v
  | Infeasible e -> Error e
  | Cut_off _ ->
      (* only budgeted assessments can be cut off *)
      invalid_arg (Printf.sprintf "Backend.assess: %s returned Cut_off without a budget" B.name)

let cycles_exn backend config kernel variant =
  match assess backend config kernel variant with
  | Ok v -> v.cycles
  | Error { backend = b; reason } ->
      invalid_arg
        (Printf.sprintf "Backend.cycles_exn: %s rejects %s: %s" b
           kernel.Kernel.name reason)

(* Measure host wall/CPU seconds around the actual assessment; the
   implementation reports its outcome plus the machine time (and
   simulator events) it consumed. *)
let timed f =
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let cost machine_us machine_events =
    {
      host_wall_s = Unix.gettimeofday () -. wall0;
      host_cpu_s = Sys.time () -. cpu0;
      machine_us;
      machine_events;
    }
  in
  match f () with
  | `Infeasible e -> Infeasible e
  | `Priced (cycles, machine_us, machine_events, breakdown) ->
      Assessed { cycles; cost = cost machine_us machine_events; breakdown }
  | `Cut (at, machine_us, machine_events) ->
      Cut_off { at; cost = cost machine_us machine_events }

(* Static estimators price the whole variant in one closed-form shot;
   a [cutoff] can still classify the answer as a losing candidate, and
   [event_budget] has nothing to meter. *)
let static_result ?cutoff cycles breakdown =
  match cutoff with
  | Some c when cycles > c -> `Cut (cycles, 0.0, 0)
  | _ -> `Priced (cycles, 0.0, 0, breakdown)

(* ------------------------------------------------------------------ *)
(* The four estimators                                                 *)

let static_model : t =
  (module struct
    let name = "model"

    let description = "closed-form static model (Eqs. 1-12); compiles a summary, runs nothing"

    let assess ?cutoff ?event_budget:_ (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              let p = Swpm.Predict.run params summary in
              static_result ?cutoff p.Swpm.Predict.t_total (Some p))
  end)

let simulator : t =
  (module struct
    let name = "sim"

    let description = "cycle-level simulation (the machine stand-in); lowers fully and executes"

    let assess ?cutoff ?event_budget config kernel variant =
      let params = config.Sw_sim.Config.params in
      let us cycles =
        Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz cycles
      in
      timed (fun () ->
          match Lower.lower_cached params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok lowered -> (
              match Machine.run_budget ?cutoff ?event_budget config lowered with
              | Sw_sim.Engine.Finished m ->
                  let cycles = m.Sw_sim.Metrics.cycles in
                  `Priced (cycles, us cycles, m.Sw_sim.Metrics.events, None)
              | Sw_sim.Engine.Cutoff { at; events } ->
                  (* bill the simulated prefix that was actually run *)
                  `Cut (at, us at, events)))
  end)

let roofline : t =
  (module struct
    let name = "roofline"

    let description = "Roofline upper bound (Section VI); arithmetic intensity only"

    let assess ?cutoff ?event_budget:_ (config : Sw_sim.Config.t) kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              let r = Swpm.Roofline.analyze params summary in
              static_result ?cutoff r.Swpm.Roofline.predicted_cycles None)
  end)

let calibrate config (lowered : Lowered.t) =
  let params = config.Sw_sim.Config.params in
  let s = lowered.Lowered.summary in
  if s.Lowered.gload_count = 0 then Swpm.Hybrid.no_calibration
  else Swpm.Hybrid.calibration_of params s ~measured_cycles:(Machine.cycles config lowered)

let hybrid ?profile () : t =
  (module struct
    let name = "hybrid"

    let description = "static model + one cached lightweight profile per kernel (Section III-F)"

    (* Per-kernel calibration cache.  The profile variant depends only
       on the kernel (and the requested CPE count), never on which
       assessment arrives first, so pooled and sequential runs agree. *)
    let lock = Mutex.create ()

    let cache : (string * int * int, Swpm.Hybrid.calibration * float) Hashtbl.t =
      Hashtbl.create 8

    let profile_lowered params kernel active_cpes =
      let try_variant v = Result.to_option (Lower.lower params kernel v) in
      match profile with
      | Some v -> try_variant v
      | None ->
          List.find_map
            (fun grain ->
              try_variant
                { Kernel.grain; unroll = 1; active_cpes; double_buffer = false })
            [ 64; 32; 16; 8; 4; 2; 1 ]

    (* Returns the calibration plus the machine microseconds to bill
       this caller: the full profile cost for whichever assessment ran
       it, zero for everyone hitting the cache afterwards. *)
    let calibration_for config kernel (variant : Kernel.variant) =
      let params = config.Sw_sim.Config.params in
      let key = (kernel.Kernel.name, kernel.Kernel.n_elements, variant.Kernel.active_cpes) in
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match Hashtbl.find_opt cache key with
          | Some (cal, _) -> (cal, 0.0)
          | None ->
              let cal =
                match profile_lowered params kernel variant.Kernel.active_cpes with
                | Some lowered -> calibrate config lowered
                | None -> Swpm.Hybrid.no_calibration
              in
              let profile_us =
                Sw_util.Units.cycles_to_us ~freq_hz:params.Sw_arch.Params.freq_hz
                  cal.Swpm.Hybrid.profile_cycles
              in
              Hashtbl.add cache key (cal, profile_us);
              (cal, profile_us))

    let assess ?cutoff ?event_budget:_ config kernel variant =
      let params = config.Sw_sim.Config.params in
      timed (fun () ->
          match Lower.summarize params kernel variant with
          | Error reason -> `Infeasible { backend = name; reason }
          | Ok summary ->
              if summary.Lowered.gload_count = 0 then
                let p = Swpm.Predict.run params summary in
                static_result ?cutoff p.Swpm.Predict.t_total (Some p)
              else
                let calibration, machine_us = calibration_for config kernel variant in
                let p = Swpm.Hybrid.predict params summary ~calibration in
                let cycles = p.Swpm.Predict.t_total in
                (* the profile bill sticks to this verdict even when the
                   prediction is then classified as a losing candidate *)
                (match cutoff with
                | Some c when cycles > c -> `Cut (cycles, machine_us, 0)
                | _ -> `Priced (cycles, machine_us, 0, Some p)))
  end)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let instrument sink (inner : t) : t =
  let module I = (val inner : S) in
  let module Wrapped = struct
    let name = I.name

    let description = I.description

    let assess ?cutoff ?event_budget config kernel (variant : Kernel.variant) =
      let t0 = Sw_obs.Sink.now_us sink in
      let r = I.assess ?cutoff ?event_budget config kernel variant in
      let t1 = Sw_obs.Sink.now_us sink in
      let verdict_args =
        match r with
        | Assessed v ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.ok" I.name);
            Sw_obs.Sink.add sink
              (Printf.sprintf "backend.%s.machine_us" I.name)
              v.cost.machine_us;
            [
              ("cycles", Sw_obs.Sink.Float v.cycles);
              ("machine_us", Sw_obs.Sink.Float v.cost.machine_us);
            ]
        | Infeasible e ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.infeasible" I.name);
            [ ("infeasible", Sw_obs.Sink.String e.reason) ]
        | Cut_off { at; cost } ->
            Sw_obs.Sink.incr sink (Printf.sprintf "backend.%s.cutoff" I.name);
            Sw_obs.Sink.add sink
              (Printf.sprintf "backend.%s.machine_us" I.name)
              cost.machine_us;
            [
              ("cut_at", Sw_obs.Sink.Float at);
              ("machine_us", Sw_obs.Sink.Float cost.machine_us);
            ]
      in
      Sw_obs.Sink.record sink
        {
          Sw_obs.Sink.cat = "backend";
          name = Printf.sprintf "%s:%s" I.name kernel.Kernel.name;
          pid = Sw_obs.Sink.host_pid;
          track = (Domain.self () :> int);
          t_us = t0;
          dur_us = t1 -. t0;
          args =
            [
              ("grain", Sw_obs.Sink.Int variant.Kernel.grain);
              ("unroll", Sw_obs.Sink.Int variant.Kernel.unroll);
              ("active_cpes", Sw_obs.Sink.Int variant.Kernel.active_cpes);
              ("double_buffer", Sw_obs.Sink.Bool variant.Kernel.double_buffer);
            ]
            @ verdict_args;
        };
      r
  end in
  (module Wrapped : S)

(* ------------------------------------------------------------------ *)
(* The verdict store                                                   *)

(* One hash over every field that tells two keys of a sweep apart.  The
   generic [Hashtbl.hash] stops after 10 meaningful values and spends
   them all inside the configuration, so it saw the grain and nothing
   else of the variant.  The fault seed keeps a robust search's
   perturbed configurations of one variant out of one bucket. *)
let key_hash (config : Sw_sim.Config.t) kernel elems vw (v : Kernel.variant) =
  let mix h x = (h lxor x) * 0x100000001b3 in
  let h = mix (Hashtbl.hash kernel) elems in
  let h = mix h vw in
  let h = mix h v.Kernel.grain in
  let h = mix h v.Kernel.unroll in
  let h = mix h v.Kernel.active_cpes in
  let h = mix h (Bool.to_int v.Kernel.double_buffer) in
  mix h config.Sw_sim.Config.faults.Sw_sim.Config.fault_seed land max_int

let memo_hash config (kernel : Kernel.t) v =
  key_hash config kernel.Kernel.name kernel.Kernel.n_elements kernel.Kernel.vector_width v

(* Fields in comparison order: the cached hash and the small fields
   reject a colliding key before the configuration is walked. *)
type memo_key = {
  mk_hash : int;
  mk_variant : Kernel.variant;
  mk_kernel : string;
  mk_elems : int;
  mk_vw : int;
  mk_config : Sw_sim.Config.t;
}

let memo_key config kernel elems vw variant =
  {
    mk_hash = key_hash config kernel elems vw variant;
    mk_variant = variant;
    mk_kernel = kernel;
    mk_elems = elems;
    mk_vw = vw;
    mk_config = config;
  }

module Memo_table = Hashtbl.Make (struct
  type t = memo_key

  let equal a b = compare a b = 0
  let hash k = k.mk_hash
end)

(* A key is resolved, proved to cost more than a bound, or being
   computed right now; waiters block on the condition until the
   computing domain publishes its result. *)
type memo_slot = Memo_done of assessment | Memo_bound of float | Memo_running

(* What a resolved assessment leaves in the store.  A verdict is kept
   at zero cost — the miss paid for it — so a hit returns it as is. *)
let slot_of = function
  | Assessed v -> Memo_done (Assessed { v with cost = zero_cost })
  | Infeasible _ as r -> Memo_done r
  | Cut_off { at; _ } -> Memo_bound at

type memo = {
  memo_backend : t;
  memo_hits : int Atomic.t;
  memo_misses : int Atomic.t;
  memo_clear : unit -> unit;
  memo_close : unit -> unit;
}

(* The one store behind [memoize] and [journal]: one table, one
   lookup and one publish rule.  [log key r] runs under the store's
   lock each time a miss adds to what the table knows — a verdict, an
   infeasibility, or a bound stronger than the one held — with the
   inner backend's answer [r], sunk cost included. *)
let store ?sink ~prefix ~description ?(log = fun _ _ -> ()) ?(close = ignore) table (inner : t)
    : memo =
  let module I = (val inner : S) in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let hits = Atomic.make 0 in
  let misses = Atomic.make 0 in
  let hits_key = prefix ^ ".hits" and misses_key = prefix ^ ".misses" in
  let cutoff_hits_key = prefix ^ ".cutoff_hits" in
  (* hit/miss counters mirror the atomics one-for-one: both are bumped
     on the same code path, so sink totals equal the hit/miss counts
     even under pool fan-out *)
  let observe key =
    match sink with Some s -> Sw_obs.Sink.incr s key | None -> ()
  in
  let module M = struct
    let name = Printf.sprintf "%s(%s)" prefix I.name

    let description = description

    let assess ?cutoff ?event_budget config (kernel : Kernel.t) (variant : Kernel.variant) =
      let key =
        memo_key config kernel.Kernel.name kernel.Kernel.n_elements kernel.Kernel.vector_width
          variant
      in
      (* A stored bound [at] answers only what a run would answer
         without looking at [at]'s exact value: under [cutoff = c] with
         no event budget, cycles >= at > c means the run is cut off.
         A stored verdict past the cutoff proves the same, and answers
         the same: a fresh run would have been cut off too. *)
      let proves_cut at =
        match (cutoff, event_budget) with Some c, None -> at > c | _ -> false
      in
      (* single-flight: racing misses of one key wait for the first
         domain instead of computing again, so the inner backend is
         asked once per miss and the counters are exact under any
         fan-out *)
      let decision =
        Mutex.protect lock (fun () ->
            let rec acquire () =
              match Memo_table.find_opt table key with
              | Some (Memo_done (Assessed v)) when proves_cut v.cycles ->
                  `Hit (Cut_off { at = v.cycles; cost = zero_cost })
              | Some (Memo_done r) -> `Hit r
              | Some (Memo_bound at) when proves_cut at -> `Hit (Cut_off { at; cost = zero_cost })
              | Some Memo_running ->
                  Condition.wait cond lock;
                  acquire ()
              | slot ->
                  Memo_table.replace table key Memo_running;
                  `Miss (match slot with Some (Memo_bound at) -> Some at | _ -> None)
            in
            acquire ())
      in
      match decision with
      | `Hit r ->
          Atomic.incr hits;
          observe hits_key;
          (* the work was already paid for by the miss; a hit under an
             event budget returns the full stored verdict — free, and
             strictly more informative than a Cut_off *)
          (match r with Cut_off _ -> observe cutoff_hits_key | _ -> ());
          r
      | `Miss bound ->
          Atomic.incr misses;
          observe misses_key;
          let publish slot news =
            Mutex.protect lock (fun () ->
                (match slot with
                | Some s -> Memo_table.replace table key s
                | None -> Memo_table.remove table key);
                Condition.broadcast cond;
                match news with Some r -> log key r | None -> ())
          in
          (match I.assess ?cutoff ?event_budget config kernel variant with
          | exception e ->
              publish (Option.map (fun b -> Memo_bound b) bound) None;
              raise e
          | r ->
              (match (r, bound) with
              | Cut_off { at; _ }, Some b when at <= b ->
                  (* a bound is never weakened: a shorter re-run (under
                     an event budget) leaves the strongest one proved so
                     far.  The engine's clock is monotone, so a run
                     stopped at [at] — by a cutoff or by a budget —
                     costs >= at. *)
                  publish (Some (Memo_bound b)) None
              | _ -> publish (Some (slot_of r)) (Some r));
              r)
  end in
  {
    memo_backend = (module M : S);
    memo_hits = hits;
    memo_misses = misses;
    memo_clear = (fun () -> Mutex.protect lock (fun () -> Memo_table.reset table));
    memo_close = close;
  }

let memoize ?sink inner =
  store ?sink ~prefix:"memo"
    ~description:(Printf.sprintf "memoizing %s" (description inner))
    (Memo_table.create 64) inner

let memoized m = m.memo_backend

let memo_hits m = Atomic.get m.memo_hits

let memo_misses m = Atomic.get m.memo_misses

let memo_clear m = m.memo_clear ()

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

exception Timeout of { backend : string; limit_s : float; elapsed_s : float }

let with_timeout ?sink ~limit_s (inner : t) : t =
  if not (limit_s >= 0.0) then invalid_arg "Backend.with_timeout: limit_s must be >= 0";
  let module I = (val inner : S) in
  let module W = struct
    let name = Printf.sprintf "timeout(%s)" I.name

    let description =
      Printf.sprintf "%s, disqualified after %gs of host wall clock" I.description limit_s

    (* OCaml cannot preempt a pure computation, so the watchdog is
       post-hoc: the assessment runs to completion, and an answer that
       arrived too late is discarded and reported as a Timeout — which
       is exactly what a degradation chain needs to know. *)
    let assess ?cutoff ?event_budget config kernel variant =
      let t0 = Unix.gettimeofday () in
      let r = I.assess ?cutoff ?event_budget config kernel variant in
      let elapsed_s = Unix.gettimeofday () -. t0 in
      if elapsed_s > limit_s then begin
        (match sink with
        | Some s -> Sw_obs.Sink.incr s (Printf.sprintf "backend.timeout.%s" I.name)
        | None -> ());
        raise (Timeout { backend = I.name; limit_s; elapsed_s })
      end;
      r
  end in
  (module W : S)

let fallback ?sink (chain : t list) : t =
  if chain = [] then invalid_arg "Backend.fallback: empty chain";
  let names = List.map name chain in
  let module W = struct
    let name = Printf.sprintf "fallback(%s)" (String.concat ">" names)

    let description =
      Printf.sprintf "degrades through %s; never raises" (String.concat " > " names)

    let assess ?cutoff ?event_budget config kernel variant =
      let degraded backend_name =
        match sink with
        | Some s -> Sw_obs.Sink.incr s (Printf.sprintf "backend.degraded.%s" backend_name)
        | None -> ()
      in
      let rec go last_err = function
        | [] ->
            (* every estimator failed: surface a typed answer instead
               of an exception, so tuners treat the point like any
               other rejected variant *)
            (match sink with
            | Some s -> Sw_obs.Sink.incr s "backend.fallback.exhausted"
            | None -> ());
            Infeasible
              {
                backend = name;
                reason = Printf.sprintf "all backends failed (last: %s)" last_err;
              }
        | (module B : S) :: rest -> (
            match B.assess ?cutoff ?event_budget config kernel variant with
            | r -> r
            | exception e ->
                degraded B.name;
                go (Printexc.to_string e) rest)
      in
      go "none tried" chain
  end in
  (module W : S)

(* ------------------------------------------------------------------ *)
(* Crash-safe journaling                                               *)

(* A journal is the store above with its table preloaded from a file
   and every publish of the bound configuration appended to it. *)
type journal = memo

type journal_entry =
  | Journal_ok of { cycles : float; machine_us : float; machine_events : int }
  | Journal_infeasible of { jbackend : string; jreason : string }
  | Journal_cutoff of { at : float }

(* The assessment a line records, with the sunk cost the run that wrote
   it paid. *)
let assessment_of_entry = function
  | Journal_ok { cycles; machine_us; machine_events } ->
      Assessed { cycles; cost = { zero_cost with machine_us; machine_events }; breakdown = None }
  | Journal_infeasible { jbackend; jreason } -> Infeasible { backend = jbackend; reason = jreason }
  | Journal_cutoff { at } -> Cut_off { at; cost = zero_cost }

(* How two records of one key fold, in write order: a verdict beats a
   bound, two bounds keep the larger, and of two verdicts the
   first-written one stands.  [supersedes old next] sees each record as
   its bound, [Some at], or [None] for a verdict; resume folds slots
   and merge folds entries with it. *)
let supersedes old next =
  match (old, next) with Some a, Some b -> b > a | Some _, None -> true | None, _ -> false

(* What a line leaves in the store: [slot_of] of the line's assessment,
   built without the sunk cost that [slot_of] would drop. *)
let slot_of_entry = function
  | Journal_ok { cycles; _ } -> Memo_done (Assessed { cycles; cost = zero_cost; breakdown = None })
  | Journal_infeasible { jbackend; jreason } ->
      Memo_done (Infeasible { backend = jbackend; reason = jreason })
  | Journal_cutoff { at } -> Memo_bound at

let slot_bound = function Memo_bound at -> Some at | Memo_done _ | Memo_running -> None

let entry_bound = function
  | Journal_cutoff { at } -> Some at
  | Journal_ok _ | Journal_infeasible _ -> None

let config_digest (config : Sw_sim.Config.t) =
  Digest.to_hex (Digest.string (Marshal.to_string config []))

type journal_key = {
  jk_kernel : string;
  jk_elems : int;
  jk_vw : int;
  jk_variant : Kernel.variant;
}

(* The journal line codec.  One JSON object per line, a header then one
   entry per resolved assessment:

     {"journal": "swpm", "version": 1, "config": "<digest>"}
     {"kernel": "<name>", "elems": N, "vw": N, "grain": N, "unroll": N,
      "cpes": N, "db": B, "status": "ok", "cycles": F, "machine_us": F,
      "events": N, "backend": "", "reason": ""}

   (each entry on one line; "infeasible" entries carry "backend" and
   "reason" and zeros for the numbers; "cutoff" entries carry the bound
   in "cycles", their sunk cost in "machine_us" and "events", and empty
   strings)

   The encoder writes the bytes of the Printf formats earlier builds
   used — strings as "%S" (OCaml escapes), ints as "%d", bools as "%B",
   floats as "%.17g" — so journals replay across builds.  %.17g
   round-trips IEEE doubles exactly, so replayed cycles are
   bit-identical to the run that journaled them.  The decoder accepts
   what the mirror-image Scanf format accepted: every space of the
   format matches any run of blanks, strings take OCaml escapes, ints
   may carry a sign and '_' separators, floats are "%f" tokens, and
   bytes after the closing brace are ignored.  A non-finite float
   encodes as "inf" or "nan", which "%f" never reads, so such a line
   replays as nothing and its point is re-assessed.  Builds that know
   no "cutoff" status skip those lines the same way. *)

external format_float : string -> float -> string = "caml_format_float"

let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let header_line digest =
  "{\"journal\": \"swpm\", \"version\": 1, \"config\": \"" ^ String.escaped digest ^ "\"}"

(* the bytes of [string_of_int n], written straight into [b] *)
let add_int b n =
  let rec digits n =
    (* [n <= 0], so [min_int] needs no negation *)
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  in
  if n < 0 then Buffer.add_char b '-';
  digits (if n < 0 then n else -n)

(* the bytes of "%.17g": an integral value below 2^53 prints as its
   integer (no exponent below 10^17), anything else goes to C *)
let add_float b x =
  if Float.is_integer x && Float.abs x < 0x1p53 && not (x = 0.0 && Float.sign_bit x) then
    add_int b (int_of_float x)
  else Buffer.add_string b (format_float "%.17g" x)

let encode_line b kernel elems vw (v : Kernel.variant) r =
  let field name = Buffer.add_string b name in
  let int n = add_int b n in
  let float x = add_float b x in
  field "{\"kernel\": ";
  add_quoted b kernel;
  field ", \"elems\": ";
  int elems;
  field ", \"vw\": ";
  int vw;
  field ", \"grain\": ";
  int v.Kernel.grain;
  field ", \"unroll\": ";
  int v.Kernel.unroll;
  field ", \"cpes\": ";
  int v.Kernel.active_cpes;
  field ", \"db\": ";
  Buffer.add_string b (string_of_bool v.Kernel.double_buffer);
  let status, cycles, cost, jbackend, jreason =
    match r with
    | Assessed v -> ("ok", v.cycles, v.cost, "", "")
    | Infeasible e -> ("infeasible", 0.0, zero_cost, e.backend, e.reason)
    | Cut_off { at; cost } -> ("cutoff", at, cost, "", "")
  in
  field ", \"status\": ";
  add_quoted b status;
  field ", \"cycles\": ";
  float cycles;
  field ", \"machine_us\": ";
  float cost.machine_us;
  field ", \"events\": ";
  int cost.machine_events;
  field ", \"backend\": ";
  add_quoted b jbackend;
  field ", \"reason\": ";
  add_quoted b jreason;
  Buffer.add_char b '}'

exception Malformed

(* The decoder walks one line with a cursor; any mismatch raises
   [Malformed], which the line-level entry points turn into [None]. *)
type cursor = { line : string; mutable pos : int }

let at_end c = c.pos >= String.length c.line

let peek c = if at_end c then raise Malformed else c.line.[c.pos]

let next c =
  let ch = peek c in
  c.pos <- c.pos + 1;
  ch

let is_digit = function '0' .. '9' -> true | _ -> false

let blanks c =
  while (not (at_end c)) && match c.line.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    c.pos <- c.pos + 1
  done

let rec verbatim s p lit k =
  k = String.length lit
  || (String.unsafe_get s (p + k) = String.unsafe_get lit k && verbatim s p lit (k + 1))

(* a literal of the format; each space in it matches any run of blanks.
   The encoder writes one space for each: that spelling is one compare. *)
let expect c lit =
  let n = String.length lit in
  if c.pos + n <= String.length c.line && verbatim c.line c.pos lit 0 then begin
    c.pos <- c.pos + n;
    (* the other spaces of a literal are followed by non-blanks *)
    if lit.[n - 1] = ' ' then blanks c
  end
  else
    for k = 0 to n - 1 do
      if lit.[k] = ' ' then blanks c else if next c <> lit.[k] then raise Malformed
    done

(* digits, with '_' separators allowed anywhere in the run *)
let digits c =
  while (not (at_end c)) && (is_digit c.line.[c.pos] || c.line.[c.pos] = '_') do
    c.pos <- c.pos + 1
  done

let skip_sign c = match peek c with '+' | '-' -> c.pos <- c.pos + 1 | _ -> ()

let int_floor = min_int / 10

(* The value of the digits (and '_' separators) in [s.[i .. stop-1]],
   negated — so [min_int] parses — or [Malformed] past [min_int]. *)
let neg_value s i stop =
  let acc = ref 0 in
  for k = i to stop - 1 do
    if s.[k] <> '_' then begin
      let d = Char.code s.[k] - Char.code '0' in
      if !acc < int_floor || !acc * 10 < min_int + d then raise Malformed;
      acc := (!acc * 10) - d
    end
  done;
  !acc

(* "%d": a sign, a digit, more digits or '_'; out of range fails, as
   [int_of_string] does *)
let int c =
  let neg = peek c = '-' in
  skip_sign c;
  if not (is_digit (peek c)) then raise Malformed;
  let start = c.pos in
  digits c;
  let v = neg_value c.line start c.pos in
  if neg then v else if v = min_int then raise Malformed else -v

(* "%f": [sign] digits [. [digit digits]] [(e|E) [sign] digit digits],
   then [float_of_string] on the token — so "inf" and "nan" fail.  A
   token of up to 15 plain digits is an integer below 2^53, which
   [float_of_int] converts as exactly as [float_of_string] would. *)
let float c =
  let start = c.pos in
  skip_sign c;
  let int_start = c.pos in
  digits c;
  let int_stop = c.pos in
  if (not (at_end c)) && c.line.[c.pos] = '.' then begin
    c.pos <- c.pos + 1;
    if (not (at_end c)) && is_digit c.line.[c.pos] then digits c
  end;
  if (not (at_end c)) && (c.line.[c.pos] = 'e' || c.line.[c.pos] = 'E') then begin
    c.pos <- c.pos + 1;
    skip_sign c;
    if not (is_digit (peek c)) then raise Malformed;
    digits c
  end;
  if c.pos = int_stop && int_stop > int_start && int_stop - int_start <= 15
     && is_digit c.line.[int_start]
  then
    let x = float_of_int (-neg_value c.line int_start int_stop) in
    if c.line.[start] = '-' then -.x else x
  else
    match float_of_string_opt (String.sub c.line start (c.pos - start)) with
    | Some x -> x
    | None -> raise Malformed

let bool c =
  match peek c with
  | 't' ->
      expect c "true";
      true
  | 'f' ->
      expect c "false";
      false
  | _ -> raise Malformed

(* "%S": a quoted OCaml string literal.  Strings without escapes (every
   one a journal writes for its kernels and statuses) are one [sub]. *)
let str c =
  if next c <> '"' then raise Malformed;
  let s = c.line and start = c.pos in
  let stop = ref start in
  while !stop < String.length s && s.[!stop] <> '"' && s.[!stop] <> '\\' do
    incr stop
  done;
  if !stop >= String.length s then raise Malformed;
  if s.[!stop] = '"' then begin
    c.pos <- !stop + 1;
    String.sub s start (!stop - start)
  end
  else begin
    let b = Buffer.create (!stop - start + 16) in
    Buffer.add_substring b s start (!stop - start);
    c.pos <- !stop;
    let code base d =
      match d with
      | '0' .. '9' -> Char.code d - Char.code '0'
      | 'a' .. 'f' when base = 16 -> Char.code d - Char.code 'a' + 10
      | 'A' .. 'F' when base = 16 -> Char.code d - Char.code 'A' + 10
      | _ -> raise Malformed
    in
    let rec body () =
      match next c with
      | '"' -> Buffer.contents b
      | '\\' -> escape ()
      | ch ->
          Buffer.add_char b ch;
          body ()
    and escape () =
      match next c with
      | '\n' -> skip_spaces ()
      | '\r' ->
          (* Scanf's rule: backslash CR LF is a line continuation;
             backslash CR then any other character reads as one CR,
             that character dropped *)
          if next c = '\n' then skip_spaces () else add '\r'
      | ('\\' | '\'' | '"') as ch -> add ch
      | 'n' -> add '\n'
      | 't' -> add '\t'
      | 'b' -> add '\b'
      | 'r' -> add '\r'
      | '0' .. '9' as d0 ->
          let d1 = next c in
          let d2 = next c in
          let n = (100 * code 10 d0) + (10 * code 10 d1) + code 10 d2 in
          if n > 255 then raise Malformed;
          add (Char.chr n)
      | 'x' ->
          let h1 = next c in
          let h2 = next c in
          add (Char.chr ((16 * code 16 h1) + code 16 h2))
      | _ -> raise Malformed
    and add ch =
      Buffer.add_char b ch;
      body ()
    and skip_spaces () =
      while peek c = ' ' do
        c.pos <- c.pos + 1
      done;
      body ()
    in
    body ()
  end

let decode_header line =
  let c = { line; pos = 0 } in
  match
    expect c "{\"journal\": ";
    ignore (str c : string);
    expect c ", \"version\": ";
    let version = int c in
    expect c ", \"config\": ";
    let digest = str c in
    expect c "}";
    (version, digest)
  with
  | header -> Some header
  | exception Malformed -> None

let journal_parse_line line =
  let c = { line; pos = 0 } in
  match
    expect c "{\"kernel\": ";
    let kernel = str c in
    expect c ", \"elems\": ";
    let elems = int c in
    expect c ", \"vw\": ";
    let vw = int c in
    expect c ", \"grain\": ";
    let grain = int c in
    expect c ", \"unroll\": ";
    let unroll = int c in
    expect c ", \"cpes\": ";
    let cpes = int c in
    expect c ", \"db\": ";
    let db = bool c in
    expect c ", \"status\": ";
    let status = str c in
    expect c ", \"cycles\": ";
    let cycles = float c in
    expect c ", \"machine_us\": ";
    let machine_us = float c in
    expect c ", \"events\": ";
    let events = int c in
    expect c ", \"backend\": ";
    let jbackend = str c in
    expect c ", \"reason\": ";
    let jreason = str c in
    expect c "}";
    let key =
      {
        jk_kernel = kernel;
        jk_elems = elems;
        jk_vw = vw;
        jk_variant = { Kernel.grain; unroll; active_cpes = cpes; double_buffer = db };
      }
    in
    match status with
    | "ok" -> Some (key, Journal_ok { cycles; machine_us; machine_events = events })
    | "infeasible" -> Some (key, Journal_infeasible { jbackend; jreason })
    | "cutoff" -> Some (key, Journal_cutoff { at = cycles })
    | _ -> None
  with
  | parsed -> parsed
  | exception Malformed -> None

(* How a journal file opens.  [Replayable] has fed every decodable
   entry line to the caller; [torn_at] is where an unterminated final
   line (a kill mid-write) starts. *)
type journal_file =
  | Absent
  | Empty
  | Malformed_header
  | Bound_elsewhere of { version : int; digest : string }
  | Replayable of { torn_at : int option }

(* The one reader behind resume, [journal_read] and [journal_merge]: a
   header bound to [digest], then one entry per line, undecodable lines
   (the torn tail among them) skipped. *)
let scan_journal ~digest path ~entry =
  match open_in_bin path with
  | exception Sys_error _ -> Absent
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> Empty
          | header -> (
              match decode_header header with
              | None -> Malformed_header
              | Some (1, d) when d = digest ->
                  let last = ref header in
                  (try
                     while true do
                       let line = input_line ic in
                       last := line;
                       match journal_parse_line line with
                       | Some (key, e) -> entry key e
                       | None -> ()
                     done
                   with End_of_file -> ());
                  let len = in_channel_length ic in
                  seek_in ic (len - 1);
                  let torn = input_char ic <> '\n' in
                  Replayable { torn_at = (if torn then Some (len - String.length !last) else None) }
              | Some (version, digest) -> Bound_elsewhere { version; digest }))

(* A table size for the entries of [paths]: a table grows only past two
   entries per bucket and an entry line is well over 100 bytes, so one
   bucket per 200 bytes never grows (each growth rehashes every key). *)
let size_for paths =
  let bytes path =
    match Unix.stat path with st -> st.Unix.st_size | exception Unix.Unix_error _ -> 0
  in
  max 64 (List.fold_left (fun n p -> n + bytes p) 0 paths / 200)

let journal ?sink ~path config (inner : t) : journal =
  let digest = config_digest config in
  let table = Memo_table.create (size_for [ path ]) in
  let replay k e =
    let key = memo_key config k.jk_kernel k.jk_elems k.jk_vw k.jk_variant in
    let slot = slot_of_entry e in
    match Memo_table.find_opt table key with
    | None -> Memo_table.add table key slot
    | Some old ->
        if supersedes (slot_bound old) (slot_bound slot) then Memo_table.replace table key slot
  in
  (* Three-way open: no prior file (fresh), a replayable file, or a
     file that exists but cannot be trusted — garbage bytes, a foreign
     digest.  The last falls back to a fresh journal (the run
     recomputes; correctness never depends on the replay) but is worth
     a warning counter: an operator seeing ["journal.unreadable"] climb
     knows checkpoints are being discarded, not used.  A zero-length
     file has nothing to lose: it is what [Filename.temp_file]
     pre-creates, so it opens fresh silently rather than warning about
     every ephemeral shard journal. *)
  let opened = scan_journal ~digest path ~entry:replay in
  let rejected reason =
    (match sink with Some s -> Sw_obs.Sink.incr s "journal.unreadable" | None -> ());
    Printf.eprintf "swpm: journal %s unreadable (%s): starting fresh\n%!" path reason
  in
  (match opened with
  | Malformed_header -> rejected "malformed header"
  | Bound_elsewhere { version; digest = d } ->
      rejected
        (if version <> 1 then Printf.sprintf "version %d" version
         else Printf.sprintf "config digest %s" d)
  | Absent | Empty | Replayable _ -> ());
  let oc =
    match opened with
    | Replayable { torn_at = Some 0 } | Absent | Empty | Malformed_header | Bound_elsewhere _ ->
        (* (a torn header line carries no entries: rewrite it) *)
        let oc = open_out_bin path in
        output_string oc (header_line digest);
        output_char oc '\n';
        flush oc;
        oc
    | Replayable { torn_at } ->
        (* Crash recovery: a kill mid-write can leave a partial final
           line with no newline.  Appending after it would glue the
           first new entry onto the stale tail, silently losing both on
           the next replay — so cut the file back to its last complete
           line before appending. *)
        Option.iter (Unix.truncate path) torn_at;
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  let line = Buffer.create 256 in
  (* only what holds under the bound configuration reaches the file *)
  let log key r =
    if compare key.mk_config config = 0 then begin
      Buffer.clear line;
      encode_line line key.mk_kernel key.mk_elems key.mk_vw key.mk_variant r;
      Buffer.add_char line '\n';
      Buffer.output_buffer oc line;
      (* flush per line: a kill between lines loses at most the point
         in flight, never a committed one *)
      flush oc
    end
  in
  store ?sink ~prefix:"journal"
    ~description:(Printf.sprintf "%s, journaled to %s" (description inner) path)
    ~log
    ~close:(fun () -> close_out_noerr oc)
    table inner

let journaled = memoized

let journal_hits = memo_hits

let journal_misses = memo_misses

let journal_close j = j.memo_close ()

(* Offline journal access: the shard coordinator merges per-worker
   journals without ever opening them for appending. *)

exception Journal_mismatch of { path : string; expected : string; found : string }

let journal_key_of (kernel : Kernel.t) (variant : Kernel.variant) =
  {
    jk_kernel = kernel.Kernel.name;
    jk_elems = kernel.Kernel.n_elements;
    jk_vw = kernel.Kernel.vector_width;
    jk_variant = variant;
  }

let journal_header_line config = header_line (config_digest config)

let journal_entry_line key entry =
  let b = Buffer.create 256 in
  encode_line b key.jk_kernel key.jk_elems key.jk_vw key.jk_variant (assessment_of_entry entry);
  Buffer.contents b

type journal_issue =
  | Journal_mismatched of { path : string; expected : string; found : string }
  | Journal_unreadable of { path : string; reason : string }

let journal_issue_string = function
  | Journal_mismatched { path; expected; found } ->
      Printf.sprintf "journal %s is bound to config %s, expected %s" path found expected
  | Journal_unreadable { path; reason } ->
      Printf.sprintf "journal %s is unreadable: %s" path reason

(* [scan_journal] with its outcome as a typed issue; [entry] has seen
   every entry of an [Ok] file and none of an [Error] one. *)
let read_journal ~digest path ~entry =
  match scan_journal ~digest path ~entry with
  | Replayable _ -> Ok ()
  | Absent -> Ok () (* never created: nothing to replay *)
  | Empty ->
      (* a zero-length journal is not a journal: surface it rather than
         silently reporting an empty result set *)
      Error (Journal_unreadable { path; reason = "empty file" })
  | Malformed_header -> Error (Journal_unreadable { path; reason = "malformed header" })
  | Bound_elsewhere { version; digest = d } ->
      let found = if version <> 1 then Printf.sprintf "<version %d>" version else d in
      Error (Journal_mismatched { path; expected = digest; found })

let journal_read ~config path =
  let entries = ref [] in
  read_journal ~digest:(config_digest config) path ~entry:(fun key e ->
      entries := (key, e) :: !entries)
  |> Result.map (fun () -> List.rev !entries)

let journal_merge ?on_issue ~config paths =
  let digest = config_digest config in
  let merged = Hashtbl.create (size_for paths) in
  let fold key e =
    match Hashtbl.find_opt merged key with
    | None -> Hashtbl.add merged key e
    | Some old ->
        if supersedes (entry_bound old) (entry_bound e) then Hashtbl.replace merged key e
  in
  List.iter
    (fun path ->
      match read_journal ~digest path ~entry:fold with
      | Ok () -> ()
      | Error issue -> (
          match (on_issue, issue) with
          | Some f, _ -> f issue (* the caller decides; the file contributes nothing *)
          | None, Journal_mismatched { path; expected; found } ->
              (* a digest conflict is a caller bug, not an IO accident *)
              raise (Journal_mismatch { path; expected; found })
          | None, Journal_unreadable _ -> () (* damaged file: merge what survives *)))
    paths;
  merged

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registry : (string * (unit -> t)) list ref =
  ref
    [
      ("model", fun () -> static_model);
      ("sim", fun () -> simulator);
      ("hybrid", fun () -> hybrid ());
      ("roofline", fun () -> roofline);
    ]

let aliases =
  [
    ("static", "model");
    ("static-model", "model");
    ("empirical", "sim");
    ("simulator", "sim");
  ]

let register key make =
  let key = String.lowercase_ascii key in
  registry := List.filter (fun (k, _) -> k <> key) !registry @ [ (key, make) ]

let registered () = List.map fst !registry

let find key =
  let key = String.lowercase_ascii key in
  let key = Option.value (List.assoc_opt key aliases) ~default:key in
  Option.map (fun make -> make ()) (List.assoc_opt key !registry)

let find_exn key =
  match find key with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Backend.find_exn: unknown backend %S (available: %s)" key
           (String.concat ", " (registered ())))
