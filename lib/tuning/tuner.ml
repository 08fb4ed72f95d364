module Backend = Sw_backend.Backend

type tally = {
  tuning_host_s : float;
  tuning_cpu_s : float;
  machine_time_us : float;
  evaluated : int;
  infeasible : int;
  points_pruned : int;
  rank_rejected : int;
  rank_host_s : float;
  rank_machine_us : float;
  journal_hits : int;
  journal_misses : int;
}

type outcome = {
  backend : string;
  strategy : string;
  best : Sw_swacc.Kernel.variant;
  best_cycles : float;
  default_cycles : float;
  speedup : float;
  tuning_host_s : float;
  tuning_cpu_s : float;
  machine_time_us : float;
  evaluated : int;
  infeasible : int;
  points_pruned : int;
  rank_host_s : float;
  rank_machine_us : float;
  journal_hits : int;
  journal_misses : int;
  restarts : int;
  quarantined : int list;
  link_lines_dropped : int;
}

(* The one place a search becomes counts and a machine bill, in-process
   and in every shard worker: run [strategy] (the host clocks bracket
   the search alone), then fold the completed verdicts and the sunk
   prefixes of pruned runs onto what the ranking pass simulated, in
   enumeration order. *)
let search strategy ~backend ~active_cpes ?pool ?obs ?link ?journal config kernel ~points =
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let results, (s : Search.stats) =
    Search.run strategy ~backend ~active_cpes ?pool ?obs ?link config kernel ~points
  in
  let tuning_host_s = Unix.gettimeofday () -. wall0 in
  let tuning_cpu_s = Sys.time () -. cpu0 in
  let evaluated, infeasible, machine_time_us =
    List.fold_left
      (fun (e, i, m) (_, r) ->
        match r with
        | Search.Priced v -> (e + 1, i, m +. v.Backend.cost.Backend.machine_us)
        | Search.Pruned c -> (e, i, m +. c.Backend.machine_us)
        | Search.Rejected _ -> (e, i + 1, m))
      (0, 0, s.rank_machine_us) results
  in
  let journal_hits, journal_misses =
    match journal with
    | Some j -> (Backend.journal_hits j, Backend.journal_misses j)
    | None -> (0, 0)
  in
  ( results,
    s.strategy,
    {
      tuning_host_s;
      tuning_cpu_s;
      machine_time_us;
      evaluated;
      infeasible;
      points_pruned = s.pruned;
      rank_rejected = s.rank_rejected;
      rank_host_s = s.rank_host_s;
      rank_machine_us = s.rank_machine_us;
      journal_hits;
      journal_misses;
    } )

(* --- the worker-stats codec: a shard worker's [Done] line ---------- *)

(* The keys a worker's [Done] stats carry.  Counts are not among them:
   the coordinator recomputes those from the merged journals, so a
   relaunched worker's replays are not counted twice. *)
let stats_to_json ~shard (t : tally) =
  let open Sw_obs.Json in
  Obj
    [
      ("shard", Int shard);
      ("cpu_s", Float t.tuning_cpu_s);
      ("machine_us", Float t.machine_time_us);
      ("rank_host_s", Float t.rank_host_s);
      ("rank_machine_us", Float t.rank_machine_us);
      ("rank_rejected", Int t.rank_rejected);
      ("journal_hits", Int t.journal_hits);
      ("journal_misses", Int t.journal_misses);
    ]

let stats_of_json j =
  let get conv default key = Option.value (Option.bind (Sw_obs.Json.member key j) conv) ~default in
  let float = get Sw_obs.Json.to_float 0.0 and int = get Sw_obs.Json.to_int 0 in
  {
    tuning_host_s = 0.0;
    tuning_cpu_s = float "cpu_s";
    machine_time_us = float "machine_us";
    evaluated = 0;
    infeasible = 0;
    points_pruned = 0;
    rank_rejected = int "rank_rejected";
    rank_host_s = float "rank_host_s";
    rank_machine_us = float "rank_machine_us";
    journal_hits = int "journal_hits";
    journal_misses = int "journal_misses";
  }

let search_shard ~shard strategy ~backend ~journal ~link config kernel ~points =
  let _, _, t = search strategy ~backend ~active_cpes:64 ~link ~journal config kernel ~points in
  stats_to_json ~shard t

(* The tail both tune paths share, and their one outcome constructor:
   the strict-[<] argmin over the priced [(point, cycles)] in
   enumeration order (the earliest index wins ties), then one
   validation run each for the pick and the default — [default], or
   else the first priced point with unroll 1 and no double buffering.
   Quality is always judged by [machine], whichever backend searched;
   the validation runs are not billed as tuning cost.  A memoizing
   [machine] answers a repeated validation from its table: the
   simulator's unbudgeted run and the budgeted run a pruned search
   completed are the same engine run, and an unbudgeted lookup with no
   cutoff is answered only from a stored verdict, so a hit is
   bit-identical to re-running.  The sharded-only fields default to an
   undisturbed in-process run.  [None] when nothing was priced. *)
let pick_and_validate ~machine ~active_cpes ?default ~backend ~strategy ?(restarts = 0)
    ?(quarantined = []) ?(link_lines_dropped = 0) (t : tally) config kernel = function
  | [] -> None
  | (p0, c0) :: rest ->
      let best_point, _ =
        List.fold_left (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc)) (p0, c0) rest
      in
      let run_variant variant = Backend.cycles_exn machine config kernel variant in
      let best = Space.to_variant best_point ~active_cpes in
      let best_cycles = run_variant best in
      let default =
        match default with
        | Some v -> v
        | None -> Space.to_variant { p0 with unroll = 1; double_buffer = false } ~active_cpes
      in
      let default_cycles = run_variant default in
      Some
        {
          backend;
          strategy;
          best;
          best_cycles;
          default_cycles;
          speedup = default_cycles /. best_cycles;
          tuning_host_s = t.tuning_host_s;
          tuning_cpu_s = t.tuning_cpu_s;
          machine_time_us = t.machine_time_us;
          evaluated = t.evaluated;
          infeasible = t.infeasible;
          points_pruned = t.points_pruned;
          rank_host_s = t.rank_host_s;
          rank_machine_us = t.rank_machine_us;
          journal_hits = t.journal_hits;
          journal_misses = t.journal_misses;
          restarts;
          quarantined;
          link_lines_dropped;
        }

let tune ~backend ?(machine = Backend.simulator) ?(strategy = Search.exhaustive)
    ?(active_cpes = 64) ?default ?pool ?obs ?checkpoint (config : Sw_sim.Config.t) kernel
    ~points =
  (* Observability never steers the search: [instrument] wraps the
     backend with pure recording, so verdicts — and hence the argmin —
     are byte-identical with and without [obs]. *)
  let backend =
    match obs with Some sink -> Backend.instrument sink backend | None -> backend
  in
  (* The journal wraps outermost so replayed points skip the whole
     stack (instrumentation included): a resumed sweep re-assesses
     nothing it already resolved, and the replayed cycles are
     bit-identical, so the argmin below cannot tell the difference. *)
  let journal = Option.map (fun path -> Backend.journal ?sink:obs ~path config backend) checkpoint in
  let backend = match journal with Some j -> Backend.journaled j | None -> backend in
  let span_t0 = Option.map (fun sink -> Sw_obs.Sink.now_us sink) obs in
  (* Assessing one point is pure up to the backend's internal
     mutex-guarded caches.  That makes the fan-out over a domain pool
     safe, and every strategy returns results in enumeration order, so
     the argmin below (strict [<], earliest index wins ties) is
     bit-identical to the sequential run. *)
  let results, strategy, t =
    search strategy ~backend ~active_cpes ?pool ?obs ?journal config kernel ~points
  in
  (match (obs, span_t0) with
  | Some sink, Some t0 ->
      Sw_obs.Sink.incr sink "tuner.searches";
      Sw_obs.Sink.incr sink ~by:(List.length points) "tuner.points";
      Sw_obs.Sink.incr sink ~by:t.evaluated "tuner.evaluated";
      Sw_obs.Sink.incr sink ~by:t.infeasible "tuner.infeasible";
      Sw_obs.Sink.incr sink ~by:t.points_pruned "tuner.pruned";
      Sw_obs.Sink.add sink "tuner.machine_us" t.machine_time_us;
      Sw_obs.Sink.record sink
        {
          Sw_obs.Sink.cat = "tuner";
          name = Printf.sprintf "tune:%s" kernel.Sw_swacc.Kernel.name;
          pid = Sw_obs.Sink.host_pid;
          track = (Domain.self () :> int);
          t_us = t0;
          dur_us = Sw_obs.Sink.now_us sink -. t0;
          args =
            [
              ("backend", Sw_obs.Sink.String (Backend.name backend));
              ("strategy", Sw_obs.Sink.String strategy);
              ("points", Sw_obs.Sink.Int (List.length points));
              ("evaluated", Sw_obs.Sink.Int t.evaluated);
              ("infeasible", Sw_obs.Sink.Int t.infeasible);
              ("pruned", Sw_obs.Sink.Int t.points_pruned);
              ("machine_us", Sw_obs.Sink.Float t.machine_time_us);
            ];
        }
  | _ -> ());
  Option.iter Backend.journal_close journal;
  let scored =
    List.filter_map (function p, Search.Priced v -> Some (p, v.Backend.cycles) | _ -> None) results
  in
  match
    pick_and_validate ~machine ~active_cpes ?default ~backend:(Backend.name backend)
      ~strategy t config kernel scored
  with
  | Some o -> Ok o
  | None ->
      let detail =
        match
          List.find_map (function _, Search.Rejected e -> Some e | _ -> None) results
        with
        | Some { Backend.backend = b; reason } -> Printf.sprintf " (%s: %s)" b reason
        | None -> ""
      in
      Error
        (`No_feasible_point
          (Printf.sprintf "%s tuner: no feasible point among %d in the search space%s"
             (Backend.name backend) (List.length points) detail))

(* ------------------------------------------------------------------ *)
(* Sharded tuning: fan the same search out across worker processes.
   The coordinator never assesses a point itself — each worker journals
   its shard's resolved assessments, and the merged journals are the
   whole result set.  The argmin below walks [points] in global
   enumeration order with the same strict [<] fold as [tune], so the
   sharded pick ties-break identically to the single-process oracle. *)

let tune_sharded ~backend_name ~strategy_name ~workers ~argv ~journal_of
    ?(machine = Backend.simulator) ?(active_cpes = 64) ?default ?(max_restarts = 2)
    ?hang_timeout_s (config : Sw_sim.Config.t) kernel ~axes =
  if workers < 1 then invalid_arg "Tuner.tune_sharded: workers must be >= 1";
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let procs =
    List.init workers (fun shard ->
        Shard.launch ~shard ~argv:(argv ~shard ~journal:(journal_of shard)) ())
  in
  let report = Shard.supervise ~max_restarts ?hang_timeout_s procs in
  let supervision_quarantined =
    match report.Shard.health with Shard.Completed -> [] | Shard.Degraded q -> q
  in
  (* The merge decides what each journal is worth: a digest mismatch is
     a caller bug and fails the run; an unreadable journal (the shard
     died before its first write, or chaos shredded the file) just
     quarantines that shard — its points count as pruned, the rest of
     the merge stands. *)
  let mismatch = ref None in
  let unreadable = ref [] in
  let journal_paths = List.init workers journal_of in
  let on_issue issue =
    match issue with
    | Backend.Journal_mismatched _ ->
        if !mismatch = None then mismatch := Some (Backend.journal_issue_string issue)
    | Backend.Journal_unreadable { path; _ } ->
        List.iteri (fun shard p -> if p = path then unreadable := shard :: !unreadable)
          journal_paths
  in
  let merged = Backend.journal_merge ~on_issue ~config journal_paths in
  let quarantined =
    List.sort_uniq compare (supervision_quarantined @ !unreadable)
  in
  match !mismatch with
  | Some msg -> Error (`Worker_failure msg)
  | None -> (
      (* the merged entries of this kernel, by point, and the grains
         they fall in: only those grains are walked, in enumeration
         order — every other point of the space was never priced *)
      let by_point = Hashtbl.create 64 and touched = Hashtbl.create 64 in
      Hashtbl.iter
        (fun k entry ->
          let { Sw_swacc.Kernel.grain; unroll; double_buffer; _ } = k.Backend.jk_variant in
          let p = { Space.grain; unroll; double_buffer } in
          if Backend.journal_key_of kernel (Space.to_variant p ~active_cpes) = k then begin
            Hashtbl.replace by_point p entry;
            Hashtbl.replace touched grain ()
          end)
        merged;
      let { Space.grains; unrolls; double_buffers } = axes in
      let walked =
        { Space.grains = List.filter (Hashtbl.mem touched) grains; unrolls; double_buffers }
      in
      let infeasible = ref 0 in
      let priced =
        List.rev
          (Space.fold walked
             (fun priced p ->
               match Hashtbl.find_opt by_point p with
               | Some (Backend.Journal_ok { cycles; _ }) -> (p, cycles) :: priced
               | Some (Backend.Journal_infeasible _) ->
                   incr infeasible;
                   priced
               | Some (Backend.Journal_cutoff _) | None -> priced)
             [])
      in
      let n_points = Space.size ~grains ~unrolls ~double_buffers () in
      (* The workers' bills: summed, except the ranking wall clock —
         workers rank concurrently, so that bill is the slowest.  A
         shard without a [Done] line ([Null]) adds zeros. *)
      let w =
        List.fold_left
          (fun (a : tally) stats ->
            let b = stats_of_json stats in
            {
              a with
              tuning_cpu_s = a.tuning_cpu_s +. b.tuning_cpu_s;
              machine_time_us = a.machine_time_us +. b.machine_time_us;
              rank_rejected = a.rank_rejected + b.rank_rejected;
              rank_host_s = Float.max a.rank_host_s b.rank_host_s;
              rank_machine_us = a.rank_machine_us +. b.rank_machine_us;
              journal_hits = a.journal_hits + b.journal_hits;
              journal_misses = a.journal_misses + b.journal_misses;
            })
          (stats_of_json Sw_obs.Json.Null) report.Shard.stats
      in
      let t =
        {
          w with
          tuning_host_s = Unix.gettimeofday () -. wall0;
          (* the coordinator's own cpu plus what the workers report:
             the real compute bill, not the coordinator's idle wait *)
          tuning_cpu_s = Sys.time () -. cpu0 +. w.tuning_cpu_s;
          (* the counts come from the merged journals, so a resumed run
             reports the totals of an uninterrupted one; points the
             workers' ranking pass rejected never reach a journal:
             infeasible, not pruned *)
          evaluated = List.length priced;
          infeasible = !infeasible + w.rank_rejected;
          points_pruned = n_points - List.length priced - !infeasible - w.rank_rejected;
        }
      in
      match
        pick_and_validate ~machine ~active_cpes ?default
          ~backend:(Printf.sprintf "sharded(%s,workers=%d)" backend_name workers)
          ~strategy:strategy_name ~restarts:report.Shard.restarts ~quarantined
          ~link_lines_dropped:report.Shard.lines_dropped t config kernel priced
      with
      | Some o -> Ok o
      | None ->
          Error
            (`No_feasible_point
              (Printf.sprintf "sharded %s tuner: no feasible point among %d in the search space"
                 backend_name n_points)))

let tune_exn ~backend ?strategy ?active_cpes ?default ?pool ?obs ?checkpoint config kernel
    ~points =
  match
    tune ~backend ?strategy ?active_cpes ?default ?pool ?obs ?checkpoint config kernel ~points
  with
  | Ok o -> o
  | Error (`No_feasible_point msg) -> invalid_arg ("Tuner.tune: " ^ msg)

let outcome_to_json o =
  let open Sw_obs.Json in
  Obj
    [
      ("backend", Str o.backend);
      ("strategy", Str o.strategy);
      ( "best",
        Obj
          [
            ("grain", Int o.best.Sw_swacc.Kernel.grain);
            ("unroll", Int o.best.Sw_swacc.Kernel.unroll);
            ("active_cpes", Int o.best.Sw_swacc.Kernel.active_cpes);
            ("double_buffer", Bool o.best.Sw_swacc.Kernel.double_buffer);
          ] );
      ("best_cycles", Float o.best_cycles);
      ("default_cycles", Float o.default_cycles);
      ("speedup", Float o.speedup);
      ("tuning_host_s", Float o.tuning_host_s);
      ("tuning_cpu_s", Float o.tuning_cpu_s);
      ("machine_time_us", Float o.machine_time_us);
      ("evaluated", Int o.evaluated);
      ("infeasible", Int o.infeasible);
      ("pruned", Int o.points_pruned);
      ("rank_host_s", Float o.rank_host_s);
      ("rank_machine_us", Float o.rank_machine_us);
      ("journal_hits", Int o.journal_hits);
      ("journal_misses", Int o.journal_misses);
      ("restarts", Int o.restarts);
      ("quarantined", Arr (List.map (fun s -> Int s) o.quarantined));
      ("link_lines_dropped", Int o.link_lines_dropped);
    ]

let quality_loss ~static ~empirical =
  (static.best_cycles -. empirical.best_cycles) /. empirical.best_cycles

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>%s tuner (%s): best grain=%d unroll=%d db=%b@,speedup %.2fx (%.0f -> %.0f cycles)@,\
     host %.3f s wall (%.3f s cpu), machine %.0f us, %d evaluated, %d infeasible, %d pruned@]"
    o.backend o.strategy o.best.Sw_swacc.Kernel.grain o.best.Sw_swacc.Kernel.unroll
    o.best.Sw_swacc.Kernel.double_buffer o.speedup o.default_cycles o.best_cycles o.tuning_host_s
    o.tuning_cpu_s o.machine_time_us o.evaluated o.infeasible o.points_pruned
