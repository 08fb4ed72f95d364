module Backend = Sw_backend.Backend

type method_ = Static | Empirical

let backend_of_method = function
  | Static -> Backend.static_model
  | Empirical -> Backend.simulator

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

(* The tail both tune paths share: the strict-[<] argmin over the
   priced [(point, cycles)] in enumeration order (the earliest index wins
   ties), then one validation run each for the pick and the default —
   [default], or else the first priced point with unroll 1 and no double
   buffering.  Quality is always judged by [machine], whichever backend
   searched; the validation runs are not billed as tuning cost.  A
   memoizing [machine] answers a repeated validation from its table:
   the simulator's unbudgeted run and the budgeted run a pruned search
   completed are the same engine run, and the memo answers an
   unbudgeted lookup only from a stored verdict, never from a cut-off
   bound, so a hit is bit-identical to re-running.  [None] when
   nothing was priced. *)
let pick_and_validate ~machine ~active_cpes ?default config kernel = function
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
      Some (best, best_cycles, run_variant default)

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
  let jnl = Option.map (fun path -> Backend.journal ?sink:obs ~path config backend) checkpoint in
  let backend = match jnl with Some j -> Backend.journaled j | None -> backend in
  let span_t0 = Option.map (fun sink -> Sw_obs.Sink.now_us sink) obs in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  (* Assessing one point is pure up to the backend's internal
     mutex-guarded caches.  That makes the fan-out over a domain pool
     safe, and every strategy returns results in enumeration order, so
     the argmin below (strict [<], earliest index wins ties) is
     bit-identical to the sequential run. *)
  let results, sstats =
    Search.run strategy ~backend ~active_cpes ?pool ?obs config kernel ~points
  in
  let tuning_host_s = Unix.gettimeofday () -. wall0 in
  let tuning_cpu_s = Sys.time () -. cpu0 in
  let scored =
    List.filter_map (function p, Search.Priced v -> Some (p, v.Backend.cycles) | _ -> None) results
  in
  let evaluated = List.length scored in
  let infeasible =
    List.length (List.filter (function _, Search.Rejected _ -> true | _ -> false) results)
  in
  let points_pruned = sstats.Search.pruned in
  (* The search's full machine bill: completed verdicts, the sunk
     prefixes of pruned runs, and whatever the ranking pass simulated. *)
  let machine_time_us =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | Search.Priced v -> acc +. v.Backend.cost.Backend.machine_us
        | Search.Pruned c -> acc +. c.Backend.machine_us
        | Search.Rejected _ -> acc)
      sstats.Search.rank_machine_us results
  in
  (match (obs, span_t0) with
  | Some sink, Some t0 ->
      Sw_obs.Sink.incr sink "tuner.searches";
      Sw_obs.Sink.incr sink ~by:(List.length points) "tuner.points";
      Sw_obs.Sink.incr sink ~by:evaluated "tuner.evaluated";
      Sw_obs.Sink.incr sink ~by:infeasible "tuner.infeasible";
      Sw_obs.Sink.incr sink ~by:points_pruned "tuner.pruned";
      Sw_obs.Sink.add sink "tuner.machine_us" machine_time_us;
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
              ("strategy", Sw_obs.Sink.String sstats.Search.strategy);
              ("points", Sw_obs.Sink.Int (List.length points));
              ("evaluated", Sw_obs.Sink.Int evaluated);
              ("infeasible", Sw_obs.Sink.Int infeasible);
              ("pruned", Sw_obs.Sink.Int points_pruned);
              ("machine_us", Sw_obs.Sink.Float machine_time_us);
            ];
        }
  | _ -> ());
  let journal_hits = match jnl with Some j -> Backend.journal_hits j | None -> 0 in
  let journal_misses = match jnl with Some j -> Backend.journal_misses j | None -> 0 in
  Option.iter Backend.journal_close jnl;
  match pick_and_validate ~machine ~active_cpes ?default config kernel scored with
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
  | Some (best, best_cycles, default_cycles) ->
      Ok
        {
          backend = Backend.name backend;
          strategy = sstats.Search.strategy;
          best;
          best_cycles;
          default_cycles;
          speedup = default_cycles /. best_cycles;
          tuning_host_s;
          tuning_cpu_s;
          machine_time_us;
          evaluated;
          infeasible;
          points_pruned;
          rank_host_s = sstats.Search.rank_host_s;
          rank_machine_us = sstats.Search.rank_machine_us;
          journal_hits;
          journal_misses;
          (* single-process: no workers to restart, no link to lose *)
          restarts = 0;
          quarantined = [];
          link_lines_dropped = 0;
        }

(* ------------------------------------------------------------------ *)
(* Sharded tuning: fan the same search out across worker processes.
   The coordinator never assesses a point itself — each worker journals
   its shard's resolved assessments, and the merged journals are the
   whole result set.  The argmin below walks [points] in global
   enumeration order with the same strict [<] fold as [tune], so the
   sharded pick ties-break identically to the single-process oracle. *)

let fold_stat op dones key =
  List.fold_left
    (fun acc stats ->
      match Option.bind (Sw_obs.Json.member key stats) Sw_obs.Json.to_float with
      | Some v -> op acc v
      | None -> acc)
    0.0 dones

let sum_stat = fold_stat ( +. )
let max_stat = fold_stat Float.max

let tune_sharded ~backend_name ~strategy_name ~workers ~argv ~journal_of
    ?(machine = Backend.simulator) ?(active_cpes = 64) ?default ?(max_restarts = 2)
    ?hang_timeout_s (config : Sw_sim.Config.t) kernel ~points =
  if workers < 1 then invalid_arg "Tuner.tune_sharded: workers must be >= 1";
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let procs =
    List.init workers (fun shard ->
        Shard.launch ~shard ~argv:(argv ~shard ~journal:(journal_of shard)) ())
  in
  let report = Shard.supervise ~max_restarts ?hang_timeout_s procs in
  let dones = List.filter (fun s -> s <> Sw_obs.Json.Null) report.Shard.stats in
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
      let tuning_host_s = Unix.gettimeofday () -. wall0 in
      let infeasible = ref 0 and pruned = ref 0 in
      let priced =
        List.filter_map
          (fun p ->
            let key = Backend.journal_key_of kernel (Space.to_variant p ~active_cpes) in
            match Hashtbl.find_opt merged key with
            | Some (Backend.Journal_ok { cycles; _ }) -> Some (p, cycles)
            | Some (Backend.Journal_infeasible _) ->
                incr infeasible;
                None
            | None ->
                incr pruned;
                None)
          points
      in
      match pick_and_validate ~machine ~active_cpes ?default config kernel priced with
      | None ->
          Error
            (`No_feasible_point
              (Printf.sprintf "sharded %s tuner: no feasible point among %d in the search space"
                 backend_name (List.length points)))
      | Some (best, best_cycles, default_cycles) ->
          let rank_rejected = int_of_float (sum_stat dones "rank_rejected") in
          Ok
            {
              backend = Printf.sprintf "sharded(%s,workers=%d)" backend_name workers;
              strategy = strategy_name;
              best;
              best_cycles;
              default_cycles;
              speedup = default_cycles /. best_cycles;
              tuning_host_s;
              (* the coordinator's own cpu plus what the workers report:
                 the real compute bill, not the coordinator's idle wait *)
              tuning_cpu_s = Sys.time () -. cpu0 +. sum_stat dones "cpu_s";
              machine_time_us = sum_stat dones "machine_us";
              evaluated = List.length priced;
              (* points the workers' ranking pass rejected never reach a
                 journal: infeasible, not pruned *)
              infeasible = !infeasible + rank_rejected;
              points_pruned = !pruned - rank_rejected;
              (* workers rank concurrently: the wall bill is the slowest *)
              rank_host_s = max_stat dones "rank_host_s";
              rank_machine_us = sum_stat dones "rank_machine_us";
              journal_hits = int_of_float (sum_stat dones "journal_hits");
              journal_misses = int_of_float (sum_stat dones "journal_misses");
              restarts = report.Shard.restarts;
              quarantined;
              link_lines_dropped = report.Shard.lines_dropped;
            })

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
