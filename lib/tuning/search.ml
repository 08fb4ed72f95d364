module Backend = Sw_backend.Backend

type stop = One_rung | Quiet_rung

type score =
  | Nominal
  | Quantile of { seeds : int list; quantile : float; spec : Sw_fault.Fault.spec }

type t =
  | Exhaustive
  | Ranked of { rank : Backend.t; k : int; stop : stop; score : score }
  | Successive_halving of { rungs : int }

let exhaustive = Exhaustive

let shortlist ?(rank = Backend.static_model) ~k () =
  Ranked { rank; k; stop = One_rung; score = Nominal }

let adaptive_shortlist ?(rank = Backend.static_model) ~k () =
  if k < 1 then invalid_arg "Search.adaptive_shortlist: k must be >= 1";
  Ranked { rank; k; stop = Quiet_rung; score = Nominal }

let successive_halving ~rungs =
  if rungs < 1 then invalid_arg "Search.successive_halving: rungs must be >= 1";
  Successive_halving { rungs }

let robust ?(rank = Backend.static_model) ~k ~seeds ?(quantile = 1.0)
    ?(spec = Sw_fault.Fault.default) () =
  if seeds = [] then invalid_arg "Search.robust: seeds must be non-empty";
  if not (quantile > 0.0 && quantile <= 1.0) then
    invalid_arg "Search.robust: quantile must be in (0, 1]";
  Ranked { rank; k; stop = One_rung; score = Quantile { seeds; quantile; spec } }

let name = function
  | Exhaustive -> "exhaustive"
  | Ranked { rank; k; stop = _; score = Quantile { seeds; quantile; _ } } ->
      Printf.sprintf "robust(%s,k=%d,seeds=%d,q=%.2f)" (Backend.name rank) k
        (List.length seeds) quantile
  | Ranked { rank; k; stop = One_rung; score = Nominal } ->
      Printf.sprintf "shortlist(%s,k=%d)" (Backend.name rank) k
  | Ranked { rank; k; stop = Quiet_rung; score = Nominal } ->
      Printf.sprintf "adaptive(%s,k=%d)" (Backend.name rank) k
  | Successive_halving { rungs } -> Printf.sprintf "successive-halving(rungs=%d)" rungs

type result_ =
  | Priced of Backend.verdict
  | Rejected of Backend.infeasibility
  | Pruned of Backend.cost

(* ------------------------------------------------------------------ *)
(* Cutoff link: how a sharded worker prunes against the *global*
   incumbent.  [current] is polled before each verification and folded
   (min) into the local incumbent; [publish] is called whenever the
   local incumbent strictly improves.  Pruning is advisory — a stale or
   absent remote cutoff only costs work, never the argmin, because
   cutoffs are strict (a point whose cycles equal the incumbent is
   still fully priced). *)

type link = { publish : float -> unit; current : unit -> float option }

let min_cutoff a b =
  match (a, b) with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as c), None | None, (Some _ as c) -> c
  | None, None -> None

let link_cutoff link local =
  match link with None -> local | Some l -> min_cutoff local (l.current ())

let link_publish link cycles = match link with None -> () | Some l -> l.publish cycles

(* Fold a completed verdict's cycles into the running incumbent,
   publishing every strict improvement (its seeding included). *)
let offer link incumbent c =
  match !incumbent with
  | Some b when c >= b -> ()
  | _ ->
      incumbent := Some c;
      link_publish link c

type stats = {
  strategy : string;
  pruned : int;
  rank_host_s : float;
  rank_machine_us : float;
}

let map_points ?pool f points =
  match pool with Some p -> Sw_util.Pool.map p f points | None -> List.map f points

(* Count the pruned results, bump ["search.pruned"], attach the stats. *)
let finish ~obs ~strategy ?(rank_host_s = 0.0) ?(rank_machine_us = 0.0) results =
  let pruned = List.fold_left (fun n -> function _, Pruned _ -> n + 1 | _ -> n) 0 results in
  (match obs with
  | Some sink when pruned > 0 -> Sw_obs.Sink.incr sink ~by:pruned "search.pruned"
  | _ -> ());
  (results, { strategy; pruned; rank_host_s; rank_machine_us })

(* A liveness tick: [current] drains pipe input and lets a worker link
   emit its periodic heartbeat.  The returned cutoff is discarded. *)
let link_tick = function Some l -> ignore (l.current () : float option) | None -> ()

(* The first [n] elements and the rest: one rung of a ranked order, or
   the half of a successive-halving field that survives. *)
let rec split n = function
  | x :: rest when n > 0 ->
      let first, rest = split (n - 1) rest in
      (x :: first, rest)
  | rest -> ([], rest)

(* ------------------------------------------------------------------ *)
(* Exhaustive: assess every point, in enumeration order — byte-for-byte
   the pre-strategy tuner behaviour, at any pool size.  [link] is never
   applied to exhaustive results — the contract is to price every
   point — but it is still ticked once per assessment, so an exhaustive
   shard under supervision is observably alive. *)
let run_exhaustive ~backend ~active_cpes ?pool ?link config kernel points =
  map_points ?pool
    (fun point ->
      link_tick link;
      let variant = Space.to_variant point ~active_cpes in
      match Backend.assess backend config kernel variant with
      | Ok v -> (point, Priced v)
      | Error e -> (point, Rejected e))
    points

(* ------------------------------------------------------------------ *)
(* Ranked verification: rank the whole space with a cheap backend
   (pooled), then pay the expensive backend only for the most promising
   points — visited best-ranked first, so the running incumbent's cycles
   become the cutoff that lets later verifications abandon early.

   Determinism: ranking is order-preserving under the pool, the sort is
   total (predicted cycles, then enumeration index), verification is
   sequential and the rung schedule depends only on verdicts (and the
   advisory link), so the outcome is identical at any pool size. *)

(* The ranking pass: assess the whole space with the (cheap) rank
   backend under the pool, and return the indexed results plus the
   verification order — a total sort by (predicted cycles, enumeration
   index) over the rank-feasible points.  [rank_machine_us] bills
   whatever the ranker simulated (0 for the static model; the training
   bill for the learned surrogate; per-point runs if the simulator
   itself ranks). *)
let rank_space ~rank ~active_cpes ?pool ?link config kernel points =
  let wall0 = Unix.gettimeofday () in
  (* tick the link every 32 rankings (ranking backends are cheap and
     spaces are huge — a drain per point would be all syscalls): the
     heartbeat keeps flowing through the long ranking pass, and the
     cutoff value is deliberately unused (ranking never prunes).  The
     counter races harmlessly under the pool; ticks are advisory. *)
  let ticks = ref 0 in
  let ranked =
    map_points ?pool
      (fun point ->
        (match link with
        | Some l ->
            incr ticks;
            if !ticks land 31 = 0 then ignore (l.current () : float option)
        | None -> ());
        (* keep only what ranking reads: a space's worth of full
           verdicts would be most of the heap *)
        ( point,
          match Backend.assess rank config kernel (Space.to_variant point ~active_cpes) with
          | Ok v -> Ok (v.Backend.cycles, v.Backend.cost.Backend.machine_us)
          | Error e -> Error e ))
      points
  in
  let rank_host_s = Unix.gettimeofday () -. wall0 in
  let rank_machine_us =
    List.fold_left
      (fun acc (_, r) -> match r with Ok (_, us) -> acc +. us | Error _ -> acc)
      0.0 ranked
  in
  let indexed = List.mapi (fun i (p, r) -> (i, p, r)) ranked in
  let feasible =
    List.filter_map (function i, p, Ok (c, _) -> Some (i, p, c) | _, _, Error _ -> None) indexed
  in
  let order =
    List.sort
      (fun (i1, _, c1) (i2, _, c2) ->
        match Float.compare c1 c2 with 0 -> Int.compare i1 i2 | c -> c)
      feasible
  in
  (indexed, order, rank_host_s, rank_machine_us)

(* Quantile scoring: re-assess every Priced point under each seeded
   fault plan and score it by the [quantile] of its per-plan cycles
   (1.0 = worst case).  The argmin downstream then picks the point whose
   *bad days* are cheapest — min-of-worst-case — instead of the nominal
   winner.  Plans are pure functions of (spec, seed, config), the
   point x seed fan-out is order-preserving under the pool, and the
   quantile comes from a total sort, so the outcome is identical at any
   pool size. *)
let quantile_of ~quantile sorted =
  let n = Array.length sorted in
  let idx =
    Stdlib.min (n - 1)
      (Stdlib.max 0 (int_of_float (Float.ceil (quantile *. float_of_int n)) - 1))
  in
  sorted.(idx)

let score_quantile ~seeds ~quantile ~spec ~backend ~active_cpes ?pool ?obs ?link config kernel
    results =
  let plans = List.map (fun seed -> Sw_fault.Fault.plan ~spec ~seed config) seeds in
  let survivors =
    List.filter_map
      (function i, (p, Priced v) -> Some (i, p, v) | _ -> None)
      (List.mapi (fun i pr -> (i, pr)) results)
  in
  let jobs =
    List.concat_map
      (fun (i, p, _) -> List.map (fun plan -> (i, p, plan)) plans)
      survivors
  in
  let assessed =
    map_points ?pool
      (fun (i, p, plan) ->
        link_tick link;
        (i, Backend.assess backend plan kernel (Space.to_variant p ~active_cpes)))
      jobs
  in
  (match obs with
  | Some sink -> Sw_obs.Sink.incr sink ~by:(List.length jobs) "search.robust_assessments"
  | None -> ());
  let scored =
    List.map
      (fun (i, p, (v : Backend.verdict)) ->
        let mine = List.filter_map (fun (j, r) -> if j = i then Some r else None) assessed in
        let cycles =
          List.map
            (function
              | Ok (pv : Backend.verdict) -> pv.Backend.cycles
              (* a plan that breaks the point entirely is the worst
                 case there is *)
              | Error _ -> Float.infinity)
            mine
        in
        let extra_cost =
          List.fold_left
            (fun acc -> function Ok pv -> Backend.add_cost acc pv.Backend.cost | Error _ -> acc)
            Backend.zero_cost mine
        in
        let sorted = Array.of_list cycles in
        Array.sort Float.compare sorted;
        let score = quantile_of ~quantile sorted in
        (i, (p, Priced { v with Backend.cycles = score; cost = Backend.add_cost v.Backend.cost extra_cost })))
      survivors
  in
  List.mapi (fun i pr -> match List.assoc_opt i scored with Some pr' -> pr' | None -> pr) results

(* The one ranked-verification loop.  The ranked order is verified in
   rungs of [k] points; [One_rung] stops after the first, [Quiet_rung]
   after the first rung in which no verification strictly beat the
   bar — min(local incumbent, link cutoff), read before each
   verification.  While the bar is unset (no incumbent, no remote
   cutoff) a rung never ends the search: seeding the first incumbent is
   not an improvement, but a rung of rank-feasible points the verifier
   rejected must not stop it either.  A remote cutoff counts as a bar,
   so a shard whose every verification the global incumbent cuts off
   stops after one rung instead of verifying its whole shard.

   [Nominal] scoring verifies under the bar as a strict cutoff.
   [Quantile] scoring turns cutoff pruning off — a point that loses
   nominally can still be the min-of-worst-case winner, so every
   verified point must be fully priced — and rescores the priced points
   over the fault plans afterwards.  Incumbents are published through
   the link either way. *)
let run_ranked ~rank ~k ~stop ~score ~backend ~active_cpes ?pool ?obs ?link config kernel
    points =
  let indexed, order, rank_host_s, rank_machine_us =
    rank_space ~rank ~active_cpes ?pool ?link config kernel points
  in
  let verdicts : (int, result_) Hashtbl.t = Hashtbl.create 16 in
  let incumbent = ref None in
  (* verify one point; true when it strictly beat the bar *)
  let verify (i, p, _) =
    let bar = link_cutoff link !incumbent in
    let cutoff = match score with Nominal -> bar | Quantile _ -> None in
    match Backend.assess_budget ?cutoff backend config kernel (Space.to_variant p ~active_cpes) with
    | Backend.Assessed v ->
        offer link incumbent v.Backend.cycles;
        Hashtbl.replace verdicts i (Priced v);
        (match bar with Some b -> v.Backend.cycles < b | None -> false)
    | Backend.Infeasible e ->
        Hashtbl.replace verdicts i (Rejected e);
        false
    | Backend.Cut_off { cost; _ } ->
        Hashtbl.replace verdicts i (Pruned cost);
        false
  in
  let rec rungs = function
    | [] -> ()
    | remaining ->
        (match obs with Some sink -> Sw_obs.Sink.incr sink "search.rungs" | None -> ());
        let rung, rest = split (Stdlib.max 1 k) remaining in
        let improved = List.fold_left (fun improved x -> verify x || improved) false rung in
        (match stop with
        | One_rung -> ()
        | Quiet_rung -> if improved || link_cutoff link !incumbent = None then rungs rest)
  in
  rungs order;
  (* enumeration order: verified points from the table, points the
     ranker's compile check rejected as Rejected, the rest pruned free *)
  let results =
    List.map
      (fun (i, p, r) ->
        match (Hashtbl.find_opt verdicts i, r) with
        | Some res, _ -> (p, res)
        | None, Error e -> (p, Rejected e)
        | None, Ok _ -> (p, Pruned Backend.zero_cost))
      indexed
  in
  let results =
    match score with
    | Nominal -> results
    | Quantile { seeds; quantile; spec } ->
        score_quantile ~seeds ~quantile ~spec ~backend ~active_cpes ?pool ?obs ?link config
          kernel results
  in
  finish ~obs ~strategy:(name (Ranked { rank; k; stop; score })) ~rank_host_s ~rank_machine_us
    results

(* ------------------------------------------------------------------ *)
(* Successive halving: race all points through rungs of growing event
   budgets, halving the field between rungs by partial progress (the
   event clock reached when the budget ran out — further along means a
   slower candidate, since DMA-bound makespans grow with event count).

   The first feasible point is assessed in full up front; its cycles
   seed the incumbent cutoff and its event count is the yardstick the
   rung budgets scale from.  The final rung runs unmetered (cutoff
   only), so every survivor is either fully priced or provably beaten.

   Determinism: the cutoff and budget are fixed before each pooled
   rung, scores sort by (clock, enumeration index), and the incumbent
   updates from completed verdicts in enumeration order. *)

let run_halving ?link ~rungs ~backend ~active_cpes ?pool ?obs config kernel points =
  let n = List.length points in
  let results : result_ option array = Array.make (Stdlib.max 1 n) None in
  let sunk : Backend.cost array = Array.make (Stdlib.max 1 n) Backend.zero_cost in
  let variant p = Space.to_variant p ~active_cpes in
  let indexed = List.mapi (fun i p -> (i, p)) points in
  let incumbent = ref None in
  let yardstick = ref 0 in
  (* seed: full-assess points in order until one is feasible *)
  let rec seed = function
    | [] -> []
    | (i, p) :: rest -> (
        match Backend.assess backend config kernel (variant p) with
        | Ok v ->
            results.(i) <- Some (Priced v);
            offer link incumbent v.Backend.cycles;
            yardstick := Stdlib.max 1 v.Backend.cost.Backend.machine_events;
            rest
        | Error e ->
            results.(i) <- Some (Rejected e);
            seed rest)
  in
  let racing = ref (seed indexed) in
  for r = 1 to rungs - 1 do
    if !racing <> [] then begin
      (match obs with Some sink -> Sw_obs.Sink.incr sink "search.rungs" | None -> ());
      let last = r = rungs - 1 in
      let budget =
        if last then None else Some (Stdlib.max 256 (!yardstick / (1 lsl (rungs - 1 - r))))
      in
      let cutoff = link_cutoff link !incumbent in
      let assessed =
        map_points ?pool
          (fun (i, p) ->
            (i, p, Backend.assess_budget ?cutoff ?event_budget:budget backend config kernel (variant p)))
          !racing
      in
      let survivors = ref [] in
      List.iter
        (fun (i, _, a) ->
          match a with
          | Backend.Assessed v ->
              sunk.(i) <- Backend.add_cost sunk.(i) v.Backend.cost;
              results.(i) <- Some (Priced { v with Backend.cost = sunk.(i) });
              offer link incumbent v.Backend.cycles
          | Backend.Infeasible e -> results.(i) <- Some (Rejected e)
          | Backend.Cut_off { at; cost } ->
              sunk.(i) <- Backend.add_cost sunk.(i) cost;
              (* a cut past the cycle cutoff is a proof of defeat, not a
                 budget exhaustion: prune now instead of re-racing *)
              let beaten = match cutoff with Some c -> at > c | None -> false in
              if last || beaten then results.(i) <- Some (Pruned sunk.(i))
              else survivors := (i, at) :: !survivors)
        assessed;
      if not last then begin
        let scored =
          List.sort (fun (i1, a1) (i2, a2) -> compare (a1, i1) (a2, i2)) (List.rev !survivors)
        in
        let keep, drop = split ((List.length scored + 1) / 2) scored in
        List.iter (fun (i, _) -> results.(i) <- Some (Pruned sunk.(i))) drop;
        racing :=
          List.filter (fun (i, _) -> List.mem_assoc i keep) indexed
      end
    end
  done;
  finish ~obs ~strategy:(name (Successive_halving { rungs }))
    (List.map
       (fun (i, p) ->
         match results.(i) with
         | Some res -> (p, res)
         | None -> assert false (* rungs = 1 never enters the loop; handled by [run] *))
       indexed)

let run strategy ~backend ~active_cpes ?pool ?obs ?link config kernel ~points =
  match strategy with
  | Ranked { rank; k; stop; score } ->
      run_ranked ~rank ~k ~stop ~score ~backend ~active_cpes ?pool ?obs ?link config kernel
        points
  | Successive_halving { rungs } when rungs > 1 ->
      run_halving ?link ~rungs ~backend ~active_cpes ?pool ?obs config kernel points
  | Exhaustive | Successive_halving _ ->
      (* one halving rung races nothing: exhaustive by construction *)
      finish ~obs ~strategy:(name strategy)
        (run_exhaustive ~backend ~active_cpes ?pool ?link config kernel points)
