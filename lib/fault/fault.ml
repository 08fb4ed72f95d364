module Config = Sw_sim.Config
module Params = Sw_arch.Params
module Prng = Sw_util.Prng

type spec = {
  latency_jitter : float;
  bandwidth_jitter : float;
  dma_fail_prob : float;
  dma_max_retries : int;
  dma_backoff_cycles : int;
  n_stragglers : int;
  straggler_slowdown : float;
  n_throttles : int;
  throttle_depth : float;
  throttle_horizon : float;
}

let none =
  {
    latency_jitter = 0.0;
    bandwidth_jitter = 0.0;
    dma_fail_prob = 0.0;
    dma_max_retries = 0;
    dma_backoff_cycles = 0;
    n_stragglers = 0;
    straggler_slowdown = 1.0;
    n_throttles = 0;
    throttle_depth = 1.0;
    throttle_horizon = 100_000.0;
  }

let mild =
  {
    none with
    latency_jitter = 0.05;
    bandwidth_jitter = 0.05;
    dma_fail_prob = 0.01;
    dma_max_retries = 3;
    dma_backoff_cycles = 100;
    n_stragglers = 1;
    straggler_slowdown = 1.15;
    n_throttles = 1;
    throttle_depth = 0.75;
  }

let harsh =
  {
    none with
    latency_jitter = 0.15;
    bandwidth_jitter = 0.15;
    dma_fail_prob = 0.05;
    dma_max_retries = 5;
    dma_backoff_cycles = 200;
    n_stragglers = 4;
    straggler_slowdown = 1.5;
    n_throttles = 2;
    throttle_depth = 0.5;
  }

let default = mild

let of_string = function
  | "none" -> Some none
  | "mild" | "default" -> Some mild
  | "harsh" -> Some harsh
  | _ -> None

(* Relative jitter: uniform in [1-j, 1+j).  Draw even when j = 0 so the
   PRNG stream — and hence every downstream draw — is the same for every
   spec, making plans with different levels comparable per seed. *)
let jittered prng j v = v *. Prng.float_in prng (1.0 -. j) (1.0 +. j)

let plan ?(spec = default) ~seed (config : Config.t) =
  let prng = Prng.create seed in
  let p = config.Config.params in
  let l_base =
    Stdlib.max 1 (int_of_float (Float.round (jittered prng spec.latency_jitter (float_of_int p.Params.l_base))))
  in
  let mem_bw = jittered prng spec.bandwidth_jitter p.Params.mem_bw_bytes_per_s in
  let params = { p with Params.l_base; mem_bw_bytes_per_s = mem_bw } in
  let total = Params.total_cpes params in
  (* Distinct straggler CPEs via a seeded shuffle of all ids. *)
  let ids = Array.init total Fun.id in
  Prng.shuffle prng ids;
  let n_stragglers = Stdlib.min spec.n_stragglers total in
  let stragglers =
    if spec.straggler_slowdown <= 1.0 then []
    else
      List.init n_stragglers (fun i -> (ids.(i), spec.straggler_slowdown))
      |> List.sort compare
  in
  let h = spec.throttle_horizon in
  let mc_throttles =
    if spec.throttle_depth >= 1.0 then []
    else
      List.init spec.n_throttles (fun _ ->
          let mc = Prng.int prng params.Params.n_cgs in
          let from_cycle = Prng.float prng (0.75 *. h) in
          let until_cycle = from_cycle +. Prng.float_in prng (0.05 *. h) (0.25 *. h) in
          (mc, { Config.from_cycle; until_cycle; bw_factor = spec.throttle_depth }))
  in
  let faults =
    {
      Config.fault_seed = seed;
      dma_fail_prob = spec.dma_fail_prob;
      dma_max_retries = spec.dma_max_retries;
      dma_backoff_cycles = spec.dma_backoff_cycles;
      stragglers;
      mc_throttles;
    }
  in
  Config.validated { config with Config.params; faults }

(* ------------------------------------------------------------------ *)
(* Process-level chaos: deterministic fault plans for the sharded
   tuning path.  Where {!plan} perturbs the *simulated machine*, a
   chaos plan perturbs the *worker processes themselves* — kills,
   stalls, journal corruption, lost or duplicated incumbent-link lines
   — and, like everything else in this module, is a pure function of
   its inputs, so every failure scenario replays exactly. *)

module Chaos = struct
  type action =
    | Kill_after of int
    | Stall_after of { lines : int; secs : float }
    | Corrupt_journal of { mode : string }
    | Drop_incumbents of int
    | Dup_incumbents of int

  type cplan = { shard : int; sticky : bool; action : action }
  type t = cplan list

  let env_var = "SWPM_CHAOS"
  let incarnation_var = "SWPM_CHAOS_INCARNATION"

  (* Shortest decimal that round-trips the double exactly, so
     [parse (to_spec p) = Ok p] holds for arbitrary stall durations. *)
  let secs_lit f =
    let r15 = Printf.sprintf "%.15g" f in
    if float_of_string r15 = f then r15
    else
      let r16 = Printf.sprintf "%.16g" f in
      if float_of_string r16 = f then r16 else Printf.sprintf "%.17g" f

  let to_spec plans =
    let one p =
      let sticky = if p.sticky then ",sticky=1" else "" in
      match p.action with
      | Kill_after n -> Printf.sprintf "kill:shard=%d,after=%d%s" p.shard n sticky
      | Stall_after { lines; secs } ->
          Printf.sprintf "stall:shard=%d,after=%d,secs=%s%s" p.shard lines (secs_lit secs) sticky
      | Corrupt_journal { mode } ->
          Printf.sprintf "corrupt:shard=%d,mode=%s%s" p.shard mode sticky
      | Drop_incumbents k -> Printf.sprintf "drop:shard=%d,every=%d%s" p.shard k sticky
      | Dup_incumbents k -> Printf.sprintf "dup:shard=%d,every=%d%s" p.shard k sticky
    in
    String.concat ";" (List.map one plans)

  let parse s =
    let ( let* ) = Result.bind in
    let parse_kvs part =
      List.fold_left
        (fun acc kv ->
          let* acc = acc in
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "chaos: malformed binding %S" kv)
          | Some i ->
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              Ok ((k, v) :: acc))
        (Ok []) part
    in
    let int_of kvs key =
      match List.assoc_opt key kvs with
      | None -> Error (Printf.sprintf "chaos: missing %s=" key)
      | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "chaos: bad %s=%S" key v))
    in
    let float_of kvs key =
      match List.assoc_opt key kvs with
      | None -> Error (Printf.sprintf "chaos: missing %s=" key)
      | Some v -> (
          match float_of_string_opt v with
          | Some f when f >= 0.0 -> Ok f
          | _ -> Error (Printf.sprintf "chaos: bad %s=%S" key v))
    in
    let parse_one part =
      match String.index_opt part ':' with
      | None -> Error (Printf.sprintf "chaos: malformed plan %S (want kind:k=v,...)" part)
      | Some i ->
          let kind = String.sub part 0 i in
          let rest = String.sub part (i + 1) (String.length part - i - 1) in
          let* kvs = parse_kvs (String.split_on_char ',' rest) in
          let* shard = int_of kvs "shard" in
          let sticky = List.assoc_opt "sticky" kvs = Some "1" in
          let* action =
            match kind with
            | "kill" ->
                let* n = int_of kvs "after" in
                Ok (Kill_after n)
            | "stall" ->
                let* lines = int_of kvs "after" in
                let* secs = float_of kvs "secs" in
                Ok (Stall_after { lines; secs })
            | "corrupt" -> (
                match List.assoc_opt "mode" kvs with
                | Some (("tail" | "garbage" | "zero") as mode) ->
                    Ok (Corrupt_journal { mode })
                | Some m -> Error (Printf.sprintf "chaos: unknown corrupt mode %S" m)
                | None -> Error "chaos: missing mode=")
            | "drop" ->
                let* k = int_of kvs "every" in
                if k >= 1 then Ok (Drop_incumbents k) else Error "chaos: every must be >= 1"
            | "dup" ->
                let* k = int_of kvs "every" in
                if k >= 1 then Ok (Dup_incumbents k) else Error "chaos: every must be >= 1"
            | k -> Error (Printf.sprintf "chaos: unknown plan kind %S" k)
          in
          Ok { shard; sticky; action }
    in
    if String.trim s = "" then Ok []
    else
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          let* p = parse_one part in
          Ok (p :: acc))
        (Ok [])
        (String.split_on_char ';' s)
      |> Result.map List.rev

  let of_env () =
    match Sys.getenv_opt env_var with
    | None | Some "" -> []
    | Some s -> (
        match parse s with
        | Ok t -> t
        | Error e ->
            Printf.eprintf "swpm: ignoring %s: %s\n%!" env_var e;
            [])

  let incarnation () =
    match Sys.getenv_opt incarnation_var with
    | None -> 0
    | Some s -> ( match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 0)

  (* Kills and stalls default to firing in the worker's first
     incarnation only, so a supervised relaunch recovers; [sticky]
     re-arms them every incarnation (exhausting the restart budget —
     the quarantine path).  Corruption and link loss are bounded-damage
     and stay armed in every incarnation. *)
  let armed ~shard ~incarnation plans =
    List.filter_map
      (fun p ->
        if p.shard <> shard then None
        else
          match p.action with
          | Kill_after _ | Stall_after _ ->
              if incarnation = 0 || p.sticky then Some p.action else None
          | Corrupt_journal _ | Drop_incumbents _ | Dup_incumbents _ -> Some p.action)
      plans

  let generate ~seed ~shards (* >= 1 *) =
    let prng = Prng.create (0x5ca1ab1e lxor seed) in
    let shard = Prng.int prng (Stdlib.max 1 shards) in
    let after () = 2 + Prng.int prng 6 in
    match Prng.int prng 7 with
    | 0 -> [ { shard; sticky = false; action = Kill_after (after ()) } ]
    | 1 ->
        (* short stall: the worker naps and resumes; no restart *)
        let secs = 0.05 +. Prng.float prng 0.15 in
        [ { shard; sticky = false; action = Stall_after { lines = after (); secs } } ]
    | 2 ->
        (* long stall: the progress deadline fires, the worker is
           killed mid-sleep and relaunched *)
        [ { shard; sticky = false; action = Stall_after { lines = after (); secs = 30.0 } } ]
    | 3 ->
        (* kill, then corrupt the torn journal tail on relaunch *)
        let mode = Prng.choose prng [| "tail"; "garbage"; "zero" |] in
        [
          { shard; sticky = false; action = Kill_after (after ()) };
          { shard; sticky = false; action = Corrupt_journal { mode } };
        ]
    | 4 -> [ { shard; sticky = false; action = Drop_incumbents (1 + Prng.int prng 3) } ]
    | 5 -> [ { shard; sticky = false; action = Dup_incumbents (1 + Prng.int prng 3) } ]
    | _ ->
        (* sticky kill: re-armed every incarnation, so the restart
           budget runs out and the shard is quarantined *)
        [ { shard; sticky = true; action = Kill_after (after ()) } ]

  let corrupt_file ~mode path =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        let len = in_channel_length ic in
        let content = really_input_string ic len in
        close_in ic;
        let write s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc;
          true
        in
        (match mode with
        | "zero" -> write ""
        | "garbage" -> write "\x00\xffnot a journal\x00 garbage bytes\n{{{"
        | _ ->
            (* "tail": keep the header and all but the last committed
               entry, then leave a torn half-line — the shape a
               mid-write SIGKILL produces *)
            let lines = String.split_on_char '\n' content in
            let lines = List.filter (fun l -> l <> "") lines in
            (match lines with
            | [] -> write "{\"torn"
            | [ header ] -> write (header ^ "\n{\"torn")
            | header :: entries ->
                let keep = List.filteri (fun i _ -> i < List.length entries - 1) entries in
                let torn =
                  let last = List.nth entries (List.length entries - 1) in
                  String.sub last 0 (String.length last / 2)
                in
                write (String.concat "\n" ((header :: keep) @ [ torn ]))))
end
