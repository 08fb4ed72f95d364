(* Seeded input generators for the two benchmark workloads.

   Every workload input is a list of JSON request lines in the daemon's
   wire format: tune-shard parses its jobs with [Handler.parse_request]
   and calls [Handler.tune] in-process, serve-mix sends them to a
   [swmodel serve] socket.  The seed draws the job or
   request order, each job's simulator seed (start jitter, i.e. the
   kernel's measured data) and the Zipf key draws; the program under test
   only ever sees the lines. *)

module Json = Sw_obs.Json
module Prng = Sw_util.Prng

(* Simulator seeds a tune job may draw.  The pool is small and fixed so
   the expected-outputs file can list every (job, seed) pair. *)
let sim_seeds = [ 1; 2; 3; 4 ]

type job = { name : string; line : string }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let pick rng l = List.nth l (Prng.int rng (List.length l))

let obj fields = Json.to_string (Json.Obj fields)
let str s = Json.Str s
let int i = Json.Int i

(* --- tune-shard ------------------------------------------------------ *)

(* 2048 x 4 x 2 = 16,384 points *)
let wide = [ ("grains", str "1..2048"); ("unrolls", str "1..4"); ("db_both", Json.Bool true) ]

let tune_shard_specs =
  [
    ("backprop-model", [ ("kernel", str "backprop"); ("backend", str "model") ] @ wide);
    ( "kmeans-shortlist",
      [ ("kernel", str "kmeans"); ("backend", str "sim"); ("strategy", str "shortlist");
        ("rank", str "model"); ("shortlist", int 64) ]
      @ wide );
    ( "cfd-shortlist",
      [ ("kernel", str "cfd"); ("backend", str "sim"); ("strategy", str "shortlist");
        ("rank", str "model"); ("shortlist", int 64) ]
      @ wide );
    (* 6250 x 4 x 2 = 50,000 points, about 93% past the SPM limit *)
    ( "vadd-slab",
      [
        ("kernel", str "vector-add");
        ("backend", str "model");
        ("grains", str "1601..7850");
        ("unrolls", str "1..4");
        ("db_both", Json.Bool true);
      ] );
  ]

let job_line ~name ~sim_seed ~extra fields =
  obj ((("id", str name) :: ("op", str "tune") :: fields) @ (("seed", int sim_seed) :: extra))

(* The tune-shard job list: every spec once, with a drawn simulator
   seed, in a seeded order, each sharded over two worker processes. *)
let tune_shard_jobs ~seed =
  let rng = Prng.create seed in
  let a =
    Array.of_list
      (List.map
         (fun (name, fields) ->
           let sim_seed = pick rng sim_seeds in
           { name; line = job_line ~name ~sim_seed ~extra:[ ("workers", int 2) ] fields })
         tune_shard_specs)
  in
  shuffle rng a;
  Array.to_list a

(* --- serve-mix ----------------------------------------------------- *)

(* The predict and timeline keys come from the registry-grid variants of
   these kernels that the static model accepts.  Drawing blind from the
   grid would send SPM-overflowing variants that fail. *)
let serve_kernels = [ "kmeans"; "cfd"; "backprop"; "hotspot"; "lud"; "bfs" ]

type variant = { kernel : string; grain : int; unroll : int; db : bool }

let feasible_variants =
  lazy
    (let config = Sw_sim.Config.default Sw_arch.Params.default in
     List.concat_map
       (fun k ->
         let e = Sw_workloads.Registry.find_exn k in
         let kernel = e.Sw_workloads.Registry.build ~scale:1.0 in
         List.concat_map
           (fun grain ->
             List.concat_map
               (fun unroll ->
                 List.filter_map
                   (fun db ->
                     let v =
                       { Sw_swacc.Kernel.grain; unroll; active_cpes = 64; double_buffer = db }
                     in
                     match
                       Sw_backend.Backend.assess Sw_backend.Backend.static_model config kernel v
                     with
                     | Ok _ -> Some { kernel = k; grain; unroll; db }
                     | Error _ -> None)
                   [ false; true ])
               e.Sw_workloads.Registry.unrolls)
           e.Sw_workloads.Registry.grains)
       serve_kernels)

(* Off the power-of-two registry grid, so adaptive verifications never
   share simulator keys with the sim lane's predicts and tunes. *)
let offgrid =
  [ ("grains", str "24,40,56,72,88,104,120"); ("unrolls", str "1..4"); ("db_both", Json.Bool true) ]

(* Model-ranked and surrogate-ranked adaptive tunes verify different
   orders of one space; giving them disjoint kernels keeps a cut-off
   verification of one from turning into a memo hit of the other. *)
let adaptive_model_kernels = [ "kmeans"; "backprop" ]
let adaptive_surrogate_kernel = "cfd"
let registry_tune_kernels = [ "kmeans"; "cfd"; "backprop"; "hotspot"; "lud" ]

(* Request classes, with their count in every block of 20 requests of a
   lane.  Lane 0 (the sim lane) holds every request keyed on the registry
   grid under the simulator; lane 1 holds the rest.  Their memo keys are
   disjoint, so memo hits and misses do not depend on how the lanes
   interleave.  Three quarters of the requests simulate or
   tune, so the median latency sits inside that mass rather than on the
   boundary between cheap answers and simulations. *)
let lane_classes =
  [|
    [ ("predict-sim", 6); ("timeline", 7); ("tune-sim", 7) ];
    [
      ("predict-model", 2);
      ("predict-hybrid", 2);
      ("predict-surrogate", 2);
      ("tune-adaptive-model", 4);
      ("tune-adaptive-surrogate", 4);
      ("tune-model-dense", 6);
    ];
  |]

let classes = Array.to_list lane_classes |> List.concat_map (List.map fst)

(* A deck of [n] draws from a seeded permutation of [population]: every
   key at least once, the rest spread by Zipf weight 1/(r+1)^1.1 over
   rank r (or evenly), dealt in shuffled order.  Every seed then computes
   the same set of keys and repeats the same number of them, so the work
   and the memo's hit share do not depend on the seed; the seed decides
   which keys are hot and the order. *)
let deck rng ~zipf population n =
  let a = Array.of_list population in
  shuffle rng a;
  let m = Array.length a in
  let counts = Array.make m 0 in
  if n <= m then Array.fill counts 0 n 1
  else begin
    let w = Array.init m (fun r -> if zipf then 1.0 /. (float_of_int (r + 1) ** 1.1) else 1.0) in
    let total = Array.fold_left ( +. ) 0.0 w in
    Array.iteri
      (fun r wr -> counts.(r) <- 1 + int_of_float (float_of_int (n - m) *. wr /. total))
      w;
    let short = n - Array.fold_left ( + ) 0 counts in
    for r = 0 to short - 1 do
      counts.(r mod m) <- counts.(r mod m) + 1
    done
  end;
  let cards = Array.of_list (List.concat (List.mapi (fun r v -> List.init counts.(r) (fun _ -> v)) (Array.to_list a))) in
  shuffle rng cards;
  let i = ref (-1) in
  fun () ->
    incr i;
    cards.(!i)

let variant_fields v =
  [
    ("kernel", str v.kernel);
    ("grain", int v.grain);
    ("unroll", int v.unroll);
    ("double_buffer", Json.Bool v.db);
  ]

(* One config seed per run: memo keys include the simulation config, so
   every request of a run (warm-up included) shares it. *)
let serve_seed ~seed = 1 + (Prng.int (Prng.create (seed lxor 0x5eed)) 1000)

let population_per_kernel = 6

(* The warm-up keys: one reserved variant per kernel, never drawn by the
   measured mix, predicted on the hybrid and surrogate backends so
   calibrations and fits are paid before timing starts. *)
let split_population () =
  let all = Lazy.force feasible_variants in
  let reserved =
    List.map (fun k -> List.find (fun v -> v.kernel = k) all) serve_kernels
  in
  (* the measured keys: [population_per_kernel] variants per kernel,
     spread evenly over its grid, the same for every seed *)
  let spread l =
    let a = Array.of_list l in
    let n = Array.length a and m = population_per_kernel in
    if n <= m then l else List.init m (fun i -> a.(i * n / m))
  in
  ( reserved,
    List.concat_map
      (fun k -> spread (List.filter (fun v -> v.kernel = k && not (List.memq v reserved)) all))
      serve_kernels )

let serve_warmup ~seed =
  let cfg = serve_seed ~seed in
  let reserved, _ = split_population () in
  List.concat_map
    (fun v ->
      List.map
        (fun b ->
          obj
            ((("id", str ("warm-" ^ b ^ "-" ^ v.kernel)) :: ("op", str "predict")
             :: variant_fields v)
            @ [ ("backend", str b); ("seed", int cfg) ]))
        [ "hybrid"; "surrogate" ])
    reserved

let class_of_line line =
  match Json.parse line with
  | Ok j -> (
      match Option.bind (Json.member "class" j) Json.to_str with Some c -> c | None -> "?")
  | Error _ -> "?"

(* [serve_mix ~seed ~per_lane] is the request list of one caller: the
   two lanes, each [per_lane] long (rounded up to a whole block of 20),
   taken in turn. *)
let serve_mix ~seed ~per_lane =
  let cfg = serve_seed ~seed in
  let rng = Prng.create ((seed * 7919) + 17) in
  let _, population = split_population () in
  let blocks = (per_lane + 19) / 20 in
  (* kernels come round-robin within a class, so every seed sends each
     kernel the same share *)
  let cycle kernels =
    let a = Array.of_list kernels and i = ref (-1) in
    fun () ->
      incr i;
      a.(!i mod Array.length a)
  in
  let draws = Hashtbl.create 16 in
  let draw_variant cls =
    let next_kernel, decks =
      match Hashtbl.find_opt draws cls with
      | Some d -> d
      | None ->
          let total =
            Array.fold_left
              (fun acc lane -> acc + (blocks * Option.value (List.assoc_opt cls lane) ~default:0))
              0 lane_classes
          in
          let nk = List.length serve_kernels in
          let decks =
            List.mapi
              (fun j k ->
                ( k,
                  deck rng ~zipf:(cls <> "timeline")
                    (List.filter (fun v -> v.kernel = k) population)
                    ((total + nk - 1 - j) / nk) ))
              serve_kernels
          in
          let d = (cycle serve_kernels, decks) in
          Hashtbl.add draws cls d;
          d
    in
    (List.assoc (next_kernel ()) decks) ()
  in
  let draw_tune_kernel = cycle registry_tune_kernels in
  let draw_adaptive_model = cycle adaptive_model_kernels in
  let draw_dense = cycle [ "kmeans"; "cfd"; "backprop" ] in
  let n = ref 0 in
  let line cls fields =
    incr n;
    obj ((("id", int !n) :: ("class", str cls) :: fields) @ [ ("seed", int cfg) ])
  in
  let request cls =
    match cls with
    | "predict-sim" | "predict-model" | "predict-hybrid" | "predict-surrogate" ->
        let b = String.sub cls 8 (String.length cls - 8) in
        line cls
          ((("op", str "predict") :: variant_fields (draw_variant cls)) @ [ ("backend", str b) ])
    | "timeline" -> line cls (("op", str "timeline") :: variant_fields (draw_variant cls))
    | "tune-sim" ->
        line cls
          [ ("op", str "tune"); ("kernel", str (draw_tune_kernel ())); ("backend", str "sim") ]
    | "tune-adaptive-model" | "tune-adaptive-surrogate" ->
        let rank = if cls = "tune-adaptive-model" then "model" else "surrogate" in
        line cls
          ([
             ("op", str "tune");
             ( "kernel",
               str (if rank = "model" then draw_adaptive_model () else adaptive_surrogate_kernel) );
             ("backend", str "sim");
             ("strategy", str "adaptive");
             ("rank", str rank);
             ("shortlist", int 4);
           ]
          @ offgrid)
    | "tune-model-dense" ->
        line cls
          [
            ("op", str "tune");
            ("kernel", str (draw_dense ()));
            ("backend", str "model");
            ("grains", str "8..512:8");
            ("unrolls", str "1..8");
          ]
    | other -> invalid_arg ("Gen.serve_mix: unknown class " ^ other)
  in
  let sequences =
    Array.map
      (fun lane ->
        let block = Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) lane) in
        List.concat
          (List.init blocks (fun _ ->
               let b = Array.copy block in
               shuffle rng b;
               Array.to_list b)))
      lane_classes
  in
  let lanes = Array.map (List.map request) sequences in
  List.concat (List.map2 (fun a b -> [ a; b ]) lanes.(0) lanes.(1))
