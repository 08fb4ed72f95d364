(* Sharded tuning: the partition must be a stable pure function of the
   point (hard-coded FNV-1a expectations pin it across OCaml versions),
   the offline journal readers must merge deterministically and survive
   crafted duplicate / mismatched / truncated inputs, the pipe protocol
   must round-trip bit-exact floats, and the cutoff link must stay
   advisory — wired or not, right or wrong, the argmin never moves. *)

open Sw_tuning
module Backend = Sw_backend.Backend
module Json = Sw_obs.Json

let p = Sw_arch.Params.default

let config = Sw_sim.Config.default p

let pt grain unroll double_buffer = { Space.grain; unroll; double_buffer }

(* ------------------------------------------------------------------ *)
(* Partition *)

(* The shard hash is part of the journal-compatibility contract: a
   coordinator and its workers (possibly different builds) must agree
   on who owns what.  Pin it to values computed independently. *)
let test_assign_stable () =
  Alcotest.(check string)
    "canonical key" "g32|u4|dbtrue"
    (Shard.canonical_key (pt 32 4 true));
  let expect point shard =
    Alcotest.(check int) (Shard.canonical_key point) shard (Shard.assign ~shards:4 point)
  in
  expect (pt 32 1 false) 2;
  expect (pt 32 4 true) 2;
  expect (pt 100 8 false) 3;
  (* in range for every shard count *)
  List.iter
    (fun shards ->
      List.iter
        (fun point ->
          let s = Shard.assign ~shards point in
          if s < 0 || s >= shards then
            Alcotest.failf "assign ~shards:%d %s = %d" shards (Shard.canonical_key point) s)
        [ pt 1 1 false; pt 4096 128 true; pt 7 3 false ])
    [ 1; 2; 3; 4; 7; 16 ];
  (try
     ignore (Shard.assign ~shards:0 (pt 1 1 false));
     Alcotest.fail "shards=0 accepted"
   with Invalid_argument _ -> ())

(* The hash over its string, in boxed Int64 as first written: [assign]
   hashes the same bytes in native ints without building the key. *)
let reference_assign ~shards point =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    (Shard.canonical_key point);
  Int64.to_int (Int64.rem (Int64.logand !h Int64.max_int) (Int64.of_int shards))

let prop_assign_reference =
  QCheck.Test.make ~count:2000 ~name:"assign = FNV-1a of the canonical key"
    QCheck.(
      make
        ~print:(fun (p, shards) -> Printf.sprintf "%s / %d" (Shard.canonical_key p) shards)
        Gen.(
          pair
            (map3 pt
               (oneof [ small_nat; int; oneofl [ min_int; max_int; 0; -1 ] ])
               (oneof [ small_nat; int ]) bool)
            (oneof [ int_range 1 64; int_range 1 max_int ])))
    (fun (point, shards) -> Shard.assign ~shards point = reference_assign ~shards point)

(* A worker builds only its share, hashing along the axes: the same
   points in the same order as filtering the whole enumeration, for any
   axes (duplicates included) and any shard count. *)
let prop_enumerate_is_mine =
  QCheck.Test.make ~count:300 ~name:"enumerate = mine of the enumeration"
    QCheck.(
      make
        ~print:(fun ((g, u, db), shards) ->
          Printf.sprintf "grains=%s unrolls=%s dbs=%d shards=%d"
            (String.concat "," (List.map string_of_int g))
            (String.concat "," (List.map string_of_int u))
            (List.length db) shards)
        Gen.(
          pair
            (triple
               (list_size (int_range 0 12) (int_range 1 5000))
               (list_size (int_range 0 8) (int_range 1 200))
               (oneofl [ []; [ false ]; [ true ]; [ false; true ] ]))
            (int_range 1 8)))
    (fun ((grains, unrolls, double_buffers), shards) ->
      let points = Space.enumerate ~grains ~unrolls ~double_buffers () in
      List.for_all
        (fun shard ->
          Shard.enumerate ~shard ~shards { Space.grains; unrolls; double_buffers }
          = Shard.mine ~shard ~shards points)
        (List.init shards Fun.id))

let test_mine_partitions () =
  let points =
    Space.enumerate ~grains:(Space.range 1 50) ~unrolls:(Space.range 1 8)
      ~double_buffers:[ false; true ] ()
  in
  let shards = 4 in
  let mined = List.init shards (fun shard -> Shard.mine ~shard ~shards points) in
  (* each sub-list is exactly the owned points in enumeration order *)
  List.iteri
    (fun shard sub ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d = filter" shard)
        true
        (sub = List.filter (fun point -> Shard.assign ~shards point = shard) points))
    mined;
  (* the sub-lists partition the space exactly *)
  Alcotest.(check int) "partition total" (List.length points)
    (List.fold_left (fun n sub -> n + List.length sub) 0 mined);
  (* this particular 800-point space splits perfectly (fixed hash, so
     the counts are deterministic — a changed hash shows up here) *)
  List.iteri
    (fun shard sub ->
      Alcotest.(check int) (Printf.sprintf "shard %d count" shard) 200 (List.length sub))
    mined;
  (* membership is a function of the point, not of enumeration order *)
  List.iteri
    (fun shard sub ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d order-independent" shard)
        true
        (Shard.mine ~shard ~shards (List.rev points) = List.rev sub))
    mined;
  (try
     ignore (Shard.mine ~shard:4 ~shards:4 points);
     Alcotest.fail "shard out of range accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Offline journal readers *)

let entry = Sw_workloads.Registry.find_exn "vector-add"

let kernel = entry.Sw_workloads.Registry.build ~scale:0.1

let key point = Backend.journal_key_of kernel (Space.to_variant point ~active_cpes:64)

let write_file path lines =
  let oc = open_out_bin path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

let ok cycles = Backend.Journal_ok { cycles; machine_us = 1.5; machine_events = 42 }

let cycles_of = function
  | Some (Backend.Journal_ok { cycles; _ }) -> cycles
  | Some (Backend.Journal_infeasible _) -> Alcotest.fail "infeasible entry"
  | Some (Backend.Journal_cutoff _) -> Alcotest.fail "cut-off entry"
  | None -> Alcotest.fail "key missing from merge"

let test_merge_first_written_wins () =
  let k1 = key (pt 32 1 false) and k2 = key (pt 32 2 false) in
  let a = Filename.temp_file "swpm_shard_a" ".jsonl" in
  let b = Filename.temp_file "swpm_shard_b" ".jsonl" in
  write_file a
    [ Backend.journal_header_line config; Backend.journal_entry_line k1 (ok 100.) ];
  write_file b
    [
      Backend.journal_header_line config;
      Backend.journal_entry_line k1 (ok 200.);
      Backend.journal_entry_line k2 (ok 300.);
    ];
  let merged = Backend.journal_merge ~config [ a; b ] in
  Alcotest.(check int) "two distinct keys" 2 (Hashtbl.length merged);
  Alcotest.(check (float 0.)) "duplicate keeps first-written" 100.
    (cycles_of (Hashtbl.find_opt merged k1));
  Alcotest.(check (float 0.)) "unique key from second file" 300.
    (cycles_of (Hashtbl.find_opt merged k2));
  (* path order decides which write is first *)
  let swapped = Backend.journal_merge ~config [ b; a ] in
  Alcotest.(check (float 0.)) "swapped order keeps b's entry" 200.
    (cycles_of (Hashtbl.find_opt swapped k1));
  Sys.remove a;
  Sys.remove b

(* Cut-off lines fold by the one combine rule: a verdict beats a
   bound whichever was written first, and two bounds keep the larger. *)
let test_merge_combines_cutoffs () =
  let k1 = key (pt 32 1 false) and k2 = key (pt 32 2 false) and k3 = key (pt 32 4 false) in
  let cut at = Backend.Journal_cutoff { at } in
  let a = Filename.temp_file "swpm_shard_cut_a" ".jsonl" in
  let b = Filename.temp_file "swpm_shard_cut_b" ".jsonl" in
  write_file a
    [
      Backend.journal_header_line config;
      Backend.journal_entry_line k1 (cut 50.);
      Backend.journal_entry_line k1 (ok 100.);
      Backend.journal_entry_line k2 (cut 50.);
      Backend.journal_entry_line k2 (cut 80.);
      Backend.journal_entry_line k3 (ok 300.);
    ];
  write_file b
    [
      Backend.journal_header_line config;
      Backend.journal_entry_line k2 (cut 60.);
      Backend.journal_entry_line k3 (cut 400.);
    ];
  let merged = Backend.journal_merge ~config [ a; b ] in
  Alcotest.(check (float 0.)) "a cutoff then an ok merge to the ok" 100.
    (cycles_of (Hashtbl.find_opt merged k1));
  (match Hashtbl.find_opt merged k2 with
  | Some (Backend.Journal_cutoff { at }) ->
      Alcotest.(check (float 0.)) "two cutoffs keep the larger" 80. at
  | _ -> Alcotest.fail "expected a cut-off entry");
  Alcotest.(check (float 0.)) "a later cutoff does not displace a verdict" 300.
    (cycles_of (Hashtbl.find_opt merged k3));
  Sys.remove a;
  Sys.remove b

let test_digest_mismatch () =
  let other = { config with Sw_sim.Config.seed = config.Sw_sim.Config.seed + 1 } in
  let path = Filename.temp_file "swpm_shard_mismatch" ".jsonl" in
  write_file path
    [ Backend.journal_header_line other; Backend.journal_entry_line (key (pt 32 1 false)) (ok 1.) ];
  (match Backend.journal_read ~config path with
  | Error (Backend.Journal_mismatched { path = p; expected; found }) ->
      Alcotest.(check string) "mismatch path" path p;
      Alcotest.(check string) "expected digest" (Backend.config_digest config) expected;
      Alcotest.(check string) "found digest" (Backend.config_digest other) found
  | Error (Backend.Journal_unreadable _) -> Alcotest.fail "mismatch misread as unreadable"
  | Ok _ -> Alcotest.fail "mismatched journal read back as Ok");
  Alcotest.check_raises "merge propagates the mismatch"
    (Backend.Journal_mismatch
       {
         path;
         expected = Backend.config_digest config;
         found = Backend.config_digest other;
       })
    (fun () -> ignore (Backend.journal_merge ~config [ path ]));
  Sys.remove path

let test_truncated_tail () =
  let k1 = key (pt 32 1 false) and k2 = key (pt 32 2 false) in
  let truncated = Filename.temp_file "swpm_shard_trunc" ".jsonl" in
  let good = Filename.temp_file "swpm_shard_good" ".jsonl" in
  let full = Backend.journal_entry_line k2 (ok 200.) in
  let oc = open_out_bin truncated in
  output_string oc (Backend.journal_header_line config);
  output_char oc '\n';
  output_string oc (Backend.journal_entry_line k1 (ok 100.));
  output_char oc '\n';
  (* the kill-mid-write case: half an entry, no newline *)
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  let entries =
    match Backend.journal_read ~config truncated with
    | Ok entries -> entries
    | Error issue -> Alcotest.failf "truncated tail: %s" (Backend.journal_issue_string issue)
  in
  Alcotest.(check int) "partial tail dropped" 1 (List.length entries);
  Alcotest.(check (float 0.)) "surviving entry intact" 100.
    (cycles_of (Option.map snd (List.nth_opt entries 0)));
  (* a truncated shard does not poison the merge *)
  write_file good
    [ Backend.journal_header_line config; Backend.journal_entry_line k2 (ok 200.) ];
  let merged = Backend.journal_merge ~config [ truncated; good ] in
  Alcotest.(check int) "both shards merged" 2 (Hashtbl.length merged);
  Alcotest.(check (float 0.)) "good shard's entry present" 200.
    (cycles_of (Hashtbl.find_opt merged k2));
  Sys.remove truncated;
  Sys.remove good

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_roundtrip () =
  let cases =
    [
      Shard.Incumbent { cycles = 1140894.5999990494; seq = 0 };  (* needs all 17 digits *)
      Shard.Incumbent { cycles = 18463.25; seq = 41 };
      Shard.Heartbeat { seq = 7 };
      Shard.Cutoff 18463.2;
      Shard.Done
        { stats = Json.Obj [ ("shard", Json.Int 0); ("cpu_s", Json.Float 1.5) ]; seq = Some 9 };
      (* a done line without a number still decodes *)
      Shard.Done { stats = Json.Obj [ ("shard", Json.Int 1) ]; seq = None };
    ]
  in
  List.iter
    (fun msg ->
      let line = Shard.encode msg in
      match Shard.decode line with
      | Some msg' -> Alcotest.(check bool) line true (msg = msg')
      | None -> Alcotest.failf "%s does not decode" line)
    cases;
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" line) true (Shard.decode line = None))
    [ "not json"; "{\"ev\": \"nope\"}"; "{\"ev\": \"incumbent\"}"; "{}"; "" ]

(* ------------------------------------------------------------------ *)
(* Cutoff link: advisory by construction *)

let best_priced results =
  List.fold_left
    (fun acc (_, r) ->
      match r with
      | Search.Priced v -> (
          match acc with
          | Some c when c <= v.Backend.cycles -> acc
          | _ -> Some v.Backend.cycles)
      | _ -> acc)
    None results

(* costs carry measured host seconds; compare what the tuner folds *)
let shape results =
  List.map
    (fun (point, r) ->
      ( point,
        match r with
        | Search.Priced v -> `Priced v.Backend.cycles
        | Search.Rejected _ -> `Rejected
        | Search.Pruned _ -> `Pruned ))
    results

let test_link_advisory () =
  let kernel = entry.Sw_workloads.Registry.build ~scale:0.05 in
  let points =
    Space.enumerate ~grains:entry.Sw_workloads.Registry.grains
      ~unrolls:entry.Sw_workloads.Registry.unrolls ()
  in
  let run ?link () =
    Search.run (Search.shortlist ~k:4 ()) ~backend:Backend.simulator ~active_cpes:64 ?link
      config kernel ~points
  in
  let baseline, _ = run () in
  let best = Option.get (best_priced baseline) in
  (* a no-op link changes nothing and sees every incumbent improvement *)
  let published = ref [] in
  let noop =
    { Search.publish = (fun c -> published := c :: !published); current = (fun () -> None) }
  in
  let linked, _ = run ~link:noop () in
  Alcotest.(check bool) "no-op link: identical results" true (shape baseline = shape linked);
  Alcotest.(check bool) "publish fired" true (!published <> []);
  Alcotest.(check (float 0.)) "final incumbent published" best
    (List.fold_left Stdlib.min infinity !published);
  (* a remote incumbent equal to the true minimum prunes the rest but —
     cutoffs being strict — still prices the minimum itself *)
  let tight = { Search.publish = ignore; current = (fun () -> Some best) } in
  let pruned, _ = run ~link:tight () in
  Alcotest.(check (float 0.)) "tight remote cutoff keeps the argmin" best
    (Option.get (best_priced pruned))

(* The worker side of the pipe link drains its input on a time budget,
   not on every poll: a cutoff written to it shows up once the drain
   interval has passed, and heartbeats keep their schedule. *)
let with_pipes f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ in_r; in_w; out_r; out_w ])
    (fun () -> f ~in_r ~in_w ~out_r ~out_w)

let test_link_drain_interval () =
  with_pipes (fun ~in_r ~in_w ~out_r:_ ~out_w ->
      let link, _ = Shard.worker_link ~input:in_r ~output:out_w ~heartbeat_s:0.0 () in
      Alcotest.(check (option (float 0.))) "nothing sent yet" None (link.Search.current ());
      let send c =
        let line = Shard.encode (Shard.Cutoff c) ^ "\n" in
        ignore (Unix.write_substring in_w line 0 (String.length line) : int)
      in
      send 500.0;
      send 300.0;
      send 400.0;
      Unix.sleepf 0.005;
      Alcotest.(check (option (float 0.))) "smallest cutoff after the interval" (Some 300.0)
        (link.Search.current ());
      send 250.0;
      Unix.sleepf 0.005;
      Alcotest.(check (option (float 0.))) "a later, smaller cutoff" (Some 250.0)
        (link.Search.current ()))

let test_link_heartbeat_schedule () =
  with_pipes (fun ~in_r ~in_w:_ ~out_r ~out_w ->
      let heartbeat_s = 0.02 and span_s = 0.3 in
      let link, _ = Shard.worker_link ~input:in_r ~output:out_w ~heartbeat_s () in
      (* poll once per "point" of about 30 us, as a search does *)
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < span_s do
        ignore (link.Search.current ());
        let t = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t < 30e-6 do () done
      done;
      Unix.set_nonblock out_r;
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      (try
         while true do
           match Unix.read out_r chunk 0 4096 with
           | 0 -> raise Exit
           | n -> Buffer.add_subbytes buf chunk 0 n
         done
       with Exit | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let seqs =
        List.filter_map
          (fun line ->
            match Shard.decode line with Some (Shard.Heartbeat { seq }) -> Some seq | _ -> None)
          (String.split_on_char '\n' (Buffer.contents buf))
      in
      let n = List.length seqs in
      let expected = int_of_float (span_s /. heartbeat_s) in
      if n < expected / 2 || n > expected + 1 then
        Alcotest.failf "%d heartbeats in %.2f s at one per %.2f s" n span_s heartbeat_s;
      Alcotest.(check (list int)) "numbered from 0" (List.init n Fun.id) seqs)

(* ------------------------------------------------------------------ *)
(* Axis parsing (the CLI surface the bench spaces come through) *)

let test_axis_syntax () =
  Alcotest.(check (list int)) "range" [ 1; 2; 3; 4 ] (Space.range 1 4);
  Alcotest.(check (list int)) "range step" [ 2; 5; 8 ] (Space.range ~step:3 2 10);
  Alcotest.(check (list int)) "range empty" [] (Space.range 5 4);
  (try
     ignore (Space.range ~step:0 1 4);
     Alcotest.fail "step=0 accepted"
   with Invalid_argument _ -> ());
  let ok spec expected =
    match Space.parse_axis spec with
    | Ok vs -> Alcotest.(check (list int)) spec expected vs
    | Error msg -> Alcotest.failf "%s rejected: %s" spec msg
  in
  ok "1..4" [ 1; 2; 3; 4 ];
  ok "2..10:3" [ 2; 5; 8 ];
  ok "5" [ 5 ];
  ok "1,2,9" [ 1; 2; 9 ];
  List.iter
    (fun spec ->
      match Space.parse_axis spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error _ -> ())
    [ "0..3"; "x"; "1.."; ""; "3..1:0" ]

(* A sharded tune reports the outcome fields the in-process tune does,
   for every ranked strategy: the strategy label names the rank backend
   actually used, and the points the workers' ranking pass rejected
   count as infeasible, not pruned (they are never journaled).
   [evaluated] may differ — global cutoffs reach a worker
   mid-verification — but [evaluated + pruned] may not. *)
let test_sharded_outcome_fields strategy () =
  Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
  let module H = Sw_serve.Handler in
  let req =
    {
      (H.tune_defaults ~kernel:"kmeans") with
      H.t_backend = "model";
      t_strategy = strategy;
      t_rank = Some "model";
      t_grains = Some "8,64,512,1024,2048";
      t_scale = 0.25;
      t_seed = Some 3;
    }
  in
  let outcome workers =
    match H.tune (H.create ()) { req with H.t_workers = workers } with
    | Ok r -> r.H.tr_outcome
    | Error msg -> Alcotest.failf "workers=%d: %s" workers msg
  in
  let local = outcome 1 and sharded = outcome 2 in
  Alcotest.(check string) "strategy label" local.Tuner.strategy sharded.Tuner.strategy;
  Alcotest.(check bool) "space has rank-infeasible points" true (local.Tuner.infeasible > 0);
  Alcotest.(check int) "infeasible" local.Tuner.infeasible sharded.Tuner.infeasible;
  Alcotest.(check int) "evaluated + pruned"
    (local.Tuner.evaluated + local.Tuner.points_pruned)
    (sharded.Tuner.evaluated + sharded.Tuner.points_pruned);
  Alcotest.(check bool) "same argmin" true (local.Tuner.best = sharded.Tuner.best)

(* Resuming a checkpoint written over a wider space (entries outside the
   new one) with a duplicated grain still counts every point of the new
   space exactly as an in-process tune does: the workers summarize
   their replayed points with the rest. *)
let test_sharded_counts_from_journals () =
  Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
  let module H = Sw_serve.Handler in
  let ckpt = Filename.temp_file "swpm-shard-walk" ".journal" in
  let req grains =
    {
      (H.tune_defaults ~kernel:"kmeans") with
      H.t_backend = "model";
      t_grains = Some grains;
      t_scale = 0.25;
      t_seed = Some 3;
    }
  in
  let outcome t =
    match H.tune (H.create ()) t with
    | Ok r -> r.H.tr_outcome
    | Error msg -> Alcotest.failf "%s" msg
  in
  ignore (outcome { (req "8,64,512,1024,2048") with H.t_workers = 2; t_checkpoint = Some ckpt });
  let local = outcome (req "64,8,64")
  and sharded = outcome { (req "64,8,64") with H.t_workers = 2; t_checkpoint = Some ckpt } in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ ckpt; ckpt ^ ".shard0of2"; ckpt ^ ".shard1of2" ];
  Alcotest.(check bool) "resumed from the journals" true (sharded.Tuner.journal_hits > 0);
  Alcotest.(check int) "evaluated" local.Tuner.evaluated sharded.Tuner.evaluated;
  Alcotest.(check int) "infeasible" local.Tuner.infeasible sharded.Tuner.infeasible;
  Alcotest.(check int) "pruned" local.Tuner.points_pruned sharded.Tuner.points_pruned;
  Alcotest.(check bool) "same argmin" true (local.Tuner.best = sharded.Tuner.best)

(* Equal summaries, cycles compared bit for bit. *)
let same_summary (a : Tuner.summary) (b : Tuner.summary) =
  let bits = Option.map (fun (p, c) -> (p, Int64.bits_of_float c)) in
  a.evaluated = b.evaluated && a.infeasible = b.infeasible
  && bits a.first = bits b.first
  && bits a.best = bits b.best

(* The worker-stats codec: what a worker sends round-trips exactly
   (floats bit-exact through the protocol line, the summary's cycles
   too, a robust score of infinity included), and a [Done] line that
   carries only some keys reads the rest as 0 — but has no summary. *)
let test_worker_stats_codec () =
  let sent =
    {
      Tuner.tuning_host_s = 0.0;
      tuning_cpu_s = 0.1 +. 0.2;
      machine_time_us = 1140894.5999990494;
      points_pruned = 0;
      rank_host_s = 0.25;
      rank_machine_us = 18463.2;
      journal_hits = 7;
      journal_misses = 11;
    }
  in
  let summary =
    {
      Tuner.evaluated = 5;
      infeasible = 4;
      first = Some (pt 64 1 true, 0.1 +. 0.2);
      best = Some (pt 8 4 false, 1140894.5999990494);
    }
  in
  let raw stats =
    match Shard.decode (Shard.encode (Shard.Done { stats; seq = Some 1 })) with
    | Some (Shard.Done { stats; _ }) -> stats
    | _ -> Alcotest.fail "done line does not decode"
  in
  let through_pipe stats = Tuner.stats_of_json (raw stats) in
  Alcotest.(check bool) "round trip" true
    (through_pipe (Tuner.stats_to_json ~shard:2 sent summary) = sent);
  List.iter
    (fun (label, summary) ->
      match Tuner.summary_of_json (raw (Tuner.stats_to_json ~shard:2 sent summary)) with
      | Some back -> Alcotest.(check bool) label true (same_summary back summary)
      | None -> Alcotest.failf "%s: summary does not decode" label)
    [
      ("summary round trip", summary);
      ("infinite cycles", { summary with Tuner.best = Some (pt 8 4 false, Float.infinity) });
      ("empty shard", { Tuner.evaluated = 0; infeasible = 3; first = None; best = None });
    ];
  let partial_stats = Json.Obj [ ("shard", Json.Int 0); ("cpu_s", Json.Float 1.5) ] in
  Alcotest.(check bool) "no summary" true (Tuner.summary_of_json (raw partial_stats) = None);
  let partial = through_pipe partial_stats in
  Alcotest.(check bool) "missing fields read as 0" true
    (partial
    = {
        sent with
        Tuner.tuning_cpu_s = 1.5;
        machine_time_us = 0.0;
        rank_host_s = 0.0;
        rank_machine_us = 0.0;
        journal_hits = 0;
        journal_misses = 0;
      })

(* Sharded adaptive search lands on the in-process argmin: a worker that
   stops once the global incumbent outranks its rung still leaves the
   true minimum to the shard that owns it. *)
let test_sharded_adaptive_argmin () =
  Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
  let module H = Sw_serve.Handler in
  List.iter
    (fun (e : Sw_workloads.Registry.entry) ->
      let req =
        {
          (H.tune_defaults ~kernel:e.Sw_workloads.Registry.name) with
          H.t_backend = "sim";
          t_strategy = "adaptive";
          t_rank = Some "model";
          t_shortlist = 6;
          t_scale = 0.25;
          t_seed = Some 1;
        }
      in
      let best workers =
        match H.tune (H.create ()) { req with H.t_workers = workers } with
        | Ok r -> r.H.tr_outcome.Tuner.best
        | Error msg -> Alcotest.failf "%s workers=%d: %s" e.name workers msg
      in
      Alcotest.(check bool) (e.name ^ ": same argmin") true (best 1 = best 2))
    Sw_workloads.Registry.tuning_subset

(* Per-point results drawn from [seed]: a point's result depends on the
   point alone, so a repeated axis value repeats it, and three cycle
   values make ties across shards common. *)
let result_of ~seed point =
  let h = Hashtbl.hash (seed, Shard.canonical_key point) in
  match h mod 5 with
  | 0 -> Search.Rejected { Backend.backend = "t"; reason = "spm" }
  | 1 -> Search.Pruned Backend.zero_cost
  | _ ->
      let cycles = [| 0.1 +. 0.2; 0.3; 7.5 |].(h / 5 mod 3) in
      Search.Priced { Backend.cycles; cost = Backend.zero_cost; breakdown = None }

(* The coordinator's answer is the in-process one: the shards'
   summaries, each folded over [Shard.enumerate]'s order and combined,
   equal the fold over the whole enumeration — the same first point,
   the same argmin with bit-identical cycles, the same counts. *)
let prop_combine_is_summarize =
  QCheck.Test.make ~count:500 ~name:"combined shard summaries = the in-process fold"
    QCheck.(
      make
        ~print:(fun ((g, u, db), shards, seed) ->
          Printf.sprintf "grains=%s unrolls=%s dbs=%s shards=%d seed=%d"
            (String.concat "," (List.map string_of_int g))
            (String.concat "," (List.map string_of_int u))
            (String.concat "," (List.map string_of_bool db))
            shards seed)
        Gen.(
          triple
            (triple
               (list_size (int_range 1 4) (int_range 1 4))
               (list_size (int_range 1 3) (int_range 1 3))
               (oneofl [ [ false ]; [ true ]; [ false; true ]; [ true; false ] ]))
            (int_range 1 4) int))
    (fun ((grains, unrolls, double_buffers), shards, seed) ->
      let axes = { Space.grains; unrolls; double_buffers } in
      let summary points = Tuner.summarize (List.map (fun p -> (p, result_of ~seed p)) points) in
      let whole = summary (Space.enumerate ~grains ~unrolls ~double_buffers ()) in
      same_summary whole
        (Tuner.combine axes
           (List.init shards (fun shard -> summary (Shard.enumerate ~shard ~shards axes)))))

(* A kmeans request small enough to tune exhaustively under the model. *)
let kmeans_req =
  {
    (Sw_serve.Handler.tune_defaults ~kernel:"kmeans") with
    Sw_serve.Handler.t_backend = "model";
    t_grains = Some "8,64,512,1024,2048";
    t_scale = 0.25;
    t_seed = Some 3;
  }

let kmeans_axes =
  {
    Space.grains = [ 8; 64; 512; 1024; 2048 ];
    unrolls = (Sw_workloads.Registry.find_exn "kmeans").Sw_workloads.Registry.unrolls;
    double_buffers = [ false ];
  }

let tune_sharded_kmeans ~argv =
  let config =
    match Sw_serve.Handler.tune_config kmeans_req with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let kernel = (Sw_workloads.Registry.find_exn "kmeans").Sw_workloads.Registry.build ~scale:0.25 in
  let journals = Array.init 2 (fun _ -> Filename.temp_file "swpm-shard-summary" ".journal") in
  let result =
    Tuner.tune_sharded ~backend_name:"model" ~strategy_name:"exhaustive" ~workers:2 ~argv
      ~journal_of:(fun shard -> journals.(shard))
      ~max_restarts:0 config kernel ~axes:kmeans_axes
  in
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) journals;
  (config, kernel, result)

(* A shard that always dies is quarantined and contributes nothing: the
   tune still answers, marked partial, with the surviving shard's
   argmin, and every point of the space is counted once. *)
let test_sharded_quarantine_partial () =
  Unix.putenv "SWPM_WORKER_EXE" Sys.executable_name;
  let argv ~shard ~journal =
    if shard = 1 then [| "/bin/sh"; "-c"; "exit 7" |]
    else Sw_serve.Handler.worker_argv kmeans_req ~shard ~shards:2 ~journal
  in
  let config, kernel, result = tune_sharded_kmeans ~argv in
  let o = match result with Ok o -> o | Error _ -> Alcotest.fail "partial tune failed" in
  let shard0 =
    Tuner.tune_exn ~backend:Backend.static_model config kernel
      ~points:(Shard.enumerate ~shard:0 ~shards:2 kmeans_axes)
  in
  let { Space.grains; unrolls; double_buffers } = kmeans_axes in
  Alcotest.(check (list int)) "quarantined" [ 1 ] o.Tuner.quarantined;
  Alcotest.(check bool) "shard 0's argmin" true (o.Tuner.best = shard0.Tuner.best);
  Alcotest.(check (float 0.)) "shard 0's best cycles" shard0.Tuner.best_cycles o.Tuner.best_cycles;
  Alcotest.(check (float 0.)) "default" shard0.Tuner.default_cycles o.Tuner.default_cycles;
  Alcotest.(check int) "shard 0's evaluated" shard0.Tuner.evaluated o.Tuner.evaluated;
  Alcotest.(check int) "every point counted once"
    (Space.size ~grains ~unrolls ~double_buffers ())
    (o.Tuner.evaluated + o.Tuner.infeasible + o.Tuner.points_pruned)

(* A worker that completes without a summary (an older build, say) is a
   typed failure, never a shard silently counted as empty. *)
let test_done_without_summary () =
  let argv ~shard ~journal:_ =
    [|
      "/bin/sh";
      "-c";
      Printf.sprintf {|echo '{"ev": "done", "stats": {"shard": %d, "cpu_s": 0.0}}'|} shard;
    |]
  in
  match tune_sharded_kmeans ~argv with
  | _, _, Error (`Worker_failure _) -> ()
  | _, _, Error (`No_feasible_point msg) -> Alcotest.failf "no summary read as: %s" msg
  | _, _, Ok _ -> Alcotest.fail "a done line without a summary was accepted"

let tests =
  ( "shard",
    [
      Alcotest.test_case "assign is a stable pure hash" `Quick test_assign_stable;
      QCheck_alcotest.to_alcotest prop_assign_reference;
      Alcotest.test_case "mine partitions the space exactly" `Quick test_mine_partitions;
      Alcotest.test_case "merge keeps the first-written duplicate" `Quick
        test_merge_first_written_wins;
      Alcotest.test_case "digest mismatch raises the typed error" `Quick test_digest_mismatch;
      Alcotest.test_case "truncated tail dropped without poisoning the merge" `Quick
        test_truncated_tail;
      Alcotest.test_case "protocol lines round-trip bit-exactly" `Quick test_protocol_roundtrip;
      Alcotest.test_case "cutoff link is advisory" `Slow test_link_advisory;
      Alcotest.test_case "link drains cutoffs on a 1 ms budget" `Quick test_link_drain_interval;
      Alcotest.test_case "link polled per point keeps its heartbeat" `Quick
        test_link_heartbeat_schedule;
      Alcotest.test_case "axis syntax" `Quick test_axis_syntax;
      Alcotest.test_case "worker stats codec round-trips" `Quick test_worker_stats_codec;
      Alcotest.test_case "sharded outcome fields match" `Quick
        (test_sharded_outcome_fields "shortlist");
      Alcotest.test_case "sharded outcome fields match (adaptive)" `Quick
        (test_sharded_outcome_fields "adaptive");
      Alcotest.test_case "sharded outcome fields match (robust)" `Quick
        (test_sharded_outcome_fields "robust");
      Alcotest.test_case "sharded adaptive argmin matches in-process" `Quick
        test_sharded_adaptive_argmin;
      Alcotest.test_case "merge combines cut-off lines" `Quick test_merge_combines_cutoffs;
      QCheck_alcotest.to_alcotest prop_enumerate_is_mine;
      Alcotest.test_case "sharded counts walk only journaled grains" `Quick
        test_sharded_counts_from_journals;
      QCheck_alcotest.to_alcotest prop_combine_is_summarize;
      Alcotest.test_case "a quarantined shard leaves a partial argmin" `Quick
        test_sharded_quarantine_partial;
      Alcotest.test_case "a done line without a summary fails the tune" `Quick
        test_done_without_summary;
    ] )
