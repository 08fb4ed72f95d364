(* The self-healing layer: chaos plans must round-trip their spec
   grammar and derive deterministically from a seed, typed journal
   issues must classify unreadable vs mismatched files, journal_merge
   must stay idempotent and first-written-wins under arbitrary
   interleavings (torn tails included — qcheck), and the supervisor
   must relaunch crashed/hung workers, count dropped protocol lines,
   and quarantine a shard that exhausts its restart budget. *)

open Sw_tuning
module Backend = Sw_backend.Backend
module Chaos = Sw_fault.Fault.Chaos
module Json = Sw_obs.Json

let p = Sw_arch.Params.default
let config = Sw_sim.Config.default p
let pt grain unroll double_buffer = { Space.grain; unroll; double_buffer }
let entry = Sw_workloads.Registry.find_exn "vector-add"
let kernel = entry.Sw_workloads.Registry.build ~scale:0.1
let key point = Backend.journal_key_of kernel (Space.to_variant point ~active_cpes:64)
let ok cycles = Backend.Journal_ok { cycles; machine_us = 1.5; machine_events = 42 }

let write_file path lines =
  let oc = open_out_bin path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Chaos plans: grammar, env transport, arming rules, generation *)

let test_spec_roundtrip () =
  let plans =
    [
      { Chaos.shard = 0; sticky = false; action = Chaos.Kill_after 6 };
      { Chaos.shard = 1; sticky = true; action = Chaos.Stall_after { lines = 3; secs = 2.5 } };
      { Chaos.shard = 2; sticky = false; action = Chaos.Corrupt_journal { mode = "tail" } };
      { Chaos.shard = 0; sticky = false; action = Chaos.Drop_incumbents 2 };
      { Chaos.shard = 3; sticky = false; action = Chaos.Dup_incumbents 5 };
    ]
  in
  (match Chaos.parse (Chaos.to_spec plans) with
  | Ok plans' -> Alcotest.(check bool) "spec round-trips" true (plans = plans')
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg);
  (* the empty plan is the empty spec *)
  Alcotest.(check string) "empty spec" "" (Chaos.to_spec []);
  Alcotest.(check bool) "empty parses" true (Chaos.parse "" = Ok []);
  (* malformed specs are typed errors, not crashes *)
  List.iter
    (fun spec ->
      match Chaos.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" spec)
    [
      "frobnicate:shard=0";
      "kill:shard=0";  (* missing after *)
      "kill:after=3";  (* missing shard *)
      "corrupt:shard=0,mode=nonsense";
      "stall:shard=0,after=2";  (* missing secs *)
      "drop:shard=0,every=0";  (* every must be >= 1 *)
      "kill:shard=-1,after=3";
    ]

let test_env_transport () =
  Unix.putenv Chaos.env_var "kill:shard=1,after=4,sticky=1";
  let plans = Chaos.of_env () in
  Alcotest.(check bool) "of_env parses the planted spec" true
    (plans = [ { Chaos.shard = 1; sticky = true; action = Chaos.Kill_after 4 } ]);
  Unix.putenv Chaos.env_var "";
  Alcotest.(check bool) "empty env is no chaos" true (Chaos.of_env () = []);
  Unix.putenv Chaos.env_var "garbage::";
  Alcotest.(check bool) "malformed env degrades to no chaos" true (Chaos.of_env () = []);
  Unix.putenv Chaos.env_var "";
  Unix.putenv Chaos.incarnation_var "3";
  Alcotest.(check int) "incarnation from env" 3 (Chaos.incarnation ());
  Unix.putenv Chaos.incarnation_var "";
  Alcotest.(check int) "incarnation defaults to 0" 0 (Chaos.incarnation ())

let test_arming_rules () =
  let plans =
    [
      { Chaos.shard = 0; sticky = false; action = Chaos.Kill_after 2 };
      { Chaos.shard = 0; sticky = true; action = Chaos.Stall_after { lines = 1; secs = 9. } };
      { Chaos.shard = 0; sticky = false; action = Chaos.Corrupt_journal { mode = "zero" } };
      { Chaos.shard = 1; sticky = false; action = Chaos.Drop_incumbents 3 };
    ]
  in
  (* incarnation 0: everything targeting shard 0 fires *)
  Alcotest.(check int) "shard 0, incarnation 0" 3
    (List.length (Chaos.armed ~shard:0 ~incarnation:0 plans));
  (* incarnation 1: the one-shot kill disarms, the sticky stall and the
     corruption stay armed *)
  let rearmed = Chaos.armed ~shard:0 ~incarnation:1 plans in
  Alcotest.(check int) "shard 0, incarnation 1" 2 (List.length rearmed);
  Alcotest.(check bool) "one-shot kill disarmed" false
    (List.exists (function Chaos.Kill_after _ -> true | _ -> false) rearmed);
  (* other shards see only their own plans *)
  Alcotest.(check bool) "shard 1 sees its drop" true
    (Chaos.armed ~shard:1 ~incarnation:5 plans = [ Chaos.Drop_incumbents 3 ]);
  Alcotest.(check bool) "shard 2 sees nothing" true
    (Chaos.armed ~shard:2 ~incarnation:0 plans = [])

let test_generate_deterministic () =
  for seed = 0 to 24 do
    let a = Chaos.generate ~seed ~shards:4 in
    let b = Chaos.generate ~seed ~shards:4 in
    if a <> b then Alcotest.failf "seed %d not deterministic" seed;
    if a = [] then Alcotest.failf "seed %d generated no plan" seed;
    List.iter
      (fun { Chaos.shard; _ } ->
        if shard < 0 || shard >= 4 then Alcotest.failf "seed %d targets shard %d" seed shard)
      a;
    (* every generated plan survives its own spec grammar *)
    match Chaos.parse (Chaos.to_spec a) with
    | Ok a' when a' = a -> ()
    | Ok _ -> Alcotest.failf "seed %d spec not faithful" seed
    | Error msg -> Alcotest.failf "seed %d spec rejected: %s" seed msg
  done

(* ------------------------------------------------------------------ *)
(* Typed journal issues *)

let test_unreadable_journals () =
  let path = Filename.temp_file "swpm_chaos_unreadable" ".jsonl" in
  (* an empty file: openable, useless — must be typed, not raised *)
  write_raw path "";
  (match Backend.journal_read ~config path with
  | Error (Backend.Journal_unreadable { path = p'; _ }) ->
      Alcotest.(check string) "empty file path" path p'
  | Error (Backend.Journal_mismatched _) -> Alcotest.fail "empty file typed as mismatch"
  | Ok _ -> Alcotest.fail "empty file read as Ok");
  (* garbage bytes where the header should be *)
  write_raw path "\x00\xffnot json at all\n{]";
  (match Backend.journal_read ~config path with
  | Error (Backend.Journal_unreadable _) -> ()
  | _ -> Alcotest.fail "garbage header not typed unreadable");
  (* a missing file is an empty journal, not an issue *)
  Sys.remove path;
  (match Backend.journal_read ~config path with
  | Ok [] -> ()
  | _ -> Alcotest.fail "missing file should read as empty");
  (* merge with an on_issue callback skips the unreadable shard *)
  let good = Filename.temp_file "swpm_chaos_good" ".jsonl" in
  let bad = Filename.temp_file "swpm_chaos_bad" ".jsonl" in
  let k = key (pt 32 1 false) in
  write_file good [ Backend.journal_header_line config; Backend.journal_entry_line k (ok 100.) ];
  write_raw bad "garbage";
  let issues = ref [] in
  let merged =
    Backend.journal_merge ~on_issue:(fun i -> issues := i :: !issues) ~config [ bad; good ]
  in
  Alcotest.(check int) "good shard merged" 1 (Hashtbl.length merged);
  (match !issues with
  | [ Backend.Journal_unreadable { path = p'; _ } ] -> Alcotest.(check string) "issue path" bad p'
  | _ -> Alcotest.fail "expected exactly one unreadable issue");
  (* without a callback, unreadable shards are skipped silently (the
     legacy raise is reserved for digest mismatches) *)
  Alcotest.(check int) "callback-free merge skips unreadable" 1
    (Hashtbl.length (Backend.journal_merge ~config [ bad; good ]));
  Sys.remove good;
  Sys.remove bad

let test_corrupt_file_modes () =
  let k1 = key (pt 32 1 false) and k2 = key (pt 32 2 false) in
  let fresh () =
    let path = Filename.temp_file "swpm_chaos_corrupt" ".jsonl" in
    write_file path
      [
        Backend.journal_header_line config;
        Backend.journal_entry_line k1 (ok 100.);
        Backend.journal_entry_line k2 (ok 200.);
      ];
    path
  in
  (* zero: truncated to nothing -> typed unreadable *)
  let z = fresh () in
  Alcotest.(check bool) "zero applies" true (Chaos.corrupt_file ~mode:"zero" z);
  Alcotest.(check int) "zeroed file is empty" 0 (String.length (In_channel.with_open_bin z In_channel.input_all));
  (* garbage: unparseable -> typed unreadable *)
  let g = fresh () in
  Alcotest.(check bool) "garbage applies" true (Chaos.corrupt_file ~mode:"garbage" g);
  (match Backend.journal_read ~config g with
  | Error (Backend.Journal_unreadable _) -> ()
  | _ -> Alcotest.fail "garbage journal not typed unreadable");
  (* tail: the mid-write SIGKILL shape — header survives, last entry is
     torn, the reader silently drops exactly the torn line *)
  let t = fresh () in
  Alcotest.(check bool) "tail applies" true (Chaos.corrupt_file ~mode:"tail" t);
  (match Backend.journal_read ~config t with
  | Ok entries -> Alcotest.(check int) "torn tail drops one entry" 1 (List.length entries)
  | Error issue -> Alcotest.failf "torn tail unreadable: %s" (Backend.journal_issue_string issue));
  (* a missing file is reported, not created *)
  Alcotest.(check bool) "missing file is false" false
    (Chaos.corrupt_file ~mode:"zero" (Filename.get_temp_dir_name () ^ "/swpm-no-such-journal"));
  List.iter Sys.remove [ z; g; t ]

(* ------------------------------------------------------------------ *)
(* Property: journal_merge is idempotent and first-written-wins under
   arbitrary interleavings, torn tails included *)

let keys =
  Array.of_list
    (List.map key
       [ pt 32 1 false; pt 32 2 false; pt 64 1 false; pt 64 2 true; pt 100 4 false ])

(* A journal description: entries as (key index, cycles), plus whether
   to tear the final entry mid-line. *)
let journal_gen =
  QCheck.Gen.(
    pair
      (list_size (int_bound 8)
         (pair (int_bound (Array.length keys - 1)) (map float_of_int (int_bound 1_000_000))))
      bool)

let materialize (entries, torn) =
  let path = Filename.temp_file "swpm_chaos_prop" ".jsonl" in
  let lines =
    Backend.journal_header_line config
    :: List.map (fun (ki, c) -> Backend.journal_entry_line keys.(ki) (ok c)) entries
  in
  (match (torn, List.rev lines) with
  | true, last :: rev_rest when entries <> [] ->
      write_file path (List.rev rev_rest);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc (String.sub last 0 (String.length last / 2));
      close_out oc
  | _ -> write_file path lines);
  path

(* the oracle: fold the entries in file order, first write wins; a torn
   journal loses exactly its last entry *)
let expected journals =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (entries, torn) ->
      let survived =
        if torn && entries <> [] then List.filteri (fun i _ -> i < List.length entries - 1) entries
        else entries
      in
      List.iter
        (fun (ki, c) -> if not (Hashtbl.mem tbl ki) then Hashtbl.add tbl ki c)
        survived)
    journals;
  tbl

let same_content merged oracle =
  Hashtbl.length merged = Hashtbl.length oracle
  && Hashtbl.fold
       (fun ki c acc ->
         acc
         &&
         match Hashtbl.find_opt merged keys.(ki) with
         | Some (Backend.Journal_ok { cycles; _ }) -> cycles = c
         | _ -> false)
       oracle true

let prop_merge_first_written_wins =
  QCheck.Test.make ~count:100 ~name:"journal_merge: first-written-wins, torn tails dropped"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) journal_gen))
    (fun journals ->
      let paths = List.map materialize journals in
      Fun.protect
        ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
        (fun () ->
          let merged = Backend.journal_merge ~config paths in
          let oracle = expected journals in
          (* idempotent: merging the same shards again changes nothing *)
          let twice = Backend.journal_merge ~config (paths @ paths) in
          same_content merged oracle && same_content twice oracle))

(* ------------------------------------------------------------------ *)
(* Supervision: scripted sh workers speaking the pipe protocol *)

let sh_proc ~shard script = Shard.launch ~shard ~argv:[| "/bin/sh"; "-c"; script |] ()

(* Crash on the first incarnation, succeed on the relaunch: the restart
   policy must deliver a Completed report with one restart. *)
let test_supervise_restart () =
  let script =
    {|if [ "${SWPM_CHAOS_INCARNATION:-0}" = "0" ]; then
        echo '{"ev": "incumbent", "cycles": 100.5, "seq": 0}'
        exit 3
      else
        echo '{"ev": "incumbent", "cycles": 50.5, "seq": 0}'
        echo '{"ev": "done", "stats": {"shard": 0, "cpu_s": 0.0}}'
        exit 0
      fi|}
  in
  let report = Shard.supervise ~max_restarts:2 [ sh_proc ~shard:0 script ] in
  Alcotest.(check bool) "completed" true (report.Shard.health = Shard.Completed);
  Alcotest.(check int) "one restart" 1 report.Shard.restarts;
  (match report.Shard.stats with
  | [ Json.Obj _ ] -> ()
  | _ -> Alcotest.fail "expected one stats object");
  Alcotest.(check int) "no dropped lines" 0 report.Shard.lines_dropped

(* A worker that always dies exhausts its budget and is quarantined:
   the run completes Degraded instead of failing, and a healthy sibling
   still reports. *)
let test_supervise_quarantine () =
  let crash = {|exit 2|} in
  let healthy = {|echo '{"ev": "done", "stats": {"shard": 1, "cpu_s": 0.0}}'|} in
  let report =
    Shard.supervise ~max_restarts:1 [ sh_proc ~shard:0 crash; sh_proc ~shard:1 healthy ]
  in
  Alcotest.(check bool) "degraded names shard 0" true
    (report.Shard.health = Shard.Degraded [ 0 ]);
  Alcotest.(check int) "budget exhausted" 1 report.Shard.restarts;
  (match report.Shard.stats with
  | [ Json.Null; Json.Obj _ ] -> ()
  | _ -> Alcotest.fail "quarantined slot must report Null, healthy slot its stats")

(* A silent worker trips the progress deadline, is killed, and the
   relaunch (which exits promptly) completes the run. *)
let test_supervise_hang () =
  let script =
    {|if [ "${SWPM_CHAOS_INCARNATION:-0}" = "0" ]; then
        sleep 30
      else
        echo '{"ev": "done", "stats": {"shard": 0, "cpu_s": 0.0}}'
      fi|}
  in
  let t0 = Unix.gettimeofday () in
  let report = Shard.supervise ~max_restarts:1 ~hang_timeout_s:0.4 [ sh_proc ~shard:0 script ] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "completed after hang-kill" true
    (report.Shard.health = Shard.Completed);
  Alcotest.(check int) "hang cost one restart" 1 report.Shard.restarts;
  Alcotest.(check bool) "did not wait out the sleep" true (elapsed < 10.0)

(* Sequence gaps on the incumbent stream are counted as dropped lines;
   duplicated sequence numbers are not double-counted. *)
let test_supervise_lines_dropped () =
  let script =
    {|echo '{"ev": "incumbent", "cycles": 100.5, "seq": 0}'
      echo '{"ev": "incumbent", "cycles": 90.5, "seq": 3}'
      echo '{"ev": "incumbent", "cycles": 90.5, "seq": 3}'
      echo '{"ev": "hb", "seq": 4}'
      echo '{"ev": "done", "stats": {"shard": 0, "cpu_s": 0.0}}'|}
  in
  let report = Shard.supervise ~max_restarts:0 [ sh_proc ~shard:0 script ] in
  Alcotest.(check bool) "completed" true (report.Shard.health = Shard.Completed);
  Alcotest.(check int) "two lines lost in the gap" 2 report.Shard.lines_dropped

(* A line lost after the last incumbent shows as the gap before the
   numbered done line. *)
let test_supervise_drop_before_done () =
  let script =
    {|echo '{"ev": "incumbent", "cycles": 100.5, "seq": 0}'
      echo '{"ev": "done", "seq": 2, "stats": {"shard": 0, "cpu_s": 0.0}}'|}
  in
  let report = Shard.supervise ~max_restarts:0 [ sh_proc ~shard:0 script ] in
  Alcotest.(check bool) "completed" true (report.Shard.health = Shard.Completed);
  Alcotest.(check int) "the line before done" 1 report.Shard.lines_dropped

(* Without a restart budget a dead worker is quarantined at once: the
   run reports it degraded, never relaunches it, and keeps no stats. *)
let test_zero_restarts_fail_fast () =
  let report = Shard.supervise ~max_restarts:0 [ sh_proc ~shard:0 {|exit 7|} ] in
  Alcotest.(check bool) "dead shard quarantined" true
    (report.Shard.health = Shard.Degraded [ 0 ]);
  Alcotest.(check int) "no relaunch" 0 report.Shard.restarts;
  Alcotest.(check bool) "no stats" true (report.Shard.stats = [ Json.Null ])

let tests =
  ( "chaos",
    [
      Alcotest.test_case "chaos spec grammar round-trips" `Quick test_spec_roundtrip;
      Alcotest.test_case "chaos env transport" `Quick test_env_transport;
      Alcotest.test_case "arming rules: one-shot vs sticky" `Quick test_arming_rules;
      Alcotest.test_case "generate is seed-deterministic" `Quick test_generate_deterministic;
      Alcotest.test_case "unreadable journals are typed" `Quick test_unreadable_journals;
      Alcotest.test_case "corrupt_file modes" `Quick test_corrupt_file_modes;
      QCheck_alcotest.to_alcotest prop_merge_first_written_wins;
      Alcotest.test_case "supervisor relaunches a crashed worker" `Quick test_supervise_restart;
      Alcotest.test_case "exhausted budget quarantines the shard" `Quick
        test_supervise_quarantine;
      Alcotest.test_case "hung worker is killed and relaunched" `Quick test_supervise_hang;
      Alcotest.test_case "sequence gaps count dropped lines" `Quick
        test_supervise_lines_dropped;
      Alcotest.test_case "a drop before the done line is counted" `Quick
        test_supervise_drop_before_done;
      Alcotest.test_case "zero restarts stays fail-fast" `Quick test_zero_restarts_fail_fast;
    ] )
