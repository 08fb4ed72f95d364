(* The journal line codec.  Journals outlive the build that wrote them
   (checkpoints, shard journals of a relaunched worker), so the codec is
   pinned to the Printf/Scanf formats earlier builds used, kept verbatim
   below as the oracle: the encoder writes their bytes, the decoder
   reads what Scanf read — on encoder output, on every torn prefix, on
   non-finite floats and on mutated lines — and a fixture journal
   written by such a build replays entry for entry through both
   [Backend.journal] and [Backend.journal_read]. *)

module Backend = Sw_backend.Backend
module Kernel = Sw_swacc.Kernel

let config = Sw_sim.Config.default Sw_arch.Params.default

(* ------------------------------------------------------------------ *)
(* The oracle: the formats journals were written and read with *)

let oracle_header_fmt : _ format6 = "{\"journal\": \"swpm\", \"version\": 1, \"config\": %S}"

let oracle_line_fmt : _ format6 =
  "{\"kernel\": %S, \"elems\": %d, \"vw\": %d, \"grain\": %d, \"unroll\": %d, \
   \"cpes\": %d, \"db\": %B, \"status\": %S, \"cycles\": %.17g, \
   \"machine_us\": %.17g, \"events\": %d, \"backend\": %S, \"reason\": %S}"

let oracle_scan_fmt : _ format6 =
  "{\"kernel\": %S, \"elems\": %d, \"vw\": %d, \"grain\": %d, \"unroll\": %d, \
   \"cpes\": %d, \"db\": %B, \"status\": %S, \"cycles\": %f, \
   \"machine_us\": %f, \"events\": %d, \"backend\": %S, \"reason\": %S}"

let oracle_line (key : Backend.journal_key) entry =
  let v = key.Backend.jk_variant in
  let status, cycles, machine_us, events, jbackend, reason =
    match entry with
    | Backend.Journal_ok { cycles; machine_us; machine_events } ->
        ("ok", cycles, machine_us, machine_events, "", "")
    | Backend.Journal_infeasible { jbackend; jreason } ->
        ("infeasible", 0.0, 0.0, 0, jbackend, jreason)
    | Backend.Journal_cutoff { at } -> ("cutoff", at, 0.0, 0, "", "")
  in
  Printf.sprintf oracle_line_fmt key.Backend.jk_kernel key.Backend.jk_elems key.Backend.jk_vw
    v.Kernel.grain v.Kernel.unroll v.Kernel.active_cpes v.Kernel.double_buffer status cycles
    machine_us events jbackend reason

let oracle_parse line =
  try
    Scanf.sscanf line oracle_scan_fmt
      (fun kernel elems vw grain unroll cpes db status cycles machine_us events jbackend jreason ->
        let key =
          {
            Backend.jk_kernel = kernel;
            jk_elems = elems;
            jk_vw = vw;
            jk_variant = { Kernel.grain; unroll; active_cpes = cpes; double_buffer = db };
          }
        in
        match status with
        | "ok" -> Some (key, Backend.Journal_ok { cycles; machine_us; machine_events = events })
        | "infeasible" -> Some (key, Backend.Journal_infeasible { jbackend; jreason })
        | "cutoff" -> Some (key, Backend.Journal_cutoff { at = cycles })
        | _ -> None)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

(* floats compared by bits: -0 is not 0, and nan must match itself *)
let canon =
  Option.map (fun (key, entry) ->
      ( key,
        match entry with
        | Backend.Journal_ok { cycles; machine_us; machine_events } ->
            `Ok (Int64.bits_of_float cycles, Int64.bits_of_float machine_us, machine_events)
        | Backend.Journal_infeasible { jbackend; jreason } -> `Infeasible (jbackend, jreason)
        | Backend.Journal_cutoff { at } -> `Cutoff (Int64.bits_of_float at) ))

let show = function
  | None -> "None"
  | Some (key, entry) -> "Some " ^ oracle_line key entry

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_string =
  let open QCheck.Gen in
  let escapes = oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\000'; '\127'; '\255'; '\'' ] in
  string_size ~gen:(frequency [ (6, printable); (2, map Char.chr (int_bound 255)); (2, escapes) ])
    (int_bound 24)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (5, small_nat);
        (2, int);
        (1, oneofl [ 0; -1; 1; min_int; max_int; max_int - 1; min_int + 1 ]);
      ])

(* finite doubles: ordinary, integral, extreme, subnormal, signed zero,
   and arbitrary bit patterns *)
let gen_finite =
  QCheck.Gen.(
    frequency
      [
        (3, float_range 0.0 1e7);
        (2, map float_of_int small_nat);
        ( 1,
          oneofl
            [ 0.0; -0.0; max_float; -.max_float; min_float; 5e-324; -5e-324; 1e300; 1e-300; 0.1 ] );
        (1, map (fun n -> Int64.float_of_bits (Int64.of_int n)) (int_bound 1_000_000));
        ( 3,
          map
            (fun (hi, lo) ->
              let x =
                Int64.float_of_bits
                  (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
              in
              if Float.is_finite x then x else 1.5)
            (pair (int_bound 0xffffffff) (int_bound 0xffffffff)) );
      ])

let gen_key =
  QCheck.Gen.(
    map
      (fun (kernel, (elems, vw), (grain, unroll, cpes), db) ->
        {
          Backend.jk_kernel = kernel;
          jk_elems = elems;
          jk_vw = vw;
          jk_variant = { Kernel.grain; unroll; active_cpes = cpes; double_buffer = db };
        })
      (quad
         (frequency [ (3, oneofl [ "vector-add"; "kmeans"; "cfd" ]); (1, gen_string) ])
         (pair gen_int gen_int) (triple gen_int gen_int gen_int) bool))

let gen_entry_with gen_float =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun (cycles, machine_us, machine_events) ->
              Backend.Journal_ok { cycles; machine_us; machine_events })
            (triple gen_float gen_float gen_int) );
        ( 1,
          map
            (fun (jbackend, jreason) -> Backend.Journal_infeasible { jbackend; jreason })
            (pair gen_string gen_string) );
        (1, map (fun at -> Backend.Journal_cutoff { at }) gen_float);
      ])

let arb_pair gen_float =
  QCheck.make
    ~print:(fun (k, e) -> oracle_line k e)
    QCheck.Gen.(pair gen_key (gen_entry_with gen_float))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_encoder_is_printf =
  QCheck.Test.make ~count:1000 ~name:"encoder writes the Printf format's bytes"
    (arb_pair gen_finite) (fun (key, entry) ->
      let line = Backend.journal_entry_line key entry in
      line = oracle_line key entry || QCheck.Test.fail_reportf "%S" line)

let prop_decoder_is_scanf =
  QCheck.Test.make ~count:1000 ~name:"decoder reads encoder output as Scanf does"
    (arb_pair gen_finite) (fun (key, entry) ->
      let line = Backend.journal_entry_line key entry in
      let got = canon (Backend.journal_parse_line line) in
      (got = canon (oracle_parse line) && got = canon (Some (key, entry)))
      || QCheck.Test.fail_reportf "%S decoded to %s" line (show (Backend.journal_parse_line line)))

let prop_prefixes_rejected =
  QCheck.Test.make ~count:200 ~name:"every strict prefix (a torn tail) is rejected"
    (arb_pair gen_finite) (fun (key, entry) ->
      let line = Backend.journal_entry_line key entry in
      let torn = List.init (String.length line) (fun n -> String.sub line 0 n) in
      List.for_all
        (fun prefix ->
          (Backend.journal_parse_line prefix = None && oracle_parse prefix = None)
          || QCheck.Test.fail_reportf "prefix %S accepted" prefix)
        torn)

let gen_nonfinite =
  QCheck.Gen.(
    let special = oneofl [ infinity; neg_infinity; nan; -.nan ] in
    map
      (fun ((key, events), (cycles, machine_us), which) ->
        let cycles, machine_us =
          match which with 0 -> (cycles, 1.0) | 1 -> (1.0, machine_us) | _ -> (cycles, machine_us)
        in
        (key, Backend.Journal_ok { cycles; machine_us; machine_events = events }))
      (triple (pair gen_key gen_int) (pair special special) (int_bound 2)))

let prop_nonfinite_rejected =
  QCheck.Test.make ~count:200 ~name:"inf/nan cycles or machine_us rejected as Scanf's %f does"
    (QCheck.make ~print:(fun (k, e) -> oracle_line k e) gen_nonfinite)
    (fun (key, entry) ->
      let line = Backend.journal_entry_line key entry in
      (line = oracle_line key entry
      && Backend.journal_parse_line line = None
      && oracle_parse line = None)
      || QCheck.Test.fail_reportf "%S" line)

(* Damaged lines: byte edits biased towards the characters the grammar
   turns on, and junk after the closing brace.  Whatever Scanf made of
   them, the decoder makes too. *)
let gen_mutated =
  QCheck.Gen.(
    let interesting =
      oneofl
        [ '"'; '\\'; ' '; '\t'; '\r'; '\n'; ','; ':'; '}'; '{'; '.'; 'e'; 'E'; '+'; '-'; '_';
          '0'; '5'; '9'; 'x'; 'a'; 'f'; 't'; 'n'; 'i' ]
    in
    let gen_char = frequency [ (4, interesting); (1, map Char.chr (int_bound 255)) ] in
    let edit line =
      let n = String.length line in
      frequency
        [
          (3, map2 (fun i ch -> String.mapi (fun j c -> if i = j then ch else c) line) (int_bound (n - 1)) gen_char);
          (2, map (fun i -> String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)) (int_bound (n - 1)));
          (2, map2 (fun i ch -> String.sub line 0 i ^ String.make 1 ch ^ String.sub line i (n - i)) (int_bound n) gen_char);
          (1, map (fun junk -> line ^ junk) (string_size ~gen:gen_char (int_range 1 6)));
        ]
    in
    pair gen_key (gen_entry_with gen_finite) >>= fun (key, entry) ->
    let line = Backend.journal_entry_line key entry in
    edit line >>= fun once -> frequency [ (3, return once); (1, edit once) ])

let prop_mutations_match_scanf =
  QCheck.Test.make ~count:3000 ~name:"damaged lines decode exactly as under Scanf"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mutated)
    (fun line ->
      canon (Backend.journal_parse_line line) = canon (oracle_parse line)
      || QCheck.Test.fail_reportf "decoder %s, Scanf %s"
           (show (Backend.journal_parse_line line))
           (show (oracle_parse line)))

let test_header_bytes () =
  Alcotest.(check string)
    "header" (Printf.sprintf oracle_header_fmt (Backend.config_digest config))
    (Backend.journal_header_line config)

(* A few hand-picked spellings Scanf accepts that the encoder never
   writes: blanks around fields, signs, '_' separators, escapes, and
   trailing bytes after the closing brace. *)
let test_scanf_spellings () =
  let lines =
    [
      {|{"kernel":"k","elems":+1_000,"vw":-0,"grain":1,"unroll":1,"cpes":64,"db":true,"status":"ok","cycles":.5,"machine_us":1.,"events":0,"backend":"","reason":""}|};
      "{\"kernel\": \t\"k\\x41\\065\\\r\n   x\", \"elems\": 1, \"vw\": 1, \"grain\": 1, \"unroll\": 1, \"cpes\": 1, \"db\": false, \"status\": \"infeasible\", \"cycles\": 1e5, \"machine_us\": -1_0.2_5E-0_1, \"events\": 1, \"backend\": \"b\", \"reason\": \"r\"} trailing";
      {|{"kernel": "k", "elems": 4611686018427387904, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "ok", "cycles": 1, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "k", "elems": -4611686018427387904, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "ok", "cycles": 1, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "\256", "elems": 1, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "ok", "cycles": 1, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "k", "elems": 1, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": tru, "status": "ok", "cycles": 1, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "k", "elems": 1, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "done", "cycles": 1, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "k", "elems": 1, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "ok", "cycles": 1e, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
      {|{"kernel": "k", "elems": 1, "vw": 1, "grain": 1, "unroll": 1, "cpes": 1, "db": true, "status": "ok", "cycles": -inf, "machine_us": 1, "events": 1, "backend": "", "reason": ""}|};
    ]
  in
  let accepted = [ true; true; false; true; false; false; false; false; false ] in
  List.iter2
    (fun line ok ->
      let oracle = oracle_parse line in
      Alcotest.(check bool) ("Scanf oracle: " ^ line) ok (oracle <> None);
      Alcotest.(check bool) ("decoder = Scanf: " ^ line) true
        (canon (Backend.journal_parse_line line) = canon oracle))
    lines accepted

(* ------------------------------------------------------------------ *)
(* Cross-build fixture *)

(* fixtures/journal_v1.journal was written by a build whose codec was
   the Printf format above: seven complete entry lines (one with an
   infinite cycle count and one with a NaN machine time, which that
   build's Scanf never read back) and a final line torn mid-key.  Its
   header binds it to the default configuration. *)
let fixture =
  Filename.concat (if Sys.file_exists "fixtures" then "fixtures" else Filename.concat "test" "fixtures")
    "journal_v1.journal"

let kernel = (Sw_workloads.Registry.find_exn "vector-add").Sw_workloads.Registry.build ~scale:0.1

let variant grain unroll db = { Kernel.grain; unroll; active_cpes = 64; double_buffer = db }

let key grain unroll db = Backend.journal_key_of kernel (variant grain unroll db)

let ok cycles machine_us machine_events = Backend.Journal_ok { cycles; machine_us; machine_events }

let replayable =
  [
    (key 32 1 false, ok 1140894.5999990494 12.25 930);
    (key 32 2 true, ok 18463.25 0.1 0);
    ( key 4096 8 false,
      Backend.Journal_infeasible
        {
          jbackend = "model";
          jreason = "SPM overflow: needs \"65536\" B > 64 KiB \\ tab\there, \xc2\xb5s";
        } );
    (key 64 2 false, ok 1e300 5e-324 123456789);
    (key 128 4 true, Backend.Journal_infeasible { jbackend = "sim"; jreason = "line one\nline two\r\x7f" });
    (key 256 16 true, ok 42.0 0.0 max_int);
  ]

(* journaled by the old build, but with a non-finite float: never replayed *)
let unreplayable = [ variant 64 1 false; variant 64 4 true ]

let torn = variant 512 2 false

let check_entries msg expected got =
  Alcotest.(check int) (msg ^ ": count") (List.length expected) (List.length got);
  List.iter2
    (fun e g ->
      if canon (Some e) <> canon (Some g) then
        Alcotest.failf "%s: expected %s, got %s" msg (show (Some e)) (show (Some g)))
    expected got

let test_fixture_read () =
  match Backend.journal_read ~config fixture with
  | Ok entries -> check_entries "journal_read" replayable entries
  | Error issue -> Alcotest.failf "fixture unreadable: %s" (Backend.journal_issue_string issue)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* an inner backend that prices a variant at its grain, logging calls *)
let stub calls =
  let module Stub = struct
    let name = "stub"

    let description = "prices a variant at its grain"

    let assess ?cutoff:_ ?event_budget:_ _ _ (v : Kernel.variant) =
      calls := v :: !calls;
      Backend.Assessed
        { Backend.cycles = float_of_int v.Kernel.grain; cost = Backend.zero_cost; breakdown = None }
  end in
  (module Stub : Backend.S)

let test_fixture_resume () =
  let original = read_all fixture in
  let path = Filename.temp_file "swpm_journal_fixture" ".journal" in
  Out_channel.with_open_bin path (fun oc -> output_string oc original);
  let calls = ref [] in
  let j = Backend.journal ~path config (stub calls) in
  let b = Backend.journaled j in
  (* every replayable entry is a hit, answered as journaled *)
  List.iter
    (fun ((k : Backend.journal_key), entry) ->
      match (Backend.assess b config kernel k.Backend.jk_variant, entry) with
      | Ok v, Backend.Journal_ok { cycles; _ } ->
          Alcotest.(check int64) "replayed cycles bit-exact" (Int64.bits_of_float cycles)
            (Int64.bits_of_float v.Backend.cycles)
      | Error e, Backend.Journal_infeasible { jbackend; jreason } ->
          Alcotest.(check (pair string string)) "replayed verdict" (jbackend, jreason)
            (e.Backend.backend, e.Backend.reason)
      | _ -> Alcotest.failf "%s replayed as the wrong verdict" (show (Some (k, entry))))
    replayable;
  Alcotest.(check int) "hits" (List.length replayable) (Backend.journal_hits j);
  Alcotest.(check int) "no inner calls for replayed points" 0 (List.length !calls);
  (* the non-finite and torn points are re-assessed and appended *)
  let fresh = unreplayable @ [ torn ] in
  List.iter (fun v -> ignore (Backend.assess b config kernel v)) fresh;
  Alcotest.(check int) "misses" (List.length fresh) (Backend.journal_misses j);
  Backend.journal_close j;
  (* truncate-and-append: the torn tail is gone, the complete lines are
     byte-for-byte the old build's, the new lines follow *)
  let kept = String.sub original 0 (String.rindex original '\n' + 1) in
  let appended =
    String.concat ""
      (List.map
         (fun v ->
           Backend.journal_entry_line (Backend.journal_key_of kernel v)
             (ok (float_of_int v.Kernel.grain) 0.0 0)
           ^ "\n")
         fresh)
  in
  Alcotest.(check string) "file after resume" (kept ^ appended) (read_all path);
  (match Backend.journal_read ~config path with
  | Ok entries ->
      check_entries "reread" (replayable @ List.map (fun v -> (Backend.journal_key_of kernel v, ok (float_of_int v.Kernel.grain) 0.0 0)) fresh) entries
  | Error issue -> Alcotest.failf "resumed journal: %s" (Backend.journal_issue_string issue));
  Sys.remove path

(* A kill between the header and its newline leaves an unterminated
   header as the only line.  Resuming rewrites it rather than cutting
   the file to nothing and appending entries without a header. *)
let test_torn_header () =
  let path = Filename.temp_file "swpm_journal_torn_header" ".journal" in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Backend.journal_header_line config));
  let j = Backend.journal ~path config (stub (ref [])) in
  ignore (Backend.assess (Backend.journaled j) config kernel torn);
  Backend.journal_close j;
  (match Backend.journal_read ~config path with
  | Ok entries ->
      check_entries "after resume"
        [ (Backend.journal_key_of kernel torn, ok (float_of_int torn.Kernel.grain) 0.0 0) ]
        entries
  | Error issue -> Alcotest.failf "resumed journal: %s" (Backend.journal_issue_string issue));
  Sys.remove path

let tests =
  ( "journal",
    [
      Alcotest.test_case "header bytes match the Printf format" `Quick test_header_bytes;
      QCheck_alcotest.to_alcotest prop_encoder_is_printf;
      QCheck_alcotest.to_alcotest prop_decoder_is_scanf;
      QCheck_alcotest.to_alcotest prop_prefixes_rejected;
      QCheck_alcotest.to_alcotest prop_nonfinite_rejected;
      QCheck_alcotest.to_alcotest prop_mutations_match_scanf;
      Alcotest.test_case "Scanf spellings the encoder never writes" `Quick test_scanf_spellings;
      Alcotest.test_case "fixture replays through journal_read" `Quick test_fixture_read;
      Alcotest.test_case "fixture resumes through Backend.journal" `Quick test_fixture_resume;
      Alcotest.test_case "a torn header is rewritten on resume" `Quick test_torn_header;
    ] )
