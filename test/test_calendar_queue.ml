(* The calendar queue is the simulator's event queue; its one contract
   is to pop in exactly {!Sw_oracle.Heap}'s order — (time, global push
   sequence) — on any interleaving of pushes and pops, timestamp ties
   included.  The qcheck properties here drive both structures through
   the same random schedules and demand identical pop streams. *)

open Sw_util
open Sw_oracle

let test_empty () =
  let q = Calendar_queue.create () in
  Alcotest.(check bool) "empty" true (Calendar_queue.is_empty q);
  Alcotest.(check int) "size 0" 0 (Calendar_queue.size q);
  Alcotest.(check bool) "pop None" true (Calendar_queue.pop q = None);
  Alcotest.(check bool) "peek None" true (Calendar_queue.peek q = None)

let test_ordering () =
  let q = Calendar_queue.create () in
  List.iter (fun (t, c) -> Calendar_queue.push q t c) [ (3.0, 3); (1.0, 1); (2.0, 2) ];
  let popped =
    List.init 3 (fun _ -> match Calendar_queue.pop q with Some (_, c) -> c | None -> -1)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] popped

let test_fifo_ties () =
  let q = Calendar_queue.create () in
  List.iter (fun c -> Calendar_queue.push q 1.0 c) [ 1; 2; 3; 4 ];
  let popped =
    List.init 4 (fun _ -> match Calendar_queue.pop q with Some (_, c) -> c | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order among equal times" [ 1; 2; 3; 4 ] popped

let test_buffer_api () =
  let q = Calendar_queue.create () in
  let buf = [| 0.0 |] in
  buf.(0) <- 7.5;
  Calendar_queue.push_ref q buf 42;
  buf.(0) <- 2.5;
  Calendar_queue.push_ref q buf 7;
  let c = Calendar_queue.peek_into q buf in
  Alcotest.(check int) "peek code" 7 c;
  Alcotest.(check (float 0.0)) "peek time" 2.5 buf.(0);
  Alcotest.(check int) "peek keeps size" 2 (Calendar_queue.size q);
  let c = Calendar_queue.pop_into q buf in
  Alcotest.(check int) "pop code" 7 c;
  Alcotest.(check (float 0.0)) "pop time" 2.5 buf.(0);
  let c = Calendar_queue.pop_into q buf in
  Alcotest.(check int) "second pop" 42 c;
  Alcotest.(check (float 0.0)) "second time" 7.5 buf.(0);
  Alcotest.(check int) "drained pop" (-1) (Calendar_queue.pop_into q buf)

let test_clear () =
  let q = Calendar_queue.create () in
  Calendar_queue.push q 1.0 1;
  Calendar_queue.push q 2.0 2;
  Calendar_queue.clear q;
  Alcotest.(check bool) "cleared" true (Calendar_queue.is_empty q);
  (* replays after a clear order like a fresh queue (seq reset) *)
  Calendar_queue.push q 5.0 10;
  Calendar_queue.push q 5.0 11;
  Alcotest.(check bool) "fifo after clear" true (Calendar_queue.pop q = Some (5.0, 10))

let test_rejects_non_finite () =
  let q = Calendar_queue.create () in
  (match Calendar_queue.push q nan 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument for NaN time");
  (match Calendar_queue.push q infinity 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument for infinite time");
  (* the rejected pushes must not leak arena slots or corrupt order *)
  Calendar_queue.push q 1.0 1;
  Alcotest.(check bool) "still works" true (Calendar_queue.pop q = Some (1.0, 1))

let test_rebuild_growth () =
  (* push far past the initial bucket count to force grow rebuilds,
     then drain to force shrink rebuilds; order must survive both *)
  let q = Calendar_queue.create ~capacity:4 () in
  let n = 500 in
  for i = 0 to n - 1 do
    Calendar_queue.push q (float_of_int ((i * 7919) mod 97)) i
  done;
  let last = ref neg_infinity in
  for _ = 1 to n do
    match Calendar_queue.pop q with
    | Some (t, _) ->
        Alcotest.(check bool) "non-decreasing" true (t >= !last);
        last := t
    | None -> Alcotest.fail "queue drained early"
  done;
  Alcotest.(check bool) "drained" true (Calendar_queue.is_empty q)

let test_simulation_shape () =
  (* the engine's shape: an advancing time frontier with pushes a
     bounded horizon ahead — exactly where calendar queues must not
     degrade or misorder *)
  let q = Calendar_queue.create () in
  let prng = Prng.create 42 in
  let clock = ref 0.0 in
  for i = 0 to 63 do
    Calendar_queue.push q 0.0 i
  done;
  let popped = ref 0 in
  let rec step () =
    match Calendar_queue.pop q with
    | None -> ()
    | Some (t, _) ->
        Alcotest.(check bool) "frontier advances" true (t >= !clock);
        clock := t;
        incr popped;
        if !popped < 5_000 then begin
          if Prng.float prng 1.0 < 0.9 then
            Calendar_queue.push q (t +. Prng.float prng 300.0) !popped;
          if Prng.float prng 1.0 < 0.3 then
            Calendar_queue.push q (t +. Prng.float prng 10.0) (- !popped);
          step ()
        end
  in
  step ()

(* --- qcheck equivalence against the Heap reference ---------------- *)

(* A schedule is a list of operations: [Push t] or [Pop].  Both
   structures execute it; the observed (time, code) pop streams must be
   identical.  Times are drawn from a small set so ties are common. *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> `Push t) (oneofl [ 0.0; 1.0; 1.5; 2.0; 2.0; 3.0; 10.0; 100.0 ]));
        (2, map (fun t -> `Push t) (float_bound_inclusive 50.0));
        (2, return `Pop);
      ])

let schedule_gen = QCheck.Gen.(list_size (int_range 0 400) op_gen)

let print_schedule ops =
  String.concat ";"
    (List.map (function `Push t -> Printf.sprintf "push %g" t | `Pop -> "pop") ops)

let run_schedule ops =
  let h = Heap.create () in
  let q = Calendar_queue.create () in
  let code = ref 0 in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | `Push t ->
          Heap.push h t !code;
          Calendar_queue.push q t !code;
          incr code
      | `Pop ->
          let a = Heap.pop h in
          let b = Calendar_queue.pop q in
          if a <> b then ok := false)
    ops;
  (* drain both: the survivors must agree too *)
  let rec drain () =
    let a = Heap.pop h in
    let b = Calendar_queue.pop q in
    if a <> b then ok := false;
    if a <> None || b <> None then drain ()
  in
  drain ();
  !ok

let prop_matches_heap =
  QCheck.Test.make ~name:"calendar queue pops exactly like the heap" ~count:500
    (QCheck.make ~print:print_schedule schedule_gen)
    run_schedule

let prop_matches_heap_monotone =
  (* discrete-event shape: pushes never go behind the last pop *)
  QCheck.Test.make ~name:"calendar queue matches heap on advancing frontiers" ~count:200
    QCheck.(pair small_int (small_list (pair (float_bound_inclusive 20.0) bool)))
    (fun (seed, deltas) ->
      let h = Heap.create () in
      let q = Calendar_queue.create () in
      let prng = Prng.create seed in
      let clock = ref 0.0 in
      let code = ref 0 in
      let ok = ref true in
      List.iter
        (fun (dt, tie) ->
          let t = if tie then !clock else !clock +. dt in
          Heap.push h t !code;
          Calendar_queue.push q t !code;
          incr code;
          if Prng.float prng 1.0 < 0.5 then begin
            let a = Heap.pop h in
            let b = Calendar_queue.pop q in
            if a <> b then ok := false;
            match a with Some (t, _) -> clock := t | None -> ()
          end)
        deltas;
      let rec drain () =
        let a = Heap.pop h in
        let b = Calendar_queue.pop q in
        if a <> b then ok := false;
        if a <> None || b <> None then drain ()
      in
      drain ();
      !ok)

let tests =
  ( "calendar-queue",
    [
      Alcotest.test_case "empty queue" `Quick test_empty;
      Alcotest.test_case "orders by time" `Quick test_ordering;
      Alcotest.test_case "fifo on ties" `Quick test_fifo_ties;
      Alcotest.test_case "allocation-free buffer API" `Quick test_buffer_api;
      Alcotest.test_case "clear resets sequence" `Quick test_clear;
      Alcotest.test_case "rejects non-finite times" `Quick test_rejects_non_finite;
      Alcotest.test_case "order survives rebuilds" `Quick test_rebuild_growth;
      Alcotest.test_case "simulation-shaped stream" `Quick test_simulation_shape;
      QCheck_alcotest.to_alcotest prop_matches_heap;
      QCheck_alcotest.to_alcotest prop_matches_heap_monotone;
    ] )
