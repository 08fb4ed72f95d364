open Sw_oracle

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check int) "size 0" 0 (Heap.size h);
  Alcotest.(check bool) "pop None" true (Heap.pop h = None)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let popped = List.init 3 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] popped

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ 1; 2; 3; 4 ];
  let popped = List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order among equal priorities" [ 1; 2; 3; 4 ] popped

let test_peek () =
  let h = Heap.create () in
  Heap.push h 5.0 "x";
  Heap.push h 2.0 "y";
  (match Heap.peek h with
  | Some (p, v) ->
      Alcotest.(check string) "peek min" "y" v;
      Alcotest.(check (float 0.0)) "peek prio" 2.0 p
  | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check int) "peek does not pop" 2 (Heap.size h)

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 10.0 10;
  Heap.push h 1.0 1;
  (match Heap.pop h with Some (_, v) -> Alcotest.(check int) "min first" 1 v | None -> Alcotest.fail "pop");
  Heap.push h 0.5 0;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "new min surfaces" 0 v
  | None -> Alcotest.fail "pop");
  match Heap.pop h with Some (_, v) -> Alcotest.(check int) "rest" 10 v | None -> Alcotest.fail "pop"

let test_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_negative_priorities () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 0.0; -5.0; 3.0; -1.0 ];
  let popped = List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> nan) in
  Alcotest.(check (list (float 0.0))) "negatives sort first" [ -5.0; -1.0; 0.0; 3.0 ] popped

let prop_heapsort =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list (float_range (-1e6) 1e6))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h x x) xs;
      let out = List.filter_map (fun _ -> Option.map snd (Heap.pop h)) xs in
      out = List.stable_sort compare xs)

let prop_fifo_among_equal_keys =
  (* The documented tie-break: among entries with equal priority, pop
     returns them in global push order, even when pops interleave with
     the pushes.  Priorities are drawn from a 3-value set so ties
     dominate; each value carries its push index. *)
  QCheck.Test.make ~name:"equal priorities pop in global push order" ~count:300
    QCheck.(small_list (pair (oneofl [ 1.0; 2.0; 3.0 ]) bool))
    (fun ops ->
      let h = Heap.create () in
      let popped = ref [] in
      List.iteri
        (fun i (prio, also_pop) ->
          Heap.push h prio i;
          if also_pop then
            match Heap.pop h with Some pv -> popped := pv :: !popped | None -> ())
        ops;
      let rec drain () =
        match Heap.pop h with
        | Some pv ->
            popped := pv :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      (* within each priority class, push indices must appear ascending *)
      let seen : (float, int) Hashtbl.t = Hashtbl.create 4 in
      List.for_all
        (fun (prio, idx) ->
          let last = Option.value (Hashtbl.find_opt seen prio) ~default:(-1) in
          Hashtbl.replace seen prio idx;
          idx > last)
        (List.rev !popped))

let prop_size_tracks =
  QCheck.Test.make ~name:"size tracks pushes and pops" ~count:200
    QCheck.(small_list (float_range 0.0 100.0))
    (fun xs ->
      let h = Heap.create () in
      List.iteri (fun i x -> Heap.push h x i) xs;
      let n = List.length xs in
      let ok_push = Heap.size h = n in
      let rec drain k = if Heap.pop h = None then k else drain (k + 1) in
      ok_push && drain 0 = n)

let tests =
  ( "heap",
    [
      Alcotest.test_case "empty heap" `Quick test_empty;
      Alcotest.test_case "orders by priority" `Quick test_ordering;
      Alcotest.test_case "fifo on ties" `Quick test_fifo_ties;
      Alcotest.test_case "peek" `Quick test_peek;
      Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "negative priorities" `Quick test_negative_priorities;
      QCheck_alcotest.to_alcotest prop_heapsort;
      QCheck_alcotest.to_alcotest prop_fifo_among_equal_keys;
      QCheck_alcotest.to_alcotest prop_size_tracks;
    ] )
