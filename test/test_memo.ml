(* The bounded memo table behind every pure compile-time cache:
   capacity, FIFO eviction, first-insert-wins under a domain race, and
   the counters. *)

module M = Sw_util.Memo.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Entries among keys [1..n] that the table still holds. *)
let resident t n = List.length (List.filter (fun k -> M.find t k <> None) (List.init n succ))

let test_capacity_never_exceeded () =
  let t = M.create 3 in
  for k = 1 to 50 do
    ignore (M.add t k (k * 10));
    Alcotest.(check int) (Printf.sprintf "resident after %d adds" k) (min k 3) (resident t k)
  done;
  let t0 = M.create 0 in
  ignore (M.add t0 1 1);
  ignore (M.add t0 2 2);
  Alcotest.(check int) "capacity below 1 holds one entry" 1 (resident t0 2)

let test_oldest_evicted_first () =
  let t = M.create 3 in
  List.iter (fun k -> ignore (M.add t k (k * 10))) [ 1; 2; 3 ];
  (* a repeated add keeps the first value and does not refresh the key *)
  Alcotest.(check int) "repeated add returns the stored value" 10 (M.add t 1 99);
  ignore (M.add t 4 40);
  Alcotest.(check (option int)) "oldest key gone" None (M.find t 1);
  Alcotest.(check (list (option int)))
    "younger keys kept"
    [ Some 20; Some 30; Some 40 ]
    (List.map (M.find t) [ 2; 3; 4 ]);
  ignore (M.add t 5 50);
  Alcotest.(check (option int)) "next oldest gone" None (M.find t 2)

let test_race_returns_one_value () =
  let t : int ref M.t = M.create 4 in
  let pool = Sw_util.Pool.create ~size:2 () in
  let got =
    Sw_util.Pool.map pool
      (fun i ->
        M.memo t 7 (fun () ->
            for _ = 1 to 2_000 do
              Domain.cpu_relax ()
            done;
            ref i))
      (List.init 64 Fun.id)
  in
  let first = List.hd got in
  List.iteri
    (fun i v ->
      if not (v == first) then Alcotest.failf "caller %d got a value other than the stored one" i)
    got;
  match M.find t 7 with
  | Some v -> Alcotest.(check bool) "the stored value" true (v == first)
  | None -> Alcotest.fail "key missing"

let test_stats_and_clear () =
  let t = M.create 8 in
  Alcotest.(check (pair int int)) "fresh" (0, 0) (M.stats t);
  ignore (M.find t 1);
  ignore (M.add t 1 10);
  Alcotest.(check (pair int int)) "find misses, add is not counted" (0, 1) (M.stats t);
  ignore (M.find t 1);
  Alcotest.(check int) "memo hit skips compute" 10 (M.memo t 1 (fun () -> Alcotest.fail "computed"));
  Alcotest.(check int) "memo miss computes" 20 (M.memo t 2 (fun () -> 20));
  Alcotest.(check (pair int int)) "two hits, two misses" (2, 2) (M.stats t);
  M.clear t;
  Alcotest.(check (pair int int)) "clear zeroes counters" (0, 0) (M.stats t);
  Alcotest.(check int) "clear drops entries" 0 (resident t 2)

let tests =
  ( "memo",
    [
      Alcotest.test_case "capacity never exceeded" `Quick test_capacity_never_exceeded;
      Alcotest.test_case "oldest key evicted first" `Quick test_oldest_evicted_first;
      Alcotest.test_case "racing domains get one stored value" `Quick test_race_returns_one_value;
      Alcotest.test_case "stats and clear" `Quick test_stats_and_clear;
    ] )
