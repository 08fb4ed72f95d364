module Make (K : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (K)

  type 'v t = {
    lock : Mutex.t;
    tbl : 'v T.t;
    order : K.t Queue.t;  (* insertion order, oldest first *)
    capacity : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create capacity =
    let capacity = max 1 capacity in
    {
      lock = Mutex.create ();
      tbl = T.create (min capacity 64);
      order = Queue.create ();
      capacity;
      hits = 0;
      misses = 0;
    }

  (* [find] and [add] run on every lookup of the hot paths, so they take
     the lock inline instead of through [Mutex.protect]'s closure *)
  let find t k =
    Mutex.lock t.lock;
    match T.find_opt t.tbl k with
    | found ->
        (match found with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
        Mutex.unlock t.lock;
        found
    | exception e ->
        Mutex.unlock t.lock;
        raise e

  let add t k v =
    Mutex.lock t.lock;
    match
      match T.find_opt t.tbl k with
      | Some stored -> stored
      | None ->
          if Queue.length t.order >= t.capacity then T.remove t.tbl (Queue.pop t.order);
          Queue.push k t.order;
          T.add t.tbl k v;
          v
    with
    | stored ->
        Mutex.unlock t.lock;
        stored
    | exception e ->
        Mutex.unlock t.lock;
        raise e

  let memo t k compute = match find t k with Some v -> v | None -> add t k (compute ())

  let clear t =
    Mutex.protect t.lock (fun () ->
        T.reset t.tbl;
        Queue.clear t.order;
        t.hits <- 0;
        t.misses <- 0)

  let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))
end
