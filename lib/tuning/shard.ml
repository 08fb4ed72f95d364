(* Sharded multi-process tuning: deterministic partition of a variant
   space across N worker processes, a line-delimited JSON control
   protocol over the workers' stdin/stdout pipes, and a supervising
   coordinator that rebroadcasts the global incumbent as a cutoff and
   relaunches dead or hung workers from their journals.

   Ground truth lives in the per-shard Backend.journal files: every
   message but the final Done line is advisory (a lost cutoff costs
   work, a lost incumbent costs pruning), and a worker summarizes its
   shard, journal replays included, only once finished — which is why
   it can be SIGKILLed and relaunched without the result moving a bit. *)

module Json = Sw_obs.Json

(* ------------------------------------------------------------------ *)
(* Assignment: a stable hash of the canonical variant key, so shard
   membership depends only on the point itself — never on enumeration
   order, OCaml version (Hashtbl.hash is not stable) or process. *)

let canonical_key (p : Space.point) =
  Printf.sprintf "g%d|u%d|db%b" p.Space.grain p.Space.unroll p.Space.double_buffer

(* FNV-1a, 64-bit: fixed constants, byte-at-a-time — stable across
   versions and architectures.  The shard is the hash's low 63 bits
   mod [shards], and the low 63 bits of a product mod 2^64 depend only
   on the low 63 bits of its factors, so the whole hash runs in native
   ints (arithmetic mod 2^63): no boxed [Int64] per byte.  The bytes
   are those of {!canonical_key}, fed without building the string. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L

let fnv_byte h c = (h lxor Char.code c) * 0x100000001b3

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h s.[i]
  done;
  !h

(* the bytes of [string_of_int n] *)
let fnv_int h n =
  (* digits of [n <= 0], most significant first (no overflow at min_int) *)
  let rec digits h n =
    let h = if n <= -10 then digits h (n / 10) else h in
    fnv_byte h (Char.unsafe_chr (Char.code '0' - (n mod 10)))
  in
  if n < 0 then digits (fnv_byte h '-') n else digits h (-n)

(* The key is hashed field by field, so a walk over the axes can hash
   each grain's prefix once and each unroll's once, not once per point. *)
let hash_grain grain = fnv_string (fnv_int (fnv_byte fnv_offset 'g') grain) "|u"

let shard_of ~shards h double_buffer =
  let h = fnv_string h (if double_buffer then "|dbtrue" else "|dbfalse") in
  (* the unsigned low 63 bits, as the 64-bit hash masked with max_int *)
  Int64.to_int (Int64.rem (Int64.logand (Int64.of_int h) Int64.max_int) (Int64.of_int shards))

let assign ~shards p =
  if shards < 1 then invalid_arg "Shard.assign: shards must be >= 1";
  shard_of ~shards (fnv_int (hash_grain p.Space.grain) p.Space.unroll) p.Space.double_buffer

let mine ~shard ~shards points =
  if shard < 0 || shard >= shards then invalid_arg "Shard.mine: shard out of range";
  List.filter (fun p -> assign ~shards p = shard) points

(* [Space.fold]'s order, hashing along the axes *)
let enumerate ~shard ~shards { Space.grains; unrolls; double_buffers } =
  if shard < 0 || shard >= shards then invalid_arg "Shard.enumerate: shard out of range";
  let fold f l acc = List.fold_left f acc l in
  List.rev
  @@ fold (fun acc grain ->
         let hg = hash_grain grain in
         fold (fun acc unroll ->
             let hu = fnv_int hg unroll in
             fold (fun acc double_buffer ->
                 if shard_of ~shards hu double_buffer = shard then
                   { Space.grain; unroll; double_buffer } :: acc
                 else acc)
               double_buffers acc)
           unrolls acc)
       grains []

(* ------------------------------------------------------------------ *)
(* Protocol: one JSON object per line.  Floats serialize through
   {!Sw_obs.Json.float_lit} (shortest exact round-trip), so a cutoff
   arrives bit-identical to the incumbent that produced it.

   Worker->coordinator lines (incumbents, heartbeats and the final done
   line) carry a per-worker sequence number from one shared counter, so
   the coordinator can *count* lost lines instead of merely tolerating
   them: a gap in the sequence is a dropped line, a repeat is a
   duplicate.  The done line takes the next number, so the gap before
   it counts drops after the last incumbent or heartbeat too.  Cutoffs
   stay unnumbered — they are pure advice. *)

type msg =
  | Incumbent of { cycles : float; seq : int }
      (** worker -> coordinator: local best improved *)
  | Heartbeat of { seq : int }
      (** worker -> coordinator: alive and searching *)
  | Cutoff of float  (** coordinator -> worker: global best so far *)
  | Done of { stats : Json.t; seq : int option }
      (** worker -> coordinator: search finished, stats attached *)

let encode = function
  | Incumbent { cycles; seq } ->
      Json.to_string
        (Json.Obj
           [ ("ev", Json.Str "incumbent"); ("cycles", Json.Float cycles); ("seq", Json.Int seq) ])
  | Heartbeat { seq } ->
      Json.to_string (Json.Obj [ ("ev", Json.Str "hb"); ("seq", Json.Int seq) ])
  | Cutoff c -> Json.to_string (Json.Obj [ ("ev", Json.Str "cutoff"); ("cycles", Json.Float c) ])
  | Done { stats; seq } ->
      let seq = match seq with Some s -> [ ("seq", Json.Int s) ] | None -> [] in
      Json.to_string (Json.Obj ((("ev", Json.Str "done") :: seq) @ [ ("stats", stats) ]))

let decode line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let cycles () = Option.bind (Json.member "cycles" j) Json.to_float in
      let seq () = Option.bind (Json.member "seq" j) Json.to_int in
      match Option.bind (Json.member "ev" j) Json.to_str with
      | Some "incumbent" -> (
          match (cycles (), seq ()) with
          | Some cycles, Some seq -> Some (Incumbent { cycles; seq })
          | _ -> None)
      | Some "hb" -> Option.map (fun seq -> Heartbeat { seq }) (seq ())
      | Some "cutoff" -> Option.map (fun c -> Cutoff c) (cycles ())
      | Some "done" -> Option.map (fun stats -> Done { stats; seq = seq () }) (Json.member "stats" j)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Shared low-level IO *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Split the buffered bytes into complete lines, keeping the unfinished
   tail buffered. *)
let take_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buf;
      Buffer.add_substring buf s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | old -> fun () -> ignore (Sys.signal Sys.sigpipe old)
  | exception (Invalid_argument _ | Sys_error _) -> fun () -> ()

(* ------------------------------------------------------------------ *)
(* Worker side: a Search.link over the process's own stdin/stdout.
   [current] drains whatever cutoff lines the coordinator has sent so
   far (non-blocking; the last one wins is the smallest, but take min
   anyway to be robust to reordering) — at most once per
   [drain_interval_s], since a drain is a [select] syscall and
   strategies poll once per point; [publish] writes an incumbent line.
   The coordinator vanishing mid-run is not fatal to the worker — its
   journal keeps every result for the next run.

   [current] doubles as the liveness channel: strategies poll it at
   least once per assessment, so emitting a numbered heartbeat line
   whenever [heartbeat_s] has elapsed turns "the search is advancing"
   into observable pipe traffic the supervisor can hold against a
   progress deadline.  [drop_every]/[dup_every] are chaos hooks: they
   consume/repeat sequence numbers exactly as a lossy transport would,
   which is what makes the dropped-line counter testable. *)

(* Cutoffs are advisory: one read up to this late costs verifications,
   and never prunes a point that beats the incumbent. *)
let drain_interval_s = 0.001

let worker_link ?(input = Unix.stdin) ?(output = Unix.stdout) ?(heartbeat_s = 0.25)
    ?drop_every ?dup_every () =
  (* the worker owns its process: a coordinator that died must surface
     as EPIPE (handled below), never as a fatal SIGPIPE *)
  ignore (ignore_sigpipe () : unit -> unit);
  let lock = Mutex.create () in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let remote = ref None in
  let closed = ref false in
  let seq = ref 0 in
  let sent = ref 0 in
  let last_hb = ref (Unix.gettimeofday ()) in
  let write_line line =
    try write_all output (line ^ "\n")
    with Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  in
  let drain () =
    let continue = ref (not !closed) in
    while !continue do
      match Unix.select [ input ] [] [] 0.0 with
      | [], _, _ -> continue := false
      | _ -> (
          match Unix.read input chunk 0 (Bytes.length chunk) with
          | 0 ->
              (* coordinator closed its end: keep the last cutoff *)
              closed := true;
              continue := false
          | n -> Buffer.add_subbytes buf chunk 0 n
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              continue := false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    List.iter
      (fun line ->
        match decode line with
        | Some (Cutoff c) -> (
            match !remote with
            | Some b when b <= c -> ()
            | _ -> remote := Some c)
        | Some (Incumbent _ | Heartbeat _ | Done _) | None -> ())
      (take_lines buf)
  in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let heartbeat now =
    if heartbeat_s > 0.0 && now -. !last_hb >= heartbeat_s then begin
      last_hb := now;
      write_line (encode (Heartbeat { seq = next_seq () }))
    end
  in
  let last_drain = ref neg_infinity in
  let current () =
    Mutex.protect lock (fun () ->
        let now = Unix.gettimeofday () in
        (* (a clock stepped backwards drains at once rather than never) *)
        if Float.abs (now -. !last_drain) >= drain_interval_s then begin
          last_drain := now;
          drain ()
        end;
        heartbeat now;
        !remote)
  in
  let publish cycles =
    Mutex.protect lock (fun () ->
        incr sent;
        let line = encode (Incumbent { cycles; seq = next_seq () }) in
        let dropped =
          match drop_every with Some k -> !sent mod k = 0 | None -> false
        in
        if not dropped then begin
          write_line line;
          match dup_every with
          | Some k when !sent mod k = 0 -> write_line line
          | _ -> ()
        end)
  in
  let finish stats =
    Mutex.protect lock (fun () -> write_line (encode (Done { stats; seq = Some (next_seq ()) })))
  in
  ({ Search.publish; current }, finish)

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

type proc = {
  pid : int;
  shard : int;
  argv : string array;  (* remembered for supervised relaunch *)
  to_worker : Unix.file_descr;
  from_worker : Unix.file_descr;
  rbuf : Buffer.t;
  mutable pending : string;  (* unsent tail of a cutoff line (partial write) *)
  mutable finished : Json.t option;
  mutable eof : bool;
  mutable reaped : bool;
}

let pid p = p.pid

let with_env_var key value =
  let prefix = key ^ "=" in
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun s -> not (String.length s >= String.length prefix
                                  && String.sub s 0 (String.length prefix) = prefix))
  in
  Array.of_list (env @ [ prefix ^ value ])

let launch ?incarnation ~shard ~argv () =
  (* cloexec on the parent's ends so later workers don't inherit this
     worker's pipes (which would defer EOF detection until *they* exit);
     create_process dup2s the child ends onto stdin/stdout, and the
     dup'ed descriptors lose the flag. *)
  let c2w_r, c2w_w = Unix.pipe ~cloexec:true () in
  let w2c_r, w2c_w = Unix.pipe ~cloexec:true () in
  let pid =
    match incarnation with
    | None -> Unix.create_process argv.(0) argv c2w_r w2c_w Unix.stderr
    | Some n ->
        (* stamp the relaunch count into the child's environment so
           one-shot chaos plans know they already fired *)
        let env = with_env_var Sw_fault.Fault.Chaos.incarnation_var (string_of_int n) in
        Unix.create_process_env argv.(0) argv env c2w_r w2c_w Unix.stderr
  in
  Unix.close c2w_r;
  Unix.close w2c_w;
  Unix.set_nonblock c2w_w;
  {
    pid;
    shard;
    argv;
    to_worker = c2w_w;
    from_worker = w2c_r;
    rbuf = Buffer.create 256;
    pending = "";
    finished = None;
    eof = false;
    reaped = false;
  }

(* Non-blocking send towards one worker.  A full pipe drops the line
   (cutoffs are advisory); a partially-written line must complete
   before anything else is sent, so its tail parks in [pending]. *)
let send p line =
  if not p.eof then begin
    (* a parked partial line goes out before anything new; while one is
       parked, fresh cutoff lines are dropped rather than queued *)
    let s = if p.pending <> "" then p.pending else line in
    if s <> "" then
      match
        let b = Bytes.of_string s in
        Unix.write p.to_worker b 0 (Bytes.length b)
      with
      | n when n = String.length s -> p.pending <- ""
      | n -> p.pending <- String.sub s n (String.length s - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          () (* nothing written: a fresh line is dropped, a parked one stays parked *)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> p.pending <- ""
  end

let reap p =
  if not p.reaped then begin
    let rec wait () =
      match Unix.waitpid [] p.pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
    in
    let status = wait () in
    p.reaped <- true;
    Some status
  end
  else None

(* Terminate every still-running worker: SIGTERM, a short grace period
   of WNOHANG polls, SIGKILL for the stubborn, then a blocking reap so
   no zombie outlives the coordinator. *)
let terminate procs =
  let running = List.filter (fun p -> not p.reaped) procs in
  List.iter
    (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ())
    running;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec grace remaining =
    if remaining <> [] && Unix.gettimeofday () < deadline then begin
      let still =
        List.filter
          (fun p ->
            match Unix.waitpid [ Unix.WNOHANG ] p.pid with
            | 0, _ -> true
            | _ ->
                p.reaped <- true;
                false
            | exception Unix.Unix_error _ ->
                p.reaped <- true;
                false)
          remaining
      in
      if still <> [] then Unix.sleepf 0.02;
      grace still
    end
    else
      List.iter
        (fun p ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap p))
        remaining
  in
  grace running

let close_fds procs =
  List.iter
    (fun p ->
      (try Unix.close p.to_worker with Unix.Unix_error _ -> ());
      try Unix.close p.from_worker with Unix.Unix_error _ -> ())
    procs

(* ------------------------------------------------------------------ *)
(* Supervision.

   Each launched worker occupies a slot; the slot survives the worker.
   A worker that reaches EOF without a Done, exits nonzero, or dies on
   a signal — or that shows no pipe traffic for [hang_timeout_s]
   (heartbeats make silence meaningful) and is SIGKILLed for it — is
   relaunched from its remembered argv.  The relaunch is safe precisely because
   the journal is the ground truth: the new incarnation replays every
   entry its predecessor committed (torn tails are truncated on open)
   and recomputes only what was in flight, so the combined argmin is
   bit-identical to an undisturbed run.  A slot that exhausts
   [max_restarts] is quarantined: its fds are closed, its stats stay
   [Null], and the run completes degraded instead of dying. *)

type health = Completed | Degraded of int list

type report = {
  stats : Json.t list;
  health : health;
  restarts : int;
  lines_dropped : int;
}

type slot = {
  mutable proc : proc;
  mutable restarts : int;
  mutable quarantined : bool;
  mutable last_activity : float;
  mutable expected_seq : int;
}

let supervise ?(max_restarts = 2) ?hang_timeout_s procs =
  let restore_sigpipe = ignore_sigpipe () in
  let now () = Unix.gettimeofday () in
  let slots =
    List.map
      (fun p ->
        { proc = p; restarts = 0; quarantined = false; last_activity = now ();
          expected_seq = 0 })
      procs
  in
  let best = ref None in
  let dropped = ref 0 in
  let chunk = Bytes.create 8192 in
  let live_slots () =
    List.filter (fun s -> not (s.quarantined || s.proc.eof)) slots
  in
  let note_seq s seq =
    if seq >= s.expected_seq then begin
      dropped := !dropped + (seq - s.expected_seq);
      s.expected_seq <- seq + 1
    end
    (* seq < expected: a duplicated line — already counted, ignore *)
  in
  let handle s line =
    match decode line with
    | Some (Incumbent { cycles = c; seq }) ->
        note_seq s seq;
        let improved = match !best with Some b -> c < b | None -> true in
        if improved then begin
          best := Some c;
          List.iter
            (fun q ->
              if q.proc.shard <> s.proc.shard then send q.proc (encode (Cutoff c) ^ "\n"))
            (live_slots ())
        end
    | Some (Heartbeat { seq }) -> note_seq s seq
    | Some (Done { stats; seq }) ->
        Option.iter (note_seq s) seq;
        s.proc.finished <- Some stats
    | Some (Cutoff _) | None -> () (* not a worker->coordinator message: ignore *)
  in
  (* A slot whose worker died (or was killed for hanging): relaunch it
     with a fresh incarnation number, or quarantine it. *)
  let on_death s =
    let p = s.proc in
    (try Unix.close p.to_worker with Unix.Unix_error _ -> ());
    (try Unix.close p.from_worker with Unix.Unix_error _ -> ());
    if s.restarts < max_restarts then begin
      s.restarts <- s.restarts + 1;
      let p' = launch ~incarnation:s.restarts ~shard:p.shard ~argv:p.argv () in
      s.proc <- p';
      s.expected_seq <- 0;
      s.last_activity <- now ();
      (* seed the newcomer with the global incumbent so it prunes from
         the first verification *)
      match !best with Some c -> send p' (encode (Cutoff c) ^ "\n") | None -> ()
    end
    else s.quarantined <- true
  in
  let on_readable s =
    let p = s.proc in
    match Unix.read p.from_worker chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> (
        p.eof <- true;
        (try Unix.close p.to_worker with Unix.Unix_error _ -> ());
        List.iter (handle s) (take_lines p.rbuf);
        match reap p with
        | Some (Unix.WEXITED 0) when p.finished <> None -> ()
        | Some _ -> on_death s
        | None -> ())
    | n ->
        s.last_activity <- now ();
        Buffer.add_subbytes p.rbuf chunk 0 n;
        List.iter (handle s) (take_lines p.rbuf)
  in
  (* The progress deadline: a live worker silent past [hang_timeout_s]
     is declared hung, SIGKILLed, and handed to the restart policy.
     Heartbeats flow whenever the strategy polls the link, so silence
     means stuck, not merely busy. *)
  let check_hangs () =
    match hang_timeout_s with
    | None -> ()
    | Some limit ->
        List.iter
          (fun s ->
            if now () -. s.last_activity > limit then begin
              let p = s.proc in
              (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (reap p);
              p.eof <- true;
              on_death s
            end)
          (live_slots ())
  in
  Fun.protect
    ~finally:(fun () ->
      let current = List.map (fun s -> s.proc) slots in
      terminate current;
      close_fds current;
      restore_sigpipe ())
    (fun () ->
      let rec loop () =
        let open_slots = live_slots () in
        if open_slots <> [] then begin
          let fds = List.map (fun s -> s.proc.from_worker) open_slots in
          (match Unix.select fds [] [] 0.1 with
          | readable, _, _ ->
              List.iter
                (fun s -> if List.mem s.proc.from_worker readable then on_readable s)
                open_slots;
              (* retry any parked partial cutoff line *)
              List.iter
                (fun s -> if s.proc.pending <> "" then send s.proc "")
                (live_slots ());
              check_hangs ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
      in
      loop ();
      let quarantined =
        List.filter_map (fun s -> if s.quarantined then Some s.proc.shard else None) slots
        |> List.sort_uniq compare
      in
      let restarts = List.fold_left (fun acc s -> acc + s.restarts) 0 slots in
      let stats =
        List.map
          (fun s -> match s.proc.finished with Some stats -> stats | None -> Json.Null)
          (List.sort (fun a b -> compare a.proc.shard b.proc.shard) slots)
      in
      {
        stats;
        health = (if quarantined = [] then Completed else Degraded quarantined);
        restarts;
        lines_dropped = !dropped;
      })
