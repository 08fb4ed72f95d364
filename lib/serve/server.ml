module Json = Sw_obs.Json

type config = { queue_capacity : int; shed_watermark : int; metrics_every : int }

let default_config = { queue_capacity = 64; shed_watermark = 8; metrics_every = 0 }

type stats = {
  served : int;
  errors : int;
  degraded : int;
  resumed : int;
  batches : int;
  max_batch : int;
  shutdown : bool;
}

let zero_stats =
  { served = 0; errors = 0; degraded = 0; resumed = 0; batches = 0; max_batch = 0; shutdown = false }

(* ------------------------------------------------------------------ *)
(* Line reader over a raw file descriptor.

   [In_channel] buffering would hide pending lines from [select], so
   batching reads the descriptor directly: what is in [pending] plus
   what [select] says is readable is exactly the queue depth the
   admission policy can see. *)

type reader = { fd : Unix.file_descr; mutable pending : string; mutable eof : bool }

let reader fd = { fd; pending = ""; eof = false }

let rec read_chunk r =
  let chunk = Bytes.create 8192 in
  match Unix.read r.fd chunk 0 (Bytes.length chunk) with
  | 0 -> r.eof <- true
  | k -> r.pending <- r.pending ^ Bytes.sub_string chunk 0 k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk r
  (* a client that died mid-session is an EOF, not a daemon crash *)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF | Unix.EPIPE), _, _) ->
      r.eof <- true

let rec next_line r =
  match String.index_opt r.pending '\n' with
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      Some line
  | None ->
      if r.eof then
        if r.pending = "" then None
        else begin
          let line = r.pending in
          r.pending <- "";
          Some line
        end
      else begin
        read_chunk r;
        next_line r
      end

let has_buffered_line r = String.contains r.pending '\n' || (r.eof && r.pending <> "")

let readable_now r =
  match Unix.select [ r.fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

(* Block for one request, then drain whatever else already arrived:
   the batch size is the observed queue depth, which is what the shed
   policy keys on. *)
let read_batch config r =
  let rec first () =
    match next_line r with
    | None -> None
    | Some line when blank line -> first ()
    | Some line -> Some line
  in
  match first () with
  | None -> []
  | Some line ->
      let rec drain acc n =
        if n >= config.queue_capacity then List.rev acc
        else if has_buffered_line r || ((not r.eof) && readable_now r) then
          match next_line r with
          | None -> List.rev acc
          | Some line when blank line -> drain acc n
          | Some line -> drain (line :: acc) (n + 1)
        else List.rev acc
      in
      drain [ line ] 1

(* ------------------------------------------------------------------ *)
(* Crash-recovery request log.

   One line per event: {"rq": N, "ev": "begin", "req": "<raw line>"}
   before a request executes, {"rq": N, "ev": "end"} after its response
   is on the wire.  A begin without an end is a request some crash or
   signal interrupted — replayed (marked [resumed]) on the next start.
   Only predict/tune/timeline are logged; ping/metrics/shutdown are not
   worth replaying. *)

type request_log = { chan : out_channel; mutable seq : int }

let log_line chan fields =
  output_string chan (Json.to_string (Json.Obj fields));
  output_char chan '\n';
  flush chan

let scan_log path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let begins = Hashtbl.create 16 in
    let max_seq = ref 0 in
    In_channel.with_open_bin path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (* a torn final line (kill mid-write) parses as an error
                 and is ignored, same as the backend journals *)
              (match Json.parse line with
              | Ok j -> (
                  match
                    ( Option.bind (Json.member "rq" j) Json.to_int,
                      Option.bind (Json.member "ev" j) Json.to_str )
                  with
                  | Some rq, Some "begin" ->
                      max_seq := Stdlib.max !max_seq rq;
                      Option.iter
                        (fun req -> Hashtbl.replace begins rq req)
                        (Option.bind (Json.member "req" j) Json.to_str)
                  | Some rq, Some "end" ->
                      max_seq := Stdlib.max !max_seq rq;
                      Hashtbl.remove begins rq
                  | _ -> ())
              | Error _ -> ());
              go ()
        in
        go ());
    let unfinished =
      List.sort compare (Hashtbl.fold (fun rq req acc -> (rq, req) :: acc) begins [])
    in
    (unfinished, !max_seq)
  end

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let open_log dir seq =
  let path = Filename.concat dir "requests.jsonl" in
  let chan = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { chan; seq }

let log_begin log line =
  log.seq <- log.seq + 1;
  let rq = log.seq in
  log_line log.chan [ ("rq", Json.Int rq); ("ev", Json.Str "begin"); ("req", Json.Str line) ];
  rq

let log_end log rq = log_line log.chan [ ("rq", Json.Int rq); ("ev", Json.Str "end") ]

let loggable (req : Handler.request) =
  match req.Handler.verb with
  | Handler.Predict _ | Handler.Tune _ | Handler.Timeline _ -> true
  | Handler.Ping | Handler.Metrics | Handler.Shutdown -> false

(* Auto-assign a checkpoint journal to tunes that did not bring one:
   the path is a pure function of the request (its key), so the resume
   pass reopens the journal the interrupted run was writing. *)
let assign_checkpoint state req =
  match Handler.state_dir state with
  | Some dir when Handler.is_tune req ->
      Handler.with_checkpoint req
        (Filename.concat dir ("tune-" ^ Handler.request_key req ^ ".journal"))
  | _ -> req

(* ------------------------------------------------------------------ *)

(* The counters the robustness machinery may never get to touch on a
   healthy run: registered at 0 up front so a metrics scrape (or the
   bench gates) can always distinguish "nothing happened" from "not
   instrumented". *)
let preregister_counters state =
  let sink = Handler.sink state in
  List.iter
    (fun k -> Sw_obs.Sink.add sink k 0.0)
    [
      "serve.deadline_exceeded";
      "serve.deadline_degraded";
      "serve.deadline_missed";
      "serve.client_disconnects";
      "shard.restarts";
      "shard.quarantined";
      "link.lines_dropped";
      "memo.cutoff_hits";
      "timeline.hits";
      "timeline.misses";
    ]

(* Emit one response to [output], updating the shared counters.  Every
   connection gets one of these closures over its own output channel;
   the stats ref and sink are shared across all of them.  A write to a
   client that hung up (EPIPE/reset — with SIGPIPE ignored it surfaces
   as an exception) must never take the daemon down: it is counted and
   reported to [on_error] so the caller can drop the connection. *)
let emitter ?on_error config state stats output =
  let sink = Handler.sink state in
  fun (resp : Handler.response) ->
    (try
       output_string output (Handler.response_to_string resp);
       output_char output '\n';
       flush output
     with
    | Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        Sw_obs.Sink.incr sink "serve.client_disconnects";
        Option.iter (fun f -> f ()) on_error);
    Sw_obs.Sink.incr sink "serve.responses";
    let s = !stats in
    stats :=
      {
        s with
        served = s.served + 1;
        errors = (s.errors + if Result.is_error resp.Handler.result then 1 else 0);
        degraded = (s.degraded + if resp.Handler.degraded then 1 else 0);
        resumed = (s.resumed + if resp.Handler.resumed then 1 else 0);
      };
    if Result.is_error resp.Handler.result then Sw_obs.Sink.incr sink "serve.errors";
    if resp.Handler.degraded then Sw_obs.Sink.incr sink "serve.degraded";
    if resp.Handler.resumed then Sw_obs.Sink.incr sink "serve.resumed";
    if config.metrics_every > 0 && !stats.served mod config.metrics_every = 0 then
      prerr_string (Handler.metrics_text state)

(* Open the request log, replaying whatever a crash interrupted to
   [emit] before any new work is accepted. *)
let setup_log ?pool state emit =
  match Handler.state_dir state with
  | None -> None
  | Some dir ->
      ensure_dir dir;
      let unfinished, max_seq = scan_log (Filename.concat dir "requests.jsonl") in
      let log = open_log dir max_seq in
      (* replay what a crash interrupted before accepting new work;
         fitted surrogate models never survive a crash (they are
         process memory, not state-dir files), so drop any stale
         in-process cache first and let the replayed requests retrain
         from scratch — the training draw is seed-deterministic, so
         the resumed argmin matches the interrupted run's *)
      if unfinished <> [] then Sw_learn.Surrogate.clear_cache ();
      List.iter
        (fun (rq, line) ->
          (match Handler.parse_request line with
          | Error msg -> emit (Handler.error_response ~resumed:true Json.Null msg)
          | Ok req ->
              let req = assign_checkpoint state req in
              emit (Handler.run state ~resumed:true ?pool req));
          log_end log rq)
        unfinished;
      Some log

(* Pseudo-deadline for deadline-less requests under EDF ordering: they
   age as if due this many seconds after arrival, so a stream of tight
   deadlines cannot starve them indefinitely. *)
let aging_horizon_s = 5.0

(* Execute one drained batch, emitting every response in request
   {e arrival} order.  Returns [true] when the batch contained a
   shutdown request.

   Deadline admission runs before anything executes: walking the batch
   in arrival order, each deadlined request is admitted only if the
   backlog of already-admitted work plus its own service-time estimate
   ({!Handler.estimate_s}) fits its budget; a tune that does not fit is
   retried against the degraded estimate (and admitted degraded); what
   still does not fit is refused with the typed
   {!Handler.deadline_response} — ahead of time, not after burning the
   work.  Admitted requests then execute in earliest-deadline-first
   order (deadline-less ones aged by {!aging_horizon_s}) and any that
   overran their budget anyway are marked [deadline_exceeded]
   retroactively — a miss is never silent. *)
let process_batch config ?pool state ~log ~stats ~emit lines =
  let sink = Handler.sink state in
  let depth = List.length lines in
  Sw_obs.Sink.incr sink ~by:depth "serve.requests";
  Sw_obs.Sink.incr sink "serve.batches";
  stats :=
    { !stats with batches = !stats.batches + 1; max_batch = Stdlib.max !stats.max_batch depth };
  let arrived = Unix.gettimeofday () in
  let parsed =
    List.mapi
      (fun i line ->
        match Handler.parse_request line with
        | Error msg -> (i, line, Error msg)
        | Ok req -> (i, line, Ok (assign_checkpoint state req)))
      lines
  in
  let backlog = ref 0.0 in
  let admitted =
    List.map
      (fun (i, line, p) ->
        match p with
        | Error msg -> (i, line, `Parse_error msg)
        | Ok req -> (
            let shed = Handler.is_tune req && i >= config.shed_watermark in
            match req.Handler.deadline_ms with
            | None ->
                backlog := !backlog +. Handler.estimate_s state ~degrade:shed req;
                (i, line, `Admit (req, shed, None))
            | Some ms ->
                let budget = float_of_int ms /. 1000.0 in
                let est = Handler.estimate_s state ~degrade:shed req in
                if !backlog +. est <= budget then begin
                  backlog := !backlog +. est;
                  (i, line, `Admit (req, shed, Some budget))
                end
                else
                  let est_d = Handler.estimate_s state ~degrade:true req in
                  if Handler.is_tune req && !backlog +. est_d <= budget then begin
                    Sw_obs.Sink.incr sink "serve.deadline_degraded";
                    backlog := !backlog +. est_d;
                    (i, line, `Admit (req, true, Some budget))
                  end
                  else begin
                    Sw_obs.Sink.incr sink "serve.deadline_exceeded";
                    (i, line, `Refuse req.Handler.id)
                  end))
      parsed
  in
  (* begin markers hit the disk before any execution starts, so a
     kill anywhere in the batch leaves a replayable record; refused
     requests never executed, so they are not logged (nothing to
     replay) *)
  let marked =
    List.map
      (fun (i, line, d) ->
        let rq =
          match (log, d) with
          | Some log, `Admit (req, _, _) when loggable req -> Some (log_begin log line)
          | _ -> None
        in
        (i, d, rq))
      admitted
  in
  let edf_key (_, d, _) =
    match d with
    | `Admit (_, _, Some budget) -> arrived +. budget
    | `Admit (_, _, None) -> arrived +. aging_horizon_s
    | `Parse_error _ | `Refuse _ -> arrived
  in
  let exec_order = List.stable_sort (fun a b -> compare (edf_key a) (edf_key b)) marked in
  let responses =
    Sw_util.Pool.map_opt pool
      (fun (i, d, rq) ->
        let resp =
          match d with
          | `Parse_error msg -> Handler.error_response Json.Null msg
          | `Refuse id -> Handler.deadline_response id
          | `Admit (req, degrade, budget) -> (
              let resp = Handler.run state ~degrade req in
              let now = Unix.gettimeofday () in
              match budget with
              | Some b when now > arrived +. b ->
                  Sw_obs.Sink.incr sink "serve.deadline_missed";
                  { resp with Handler.deadline_exceeded = true }
              | _ -> resp)
        in
        (i, d, rq, resp))
      exec_order
  in
  let in_arrival =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare (a : int) b) responses
  in
  List.fold_left
    (fun stop (_, d, rq, resp) ->
      emit resp;
      (match (log, rq) with Some log, Some rq -> log_end log rq | _ -> ());
      match d with
      | `Admit ({ Handler.verb = Handler.Shutdown; _ }, _, _) -> true
      | _ -> stop)
    false in_arrival

let serve ?(config = default_config) ?pool state ~input ~output =
  preregister_counters state;
  let stats = ref zero_stats in
  let emit = emitter config state stats output in
  let log = setup_log ?pool state emit in
  let r = reader input in
  let rec loop () =
    match read_batch config r with
    | [] -> ()
    | lines ->
        if process_batch config ?pool state ~log ~stats ~emit lines then
          stats := { !stats with shutdown = true }
        else loop ()
  in
  loop ();
  Option.iter (fun log -> close_out log.chan) log;
  !stats

(* ------------------------------------------------------------------ *)
(* Socket serving: one listener, several concurrent connections.

   The loop multiplexes with [select] over the listener and every
   connected client, so a second client connecting while the first is
   mid-session is accepted and served interleaved (batch by batch,
   round-robin over the ready clients) instead of queueing behind the
   first connection's EOF.  The request log is opened — and its
   unfinished requests replayed — on the first accepted connection,
   which is therefore the one that receives the [resumed] responses,
   exactly as the old one-connection-at-a-time loop behaved. *)

type client = { cr : reader; out : out_channel }

let close_client c =
  (* close_out closes the underlying descriptor; the second close
     catches the EBADF so nothing leaks if the first already did it *)
  (try close_out c.out with Sys_error _ -> ());
  try Unix.close c.cr.fd with Unix.Unix_error _ -> ()

let serve_socket ?(config = default_config) ?pool state ~path =
  preregister_counters state;
  (* a client hanging up mid-response must surface as EPIPE (caught in
     the emitter), not as a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  let stats = ref zero_stats in
  let log = ref None in
  let first = ref true in
  let clients = ref [] in
  let accept_client ~block =
    let ready =
      if block then true
      else
        match Unix.select [ srv ] [] [] 0.0 with
        | [ _ ], _, _ -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then begin
      let fd, _ = Unix.accept srv in
      let c = { cr = reader fd; out = Unix.out_channel_of_descr fd } in
      if !first then begin
        first := false;
        log := setup_log ?pool state (emitter config state stats c.out)
      end;
      clients := !clients @ [ c ]
    end
  in
  let shutdown = ref false in
  (* the client served last: the next turn starts after it *)
  let last = ref None in
  let drop_client c =
    (match !last with
    | Some l when l == c ->
        (* hand the place to the predecessor (none when [c] came first),
           so the next turn still starts with the client after [c] *)
        let rec pred prev = function
          | c' :: _ when c' == c -> prev
          | c' :: rest -> pred (Some c') rest
          | [] -> None
        in
        last := pred None !clients
    | _ -> ());
    clients := List.filter (fun c' -> c' != c) !clients;
    close_client c
  in
  let serve_client c =
    last := Some c;
    match read_batch config c.cr with
    | [] -> drop_client c
    | lines ->
        let dead = ref false in
        let emit = emitter ~on_error:(fun () -> dead := true) config state stats c.out in
        if process_batch config ?pool state ~log:!log ~stats ~emit lines then shutdown := true;
        (* responses went nowhere: the client is gone, reclaim the slot *)
        if !dead then drop_client c
  in
  (* connection order, rotated to start after the client served last *)
  let rotation () =
    match !last with
    | None -> !clients
    | Some l ->
        let rec split before = function
          | [] -> !clients
          | c :: after when c == l -> after @ List.rev (c :: before)
          | c :: after -> split (c :: before) after
        in
        split [] !clients
  in
  (* One turn serves every ready client at most one batch, round-robin:
     a client that keeps sending cannot starve the others. *)
  let turn cs =
    (* a line already buffered in some reader is invisible to select:
       poll instead of blocking, so that client is served this turn *)
    let timeout = if List.exists (fun c -> has_buffered_line c.cr) cs then 0.0 else -1.0 in
    match Unix.select (srv :: List.map (fun c -> c.cr.fd) cs) [] [] timeout with
    | readable, _, _ ->
        if List.mem srv readable then accept_client ~block:false;
        List.iter
          (fun c ->
            if (not !shutdown) && (has_buffered_line c.cr || List.mem c.cr.fd readable) then
              serve_client c)
          cs
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let rec loop () =
    if not !shutdown then begin
      (match rotation () with [] -> accept_client ~block:true | cs -> turn cs);
      loop ()
    end
  in
  loop ();
  if !shutdown then stats := { !stats with shutdown = true };
  List.iter close_client !clients;
  clients := [];
  (match !log with Some log -> close_out log.chan | None -> ());
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  !stats
