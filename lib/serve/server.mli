(** The [swmodel serve] request loop: line-delimited JSON in, one JSON
    response line out per request, in request order.

    {b Admission and overload.}  Requests are read in batches: the loop
    blocks for the first line, then drains whatever else is already
    pending (up to [queue_capacity]) and executes the batch on the
    {!Sw_util.Pool} — so a burst is served concurrently while a trickle
    costs nothing.  Within a batch, [tune] requests queued at or past
    [shed_watermark] are shed to model-only shortlist scoring
    ({!Handler.tune} with [degrade]): under flood the service answers
    every request quickly with the cheap backend rather than letting
    tail latency grow without bound, and marks those responses
    [degraded: true].

    {b Deadlines.}  A request carrying [deadline_ms] is admitted only
    if the batch's already-admitted backlog plus its own service-time
    estimate ({!Handler.estimate_s}, an EWMA fed by observed service
    times) fits the budget; a tune that does not fit is re-tried
    against the degraded estimate and admitted degraded; what still
    does not fit is refused {e before} executing with the typed
    [deadline_exceeded] error response.  Admitted work executes
    earliest-deadline-first (deadline-less requests age with a 5 s
    pseudo-deadline so they cannot starve) while responses are still
    emitted in arrival order, and a response that overran its budget
    anyway is marked [deadline_exceeded: true] retroactively — a miss
    is never silent.  Counters: ["serve.deadline_exceeded"] (refused),
    ["serve.deadline_degraded"] (admitted degraded),
    ["serve.deadline_missed"] (retroactive) — all pre-registered at 0
    alongside the supervision counters ["shard.restarts"]/
    ["shard.quarantined"]/["link.lines_dropped"] so scrapes can tell
    "nothing happened" from "not instrumented".

    {b Client failures.}  [SIGPIPE] is ignored while serving a socket;
    a write to a client that hung up surfaces as EPIPE/reset, is
    counted (["serve.client_disconnects"]) and drops that connection —
    never the daemon.  A read error from a dead client is treated as
    EOF the same way.

    {b Crash recovery.}  With a state directory
    ({!Handler.create}'s [state_dir]), every accepted request is
    appended to [requests.jsonl] ({e begin} marker before execution,
    {e end} marker after its response is written), and [tune] requests
    without an explicit checkpoint get one auto-assigned under the same
    directory (derived from {!Handler.request_key}).  On startup the
    server replays begin-without-end requests — the ones a crash or
    [SIGTERM] interrupted — re-emitting their responses marked
    [resumed: true]; an interrupted tune resumes from its checkpoint
    journal and recomputes only the points it had not resolved. *)

type config = {
  queue_capacity : int;  (** Max requests drained into one batch. *)
  shed_watermark : int;
      (** Batch position from which [tune] requests degrade to
          model-only scoring. *)
  metrics_every : int;
      (** Dump Prometheus metrics to [stderr] every N responses
          (0 = never). *)
}

val default_config : config
(** [{ queue_capacity = 64; shed_watermark = 8; metrics_every = 0 }] *)

type stats = {
  served : int;  (** Responses written (errors included). *)
  errors : int;
  degraded : int;
  resumed : int;  (** Responses replayed from the request log. *)
  batches : int;
  max_batch : int;  (** Deepest batch observed (queue high-water mark). *)
  shutdown : bool;  (** A [shutdown] request (vs EOF) ended the loop. *)
}

val serve :
  ?config:config ->
  ?pool:Sw_util.Pool.t ->
  Handler.state ->
  input:Unix.file_descr ->
  output:out_channel ->
  stats
(** Serve until EOF on [input] or a [shutdown] request.  Responses are
    written to [output] one line each, flushed, in the order the
    requests arrived (concurrent execution never reorders).  Lines that
    fail to parse get an [ok: false] response with a [null] id; blank
    lines are skipped.  Bumps ["serve.requests"/"serve.responses"/
    "serve.batches"/"serve.errors"/"serve.degraded"/"serve.resumed"]
    on the handler's sink. *)

val serve_socket :
  ?config:config -> ?pool:Sw_util.Pool.t -> Handler.state -> path:string -> stats
(** Bind a Unix-domain socket at [path] (replacing any stale file) and
    serve its connections {e concurrently}: the loop multiplexes over
    the listener and every connected client, so a client connecting
    while another is mid-session is accepted immediately and served
    interleaved, batch by batch, over the same shared state — not
    queued behind the first connection's EOF.  Each turn serves every
    ready client at most one batch, round-robin from the client after
    the one served last, so a client that keeps sending cannot starve
    the others.  The request log is
    opened (and its unfinished requests replayed) on the first accepted
    connection.  A [shutdown] request from any client stops the whole
    loop; otherwise serving continues across connect/disconnect cycles
    indefinitely.  Returns the accumulated stats. *)
