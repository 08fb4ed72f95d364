(** Sharded multi-process tuning: partition a variant space across N
    worker processes, coordinate them over pipes, and keep the ground
    truth in per-shard {!Sw_backend.Backend.journal} files.

    The division of labour: {!assign}/{!mine} split the space by a
    stable hash of the canonical variant key (membership never depends
    on enumeration order or process); each worker runs an ordinary
    {!Search} strategy over its shard with a {!Search.link} wired to
    its stdin/stdout ({!worker_link}), journaling every resolved
    assessment; the coordinator ({!launch} + {!supervise}) relays each
    worker's incumbent back out to the others as a global cutoff.
    Every cutoff and incumbent is advisory — a dropped one costs extra
    verifications, never the argmin, because cutoffs are strict.  Only
    the final [Done] line matters: it carries the summary of the
    worker's whole shard, and it is sent only after the journal is
    closed, on a clean exit.

    The journal is what makes supervision safe: a worker that dies or
    hangs can be relaunched ({!supervise}) and will replay its journal,
    recomputing only what was in flight, and summarize the whole shard,
    so the combined argmin of a supervised run is bit-identical to an
    undisturbed one. *)

(** {1 Partition} *)

val canonical_key : Space.point -> string
(** The canonical variant key shard assignment hashes — a pure function
    of the point's fields. *)

val assign : shards:int -> Space.point -> int
(** Which shard (in [0 .. shards-1]) owns a point: FNV-1a (64-bit, fixed
    constants — stable across OCaml versions, unlike [Hashtbl.hash]) of
    {!canonical_key}, mod [shards].
    @raise Invalid_argument when [shards < 1]. *)

val mine : shard:int -> shards:int -> Space.point list -> Space.point list
(** The sub-list a shard owns, in enumeration order.  The [shards]
    sub-lists partition the input exactly.
    @raise Invalid_argument when [shard] is outside [0 .. shards-1]. *)

val enumerate : shard:int -> shards:int -> Space.axes -> Space.point list
(** [mine] of the space's enumeration, without building the points the
    shard does not own: a worker's share of a 10^6-point space costs
    one hash per point, not the whole list.
    @raise Invalid_argument when [shard] is outside [0 .. shards-1]. *)

(** {1 Protocol}

    One JSON object per line.  Floats serialize with the shortest exact
    round-trip ({!Sw_obs.Json.float_lit}), so a cutoff arrives
    bit-identical to the incumbent that produced it.

    Worker-to-coordinator lines (incumbents, heartbeats and the final
    done line) are numbered from one per-worker counter: a gap in the
    sequence is a dropped line the coordinator can count
    ([lines_dropped] in the {!report}), a repeat is a harmless
    duplicate.  The done line takes the next number, so drops after the
    last incumbent or heartbeat show as the gap before it.  Cutoff
    lines are unnumbered — they are pure advice. *)

type msg =
  | Incumbent of { cycles : float; seq : int }
      (** worker -> coordinator: local best improved *)
  | Heartbeat of { seq : int }
      (** worker -> coordinator: alive and searching (emitted by
          {!worker_link} whenever the strategy polls the link and the
          heartbeat interval has elapsed) *)
  | Cutoff of float  (** coordinator -> worker: global best so far *)
  | Done of { stats : Sw_obs.Json.t; seq : int option }
      (** worker -> coordinator: finished, stats attached; [seq] is
          [None] on a done line that carries no number *)

val encode : msg -> string
(** One line, without the trailing newline. *)

val decode : string -> msg option
(** [None] for anything that isn't a well-formed protocol line. *)

(** {1 Worker side} *)

val worker_link :
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  ?heartbeat_s:float ->
  ?drop_every:int ->
  ?dup_every:int ->
  unit ->
  Search.link * (Sw_obs.Json.t -> unit)
(** A {!Search.link} over the worker's own pipes (default
    stdin/stdout), and the function that writes the final [Done] line
    with its stats, numbered after every line the link sent.  [current] drains pending [Cutoff] lines without
    blocking — at most once per millisecond, so a cutoff becomes
    visible within 1 ms of its arrival rather than at the very next
    poll (cutoffs are advisory; a drain per point would cost a [select]
    syscall per point) — and returns the smallest seen; [publish] writes a
    sequence-numbered [Incumbent] line.  [current] also emits a
    [Heartbeat] line once per [heartbeat_s] (default 0.25s; 0 disables)
    — strategies poll the link at least once per assessment, so
    heartbeats turn liveness into pipe traffic the supervisor can hold
    against its progress deadline.  [drop_every]/[dup_every] are
    deterministic chaos hooks ({!Sw_fault.Fault.Chaos}): every k-th
    published incumbent is silently dropped / written twice, consuming
    sequence numbers exactly as a lossy transport would.  Installs a
    SIGPIPE-ignore handler: the coordinator vanishing mid-run degrades
    the link to a no-op rather than killing the worker — its journal
    keeps every result for the next run. *)

(** {1 Coordinator side} *)

type proc
(** One launched worker: pid, its two pipe ends, read/send state, and
    the argv it was launched from (for supervised relaunch). *)

val launch : ?incarnation:int -> shard:int -> argv:string array -> unit -> proc
(** Fork [argv] (via [Unix.create_process], [argv.(0)] as the
    executable) with its stdin/stdout connected to fresh pipes; stderr
    is inherited.  The parent's pipe ends are close-on-exec, so workers
    never hold each other's descriptors open (which would defer EOF
    detection of a dead sibling).  [incarnation] (used by {!supervise}
    on relaunch) is exported to the child as
    {!Sw_fault.Fault.Chaos.incarnation_var} so one-shot chaos plans
    know they already fired. *)

val pid : proc -> int

(** {1 Supervision} *)

type health =
  | Completed  (** Every shard reported [Done]. *)
  | Degraded of int list
      (** These shards exhausted their restart budget and were
          quarantined; the others completed.  The caller decides what a
          partial result is worth. *)

type report = {
  stats : Sw_obs.Json.t list;
      (** Per-shard [Done] stats in shard order; [Null] for a
          quarantined shard. *)
  health : health;
  restarts : int;  (** Total relaunches across all shards. *)
  lines_dropped : int;
      (** Worker->coordinator lines lost in transit, counted from
          sequence-number gaps. *)
}

val supervise : ?max_restarts:int -> ?hang_timeout_s:float -> proc list -> report
(** Drive the workers to completion under a restart policy: relay every
    strictly-improving [Incumbent] back out as a [Cutoff] to the other
    workers (non-blocking writes — a full pipe drops the line, a
    partial write is completed before anything newer), and collect each
    worker's [Done] stats.

    A worker that reaches EOF without a [Done], exits nonzero, or dies
    on a signal is relaunched from its remembered argv, up to
    [max_restarts] times per shard (default 2); the newcomer replays
    its journal and is immediately seeded with the global incumbent
    cutoff.  With [hang_timeout_s] set, a live worker with no pipe
    traffic (heartbeats included) for that long is declared hung,
    SIGKILLed, and handed to the same restart policy.  A shard that
    exhausts its budget is quarantined — [Degraded], never an error.
    All pipe descriptors are closed and all children reaped on every
    path. *)
