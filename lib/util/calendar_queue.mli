(** Indexed calendar (bucket) event queue over a flat preallocated arena.

    A drop-in replacement, on the simulator's hot path, for the binary
    heap it used to run on (kept as the test oracle Sw_oracle.Heap):
    payloads are plain integers (event codes packed by the caller), all
    bookkeeping lives in flat [int]/[float] arrays, and the steady-state
    operations — {!push_ref}, {!pop_into}, {!peek_into} — allocate
    nothing (amortized: the arena and the bucket table grow by doubling).

    {b Ordering contract} — identical to that heap's: events are delivered
    in increasing time, and events with {e equal} times are delivered in
    insertion (push) order.  The queue keeps a global insertion sequence
    number per event and sorts each bucket's list by [(time, seq)];
    since equal times always map to the same bucket, the heap's
    FIFO-among-equal-keys tie-break is reproduced exactly (property:
    [test/test_calendar_queue.ml] checks pop-order equality against
    the heap on random push/pop interleavings, ties included).

    Internals: an event's home bucket is [floor (time / width)] (its
    {e absolute} bucket number, stored as an [int] so the year test is
    exact integer arithmetic, immune to float drift), taken modulo the
    bucket count.  A cursor walks absolute bucket numbers; a pop serves
    the head of the cursor's bucket when that head belongs to the
    cursor's "year", otherwise advances.  After a fruitless full sweep
    (all events further than one year ahead) it falls back to a direct
    min scan over bucket heads.  Pushing an event earlier than the
    cursor rewinds the cursor, so out-of-order pushes are safe.  The
    bucket table resizes (and the width is re-estimated from the live
    event span) when occupancy leaves [\[nb/4, 2nb\]]. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh queue.  [capacity] presizes the event arena (default 64). *)

val size : t -> int

val is_empty : t -> bool

val push : t -> float -> int -> unit
(** [push q time code] inserts the event.  [time] must be finite.
    Boxes [time] at the call site; hot paths should use {!push_ref}. *)

val push_ref : t -> float array -> int -> unit
(** [push_ref q buf code] = [push q buf.(0) code], but reads the time
    straight out of the (unboxed) float array so the call allocates
    nothing. *)

val pop : t -> (float * int) option
(** Remove and return the minimum-[(time, seq)] event (FIFO among equal
    times).  Allocates the result; hot paths should use {!pop_into}. *)

val pop_into : t -> float array -> int
(** [pop_into q buf] removes the minimum event, writes its time into
    [buf.(0)] and returns its code, or returns [-1] (leaving [buf]
    untouched) when the queue is empty.  Allocation-free. *)

val peek : t -> (float * int) option

val peek_into : t -> float array -> int
(** Like {!pop_into} without removing the event. *)

val clear : t -> unit
(** Empty the queue, keeping its arrays and resetting the insertion
    sequence (so replays after [clear] order exactly like a fresh
    queue). *)
