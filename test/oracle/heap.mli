(** Minimal binary min-heap, the original discrete-event queue of the
    simulator (now the reference implementation that
    {!Sw_util.Calendar_queue} must reproduce exactly — see
    {!Sw_util.Calendar_queue}'s ordering contract).

    Ties are broken by a global insertion sequence number so
    simulations are deterministic: among entries with equal priority,
    {!pop} returns them in the order they were {e pushed over the whole
    lifetime of the heap} (not the order they happen to sit in the
    current contents).  Interleaving pops between pushes never reorders
    equal-priority survivors, and {!clear} resets the sequence
    counter so replays after a clear order like a fresh heap. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element.  Equal-priority
    elements pop in push order (FIFO among equal keys, by global push
    sequence — property-tested in [test/test_heap.ml]); this exact
    order is what keeps the simulator deterministic, and any
    replacement event queue must replicate it. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
