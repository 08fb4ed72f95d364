(** Bounded, thread-safe memo tables for pure derivations.

    A table maps keys to values that depend on the key alone, so any
    caller may reuse a stored value in place of recomputing it.  Each
    table holds at most [capacity] entries and forgets the oldest
    inserted key first.  One mutex per table makes it safe to share
    across {!Pool} domains.

    {!memo} computes a missing value {e outside} the lock, so nobody
    blocks on another caller's work.  When two callers race on one key,
    both compute, the first insert wins, and both get the {e stored}
    value: every caller of a key sees one physical value while it stays
    resident. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : int -> 'v t
  (** [create capacity] is an empty table holding at most [capacity]
      entries ([capacity] below 1 is clamped to 1). *)

  val find : 'v t -> K.t -> 'v option
  (** The stored value of a key, counted as a hit or a miss. *)

  val add : 'v t -> K.t -> 'v -> 'v
  (** [add t k v] stores [v] unless [k] is already present, evicting
      the oldest key when the table is full, and returns the value now
      stored for [k]: [v], or the earlier value when [k] was present. *)

  val memo : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** [memo t k compute] is {!find}'s value, else [add t k (compute ())]. *)

  val clear : 'v t -> unit
  (** Drop every entry and zero the hit and miss counters. *)

  val stats : 'v t -> int * int
  (** [(hits, misses)] of {!find} and {!memo} since creation or the
      last {!clear}. *)
end
