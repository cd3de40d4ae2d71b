(** Tier 4: fragment snapshots, filled on demand.

    Holds {!Engine.Executor.fragment_snapshot}s of the fragment UCQs that
    JUCQ evaluation has executed, keyed by the tier-1 canonical key of the
    fragment's cover query, in a byte-budgeted {!Lru}.  {!Cache.fragment}
    is the probe {!Engine.Executor.eval_jucq} consults per fragment: a
    miss records the fragment and installs it, a hit replaces the
    fragment's evaluation by a charge-log replay with bit-identical
    observables.

    An entry lives until a write touches it: a data change drops only the
    entries whose property footprint meets the changed properties
    ({!Store.Encoded_store.changes_since}); a schema change or a
    change-log overrun drops them all.  Both happen lazily, on the next
    cache probe after the change.  Every function here expects the owning
    {!Cache}'s lock to be held. *)

type footprint =
  | Universal  (** a variable property: every data change touches it *)
  | Props of int list  (** sorted, distinct constant property codes *)

val footprint_of : Store.Encoded_store.t -> Query.Ucq.t -> footprint
(** The property codes a fragment reformulation selects on. *)

type entry = {
  ucq : Query.Ucq.t;  (** the physical tier-1 UCQ recorded *)
  head : string list;  (** the recording cover query's join columns *)
  footprint : footprint;
  snap : Engine.Executor.fragment_snapshot;
}

type t = entry Lru.t

val create : capacity_bytes:int -> t

val find : t -> string -> Query.Ucq.t -> entry option
(** The entry under a key, served only when it was recorded from this
    very UCQ (physical identity); counts a hit or a miss. *)

val add : t -> string -> entry -> entry
(** Installs an entry unless the key is taken; returns the entry to
    serve (the resident one when another recorder of the same UCQ won). *)

val invalidate : t -> Store.Encoded_store.t -> since:int -> int
(** Drops the entries a data change since data version [since] touched
    (all of them past the change log's window); returns how many. *)

val clear : t -> int
(** Drops every entry; returns how many. *)
