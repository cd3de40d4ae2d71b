(** A bounded least-recently-used map with byte-size accounting: the
    backing policy of the answer cache (tier 3).

    Every entry carries a caller-supplied byte weight; the cache holds at
    most [capacity_bytes] worth of entries and evicts from the cold end
    until the budget fits.  [find] refreshes recency.  Not thread-safe:
    callers serialize access (the {!Cache} facade holds one lock across
    all tiers). *)

type 'a t

val create : capacity_bytes:int -> 'a t
(** An empty cache.  [capacity_bytes] must be positive; an entry larger
    than the whole capacity is refused by {!add} (never stored, counted as
    an eviction). *)

val capacity_bytes : 'a t -> int
(** The configured byte budget. *)

val length : 'a t -> int
(** Number of live entries. *)

val bytes : 'a t -> int
(** Sum of the live entries' byte weights. *)

val evictions : 'a t -> int
(** Total entries evicted (or refused for size) since creation. *)

val find : 'a t -> string -> 'a option
(** Looks a key up and, on a hit, marks it most-recently used. *)

val add : 'a t -> string -> bytes:int -> 'a -> unit
(** Inserts or replaces a binding (the new binding is most-recently used),
    then evicts least-recently-used entries until the byte budget holds.
    [bytes] must be non-negative. *)

val remove : 'a t -> string -> unit
(** Drops a binding if present (not counted as an eviction). *)

val filter : 'a t -> (string -> 'a -> bool) -> int
(** [filter t keep] drops every binding [keep] rejects (not counted as
    evictions) and returns how many it dropped; survivors keep their
    recency order. *)

val clear : 'a t -> unit
(** Drops every binding (not counted as evictions). *)

val keys_by_recency : 'a t -> string list
(** Live keys, most-recently used first (tests and introspection). *)
