(** Open-addressing hash set specialized to fixed-width int-row keys.

    Keys are [width]-wide slices [src.(off) .. src.(off+width-1)] of plain
    [int array]s — relation rows, join keys, projected heads.  Inserted
    keys are copied into one flat backing array, in insertion order;
    slots are a power-of-two linear-probing table hashed with FNV-1a over
    the key words.  No per-entry boxing, no polymorphic hashing, no
    allocation on lookups or inserts (amortized): the engine's dedup sink
    ({!Relation.sink}) and hash join are built on this.  Entries are dense
    indexes [0 .. length-1], so a client keeps any per-entry payload in
    its own array (the hash join's bucket-chain heads). *)

type t

val create : width:int -> ?capacity:int -> unit -> t
(** A fresh table for keys of [width] ints ([width >= 0]; a zero-width
    table holds at most one entry, the empty key).  [capacity] (default
    16) is a hint for the number of expected entries; the table grows by
    doubling past it. *)

val length : t -> int
(** Number of distinct keys stored. *)

val find_or_add : t -> int array -> int -> int
(** [find_or_add t src off] looks up the key slice at [src.(off) ..]; if
    absent, copies it into the table as a new entry.  Returns the entry
    index (dense, insertion-ordered: [0 .. length-1]).  Compare {!length}
    before and after to detect an insert. *)

val add_if_absent : t -> int array -> int -> bool
(** [add_if_absent t src off] inserts the key slice if new and reports
    whether it was inserted — duplicate elimination in one call. *)

val find : t -> int array -> int -> int
(** The entry index of the key slice, or [-1] if absent.  Never inserts. *)

val unsafe_keys : t -> int array
(** The flat key store: entry [e]'s key lives at
    [e * width .. (e+1) * width - 1], entries in insertion order.  Only
    the first [length t * width] cells are meaningful.  The array is
    replaced, not extended, when the table grows, so it must not be
    retained across an insert that is meant to be seen. *)
