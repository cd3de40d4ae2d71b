(** Dictionary encoding of RDF values (Section 5.1).

    As in the paper's physical design, the [Triples(s,p,o)] table stores a
    unique integer code for each distinct value (URI, literal or blank
    node); the dictionary is indexed both by code and by value.  Codes are
    dense: the [n]-th distinct value encoded receives code [n-1]. *)

type t
(** A mutable two-way dictionary. *)

val create : ?initial_capacity:int -> unit -> t
(** A fresh empty dictionary. *)

val encode : t -> Term.t -> int
(** [encode d v] returns the code of [v], allocating a fresh code if [v]
    was never seen. *)

val find : t -> Term.t -> int option
(** The code of a value, without allocating: [None] if absent. *)

val decode : t -> int -> Term.t
(** [decode d c] is the value with code [c].  Raises [Invalid_argument] if
    [c] was never allocated. *)

val decoder : t -> int -> Term.t
(** [decoder d] snapshots the codes allocated so far (one lock
    acquisition) and returns a reader that decodes with no further
    synchronization — the cheap way to decode a whole relation, from any
    domain.  Codes allocated after the snapshot raise
    [Invalid_argument]. *)

val ranks : t -> int array
(** [ranks d] maps every code allocated so far to its value's position
    under {!Term.compare}: [(ranks d).(a) < (ranks d).(b)] iff
    [Term.compare (decode d a) (decode d b) < 0].  Values are distinct, so
    equal ranks mean equal codes.  Built on first use and rebuilt, by one
    sort of every code, only when the dictionary has grown since; between
    two growths every call returns the same array.  The array is a
    snapshot: it is never mutated (do not mutate it either), and codes
    allocated after the call lie outside it. *)

val mem_code : t -> int -> bool
(** Whether a code has been allocated. *)

val cardinal : t -> int
(** Number of distinct values encoded (also the next fresh code). *)

val approx_bytes : t -> int
(** An estimate of the dictionary's heap bytes — both indexes, the rank
    array and the values' strings — from counters it keeps: O(1), no
    traversal, no lock. *)

val iter : (Term.t -> int -> unit) -> t -> unit
(** Iterates over all (value, code) pairs in code order. *)
