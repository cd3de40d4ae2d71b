(** Growable integer vectors: the backing storage for triple tables,
    posting lists and materialized relations.  Amortized O(1) append. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty vector. *)

val length : t -> int
(** Number of elements. *)

val push : t -> int -> unit
(** Appends an element. *)

val get : t -> int -> int
(** [get v i] is the [i]-th element.  Bounds-checked. *)

val unsafe_get : t -> int -> int
(** [unsafe_get v i] is the [i]-th element with {e no} bounds check: the
    caller must guarantee [0 <= i < length v].  Reserved for the engine's
    innermost loops (posting-list scans, column reads), where the index is
    valid by construction. *)

val set : t -> int -> int -> unit
(** [set v i x] overwrites the [i]-th element.  Bounds-checked. *)

val pop : t -> int
(** Removes and returns the last element.  Raises [Invalid_argument] on an
    empty vector.  With {!set}, this is the swap-remove primitive the
    store's deletion path uses on columns and posting lists. *)

val iter : (int -> unit) -> t -> unit
(** Iterates in index order. *)

val to_array : t -> int array
(** A fresh array copy of the contents. *)

val of_array : int array -> t
(** A vector holding a copy of the array. *)
