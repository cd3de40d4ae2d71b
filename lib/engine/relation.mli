(** Materialized relations of dictionary codes: the intermediate and final
    results of the execution engine.  Row-major flattened storage. *)

type t

val create : cols:int -> t
(** An empty relation with [cols] columns ([cols >= 0]). *)

val cols : t -> int
(** Number of columns. *)

val rows : t -> int
(** Number of rows. *)

val append : t -> int array -> unit
(** Appends one row.  Raises [Invalid_argument] on an arity mismatch. *)

val get : t -> int -> int -> int
(** [get r i j] is column [j] of row [i]. *)

val row : t -> int -> int array
(** A fresh copy of row [i]. *)

val unsafe_data : t -> int array
(** The backing row-major store: row [i]'s values live at
    [i * cols r .. (i+1) * cols r - 1].  Only the first [rows r * cols r]
    cells are meaningful.  The array must not be mutated, and must not be
    retained across an [append] (which may reallocate it).  For the
    executor's innermost loops only. *)

val iter : (int array -> unit) -> t -> unit
(** Iterates rows; the array passed to the callback is fresh per row. *)

val iteri_flat : (int -> int array -> int -> unit) -> t -> unit
(** [iteri_flat f r] calls [f i data off] for each row [i], where the
    row's values are [data.(off) .. data.(off + cols r - 1)] in the
    relation's backing store — no per-row array is materialized.  The
    callback must not mutate [data] nor retain it across appends to [r]. *)

val fold_rows : ('a -> int array -> int -> 'a) -> 'a -> t -> 'a
(** [fold_rows f init r] folds [f] over the rows as [(data, offset)]
    slices, under the same aliasing rules as {!iteri_flat}. *)

val project : t -> int array -> t
(** [project r cols] keeps the given column indexes, in order. *)

val dedup : t -> t
(** Duplicate elimination via a specialized {!Rowtable} (open addressing
    over flat int-row keys — no polymorphic hashing, no per-row boxing),
    preserving first occurrences. *)

val to_list : t -> int array list
(** All rows, in order. *)
