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

val iteri_flat : (int -> int array -> int -> unit) -> t -> unit
(** [iteri_flat f r] calls [f i data off] for each row [i], where the
    row's values are [data.(off) .. data.(off + cols r - 1)] in the
    relation's backing store — no per-row array is materialized.  The
    callback must not mutate [data] nor retain it across appends to [r]. *)

val project : t -> int array -> t
(** [project r cols] keeps the given column indexes, in order. *)

type sink
(** A set-semantics union under construction: rows are streamed in, only
    first occurrences are kept (in a specialized {!Rowtable} — open
    addressing over flat int-row keys, no polymorphic hashing, no per-row
    boxing), and duplicates are counted but never stored. *)

val sink : cols:int -> sink
(** An empty sink for rows of [cols] columns.  It starts small and grows
    by doubling with the distinct rows it keeps. *)

val emit : sink -> int array -> int -> unit
(** [emit s src off] streams the row [src.(off) .. src.(off + cols - 1)]
    (copied if new). *)

val emitted : sink -> int
(** Rows emitted so far, duplicates included (the pre-dedup count). *)

val contents : sink -> t
(** The distinct rows in first-occurrence order, sharing the sink's
    storage: nothing is copied, and the sink must not be emitted to
    afterwards. *)

val dedup : t -> t
(** Duplicate elimination through a {!sink}, preserving first
    occurrences. *)

val sorted_distinct : t -> rank:int array -> int array
(** [sorted_distinct r ~rank] lists [r]'s row indexes with the rows in
    ascending lexicographic order of [rank.(cell)], one index per run of
    equal rows.  [rank] must be injective over the codes [r] holds (a
    {!Rdf.Dictionary.ranks} snapshot).  A zero-width relation with rows
    has one distinct row, index [0]. *)

val to_list : t -> int array list
(** All rows, in order. *)
