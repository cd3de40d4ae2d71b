(** The dictionary-encoded triple table of Section 5.1.

    RDF facts live in a [Triples(s, p, o)] table whose values are integer
    codes (see {!Rdf.Dictionary}); the table is indexed by all permutations
    of the [s, p, o] columns, realized here as posting-list indexes over
    every bound-position combination ([s], [p], [o], [sp], [po], [so]) plus
    a full-triple membership check — the access paths a six-fold-indexed
    RDBMS table offers.  RDFS constraints are {e not} stored in the table;
    they are kept apart in the accompanying {!Rdf.Schema}, exactly as in
    the paper's experimental setup. *)

type t

type pattern = {
  ps : int option;  (** subject code, [None] for a wildcard *)
  pp : int option;  (** property code *)
  po : int option;  (** object code *)
}
(** A triple-pattern access: bound positions carry codes. *)

val create : Rdf.Schema.t -> t
(** An empty store with the given schema. *)

val of_graph : Rdf.Graph.t -> t
(** Loads a graph's facts (the explicit triples only). *)

val insert : t -> Rdf.Triple.t -> unit
(** Inserts one data triple (encoding its values), skipping duplicates.
    Raises [Invalid_argument] on an RDFS-constraint triple. *)

val insert_code : t -> int -> int -> int -> unit
(** Inserts an already-encoded triple, skipping duplicates. *)

val delete : t -> Rdf.Triple.t -> bool
(** Deletes one data triple; returns whether it was stored.  The store is
    compacted by swap-remove: the last triple takes over the deleted
    triple's id, so ids are dense but not stable across deletions.  Each
    triple's position in its six postings is kept, so a delete costs O(1)
    per posting, not a scan.  Never grows the dictionary.  Raises
    [Invalid_argument] on an RDFS-constraint triple. *)

val delete_code : t -> int -> int -> int -> bool
(** Deletes an already-encoded triple; returns whether it was stored. *)

val insert_triples : t -> Rdf.Triple.t list -> int * int
(** Bulk insert routing RDFS-constraint triples into the schema (closure
    recomputed) and the rest into the fact table.  Returns
    [(schema_changes, data_changes)]: the number of {e effective} changes
    of each kind — duplicates count zero and bump no version. *)

val delete_triples : t -> Rdf.Triple.t list -> int * int
(** Bulk delete, the inverse of {!insert_triples}: constraint triples
    retract declared schema constraints (schema rebuilt from the remaining
    ones), data triples leave the fact table.  Returns the effective
    [(schema_changes, data_changes)]. *)

val schema : t -> Rdf.Schema.t
(** The schema associated with the stored facts.  Mutable: constraint
    triples passed to {!insert_triples} / {!delete_triples} replace it
    (and bump {!schema_version}). *)

val dictionary : t -> Rdf.Dictionary.t
(** The value dictionary. *)

val size : t -> int
(** Number of stored triples. *)

val schema_version : t -> int
(** Monotone counter of effective RDFS-constraint changes.  Reformulation
    caches key on it: a data-only update leaves it unchanged. *)

val data_version : t -> int
(** Monotone counter of effective fact inserts and deletes.  Statistics,
    plan and answer caches key on it. *)

val version : t -> int
(** [schema_version t + data_version t]: the legacy single staleness
    counter, bumped on every effective change of either kind. *)

type change = {
  added : bool;  (** [true] for an insert, [false] for a delete *)
  cs : int;
  cp : int;
  co : int;
}
(** One effective fact-table change, in encoded form. *)

val changes_since : t -> since:int -> change list option
(** [changes_since t ~since] is the list of effective fact changes that
    took the store from data version [since] to {!data_version}, oldest
    first — or [None] when [since] is outside the bounded change log's
    window (the caller must then rebuild its derived state from scratch). *)

val encode_term : t -> Rdf.Term.t -> int option
(** The code of a term, [None] if the term does not occur. *)

val subject : t -> int -> int
(** Subject code of the [i]-th triple. *)

val property : t -> int -> int
(** Property code of the [i]-th triple. *)

val obj : t -> int -> int
(** Object code of the [i]-th triple. *)

val unsafe_subject : t -> int -> int
(** Like {!subject}, without the bounds check: [i] must be a valid triple
    id (as produced by {!select} / {!matching}).  For the engine's
    innermost loops. *)

val unsafe_property : t -> int -> int
(** Like {!property}, without the bounds check. *)

val unsafe_obj : t -> int -> int
(** Like {!obj}, without the bounds check. *)

type selection =
  | Miss               (** a fully-bound pattern that is not stored *)
  | Hit of int         (** a fully-bound pattern's triple id *)
  | Ids of Intvec.t    (** a posting list (must not be mutated) *)
  | All of int         (** every id in [0 .. n-1]: the all-wildcard shape *)
(** The symbolic result of one index access: what {!matching} materializes
    an id vector for, described without building one. *)

val select : t -> s:int -> p:int -> o:int -> selection
(** [select t ~s ~p ~o] resolves a pattern to its access path in a single
    index lookup, where each position carries a code and [-1] means a
    wildcard.  The executor's index nested loops get both the match count
    and the iteration out of one call — {!matching}'s all-wildcard and
    fully-bound shapes never materialize anything here. *)

val selected_count : selection -> int
(** Number of triple ids a selection denotes. *)

val count_codes : t -> s:int -> p:int -> o:int -> int
(** Number of triples {!select} would denote, with the same sentinel
    convention, as an O(1) index lookup.  Agrees with {!count}. *)

val matching : t -> pattern -> Intvec.t
(** Triple ids matching a pattern, served from the best index.  The result
    must not be mutated.  Patterns with all three positions bound return a
    0- or 1-element vector. *)

val count : t -> pattern -> int
(** Number of matching triples — an O(1) index lookup for every pattern
    shape (the statistics reformulation optimization relies on). *)

val mem_code : t -> int -> int -> int -> bool
(** Membership of an encoded triple. *)

val saturate : t -> t
(** A saturated copy of the store (same dictionary object): the physical
    design of saturation-based query answering. *)

val to_graph : t -> Rdf.Graph.t
(** Decodes the store back into a graph (tests, small stores only). *)

val approx_bytes : t -> int
(** An estimate of the store's heap bytes — columns, posting indexes,
    duplicate guard, change log and the (possibly shared) dictionary —
    computed in O(1) from counts the store keeps; no traversal.  It stays
    within a factor of two of the reachable heap (tested).  The
    [store.bytes] gauge and trace meta lines report this figure. *)

val publish_metrics : t -> unit
(** Registers the [store.*] gauges ([store.triples], [store.data_version],
    [store.schema_version], [store.bytes]) as samplers over [t], replacing
    those of any store published before.  They are read from the store's
    counters when a snapshot or scrape is taken, never pushed, so inserts
    and deletes do work in proportion to the triples they change. *)
