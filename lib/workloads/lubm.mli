(** The LUBM workload (Section 5.1): the univ-bench ontology's RDFS
    fragment, a seeded scalable data generator, and the 28 evaluation
    queries.

    The ontology reproduces the reformulation structure the paper reports:
    the open triple [x rdf:type y] reformulates into 188 CQs (Table 1),
    [x ub:degreeFrom u] into 4, [x ub:memberOf u] into 3, making the
    motivating queries q1 and q2 reformulate into 2,256 and 318,096 CQs
    (Tables 1-3).  The generator is deterministic given a seed and scales
    linearly with the number of universities (about 3,045 triples per
    university: LUBM-8 has 24,356, LUBM-40 121,798); like the paper's setup, only {e explicit} triples are
    produced — implicit class/property memberships are left to reasoning
    (e.g. [ub:degreeFrom] facts exist only through its three
    sub-properties). *)

val ns : string
(** The [ub:] namespace prefix. *)

val schema : Rdf.Schema.t
(** The univ-bench RDFS schema (subclass / subproperty / domain / range). *)

val university : int -> Rdf.Term.t
(** [university i] is the URI of the [i]-th generated university, the kind
    of constant the evaluation queries mention. *)

type scale = { universities : int }
(** Generator scale.  A 1M-triple run needs about 330 universities; unit
    tests use 1-2. *)

val generate : ?seed:int -> scale -> Store.Encoded_store.t
(** Generates a dataset directly into an encoded store (schema attached).
    Deterministic for a fixed seed (default 2015). *)

val generate_graph : ?seed:int -> scale -> Rdf.Graph.t
(** Same data as a graph (small scales / tests). *)

val queries : (string * Query.Bgp.t) list
(** The 28 evaluation queries [("Q01", q); …], in paper order: Q01 is
    Motivating Example 1's q1 and Q28 Motivating Example 2's q2; the rest
    span the reformulation-size and result-size spectrum of Table 4. *)

val query : string -> Query.Bgp.t
(** Lookup by name ("Q01" … "Q28").  Raises [Not_found]. *)
