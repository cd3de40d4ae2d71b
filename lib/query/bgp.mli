(** SPARQL conjunctive queries, a.k.a. Basic Graph Pattern (BGP) queries
    (Section 2.2).

    A BGP query is written [q(x̄) :- t1, …, tα] where each [ti] is a triple
    pattern and the head terms [x̄] are the distinguished variables.  After
    query reformulation, head positions may also hold constants (e.g.
    [q(x, Book) :- x rdf:type Book] in Example 4), so head entries are
    pattern terms, not just variables.

    Blank nodes in queries behave exactly like non-distinguished variables;
    {!normalize} replaces them accordingly, and all other operations assume
    normalized queries. *)

type pattern_term =
  | Var of string        (** a query variable, e.g. [?x] *)
  | Const of Rdf.Term.t  (** a constant URI/literal *)

type atom = {
  s : pattern_term;  (** subject position *)
  p : pattern_term;  (** property position *)
  o : pattern_term;  (** object position *)
}
(** A triple pattern [s p o]. *)

type t = {
  head : pattern_term list;  (** distinguished terms [x̄] *)
  body : atom list;          (** the BGP [t1, …, tα] *)
}

val pattern_term_compare : pattern_term -> pattern_term -> int
(** Total order on pattern terms (variables before constants). *)

val pattern_term_equal : pattern_term -> pattern_term -> bool
(** Equality on pattern terms. *)

val atom_compare : atom -> atom -> int
(** Lexicographic order on atoms. *)

val atom_equal : atom -> atom -> bool
(** Component-wise equality on atoms. *)

val atom : pattern_term -> pattern_term -> pattern_term -> atom
(** [atom s p o] builds a triple pattern. *)

val make : pattern_term list -> atom list -> t
(** [make head body] builds a query.  Raises [Invalid_argument] if the body
    is empty or a head variable does not occur in the body. *)

val atom_vars : atom -> string list
(** Variables of one atom, without duplicates, in position order. *)

val vars : t -> string list
(** All body variables, without duplicates, in first-occurrence order. *)

val head_vars : t -> string list
(** The distinguished variables (variables occurring in the head). *)

val normalize : t -> t
(** Replaces blank-node constants by fresh non-distinguished variables. *)

val dedup_body : t -> t
(** Removes duplicate body atoms (a BGP is a {e set} of triple patterns:
    syntactic duplicates are semantically inert).  The body is sorted. *)

val atoms_connected : atom -> atom -> bool
(** Whether two atoms share at least one variable. *)

val fragment_connected : atom list -> atom list -> bool
(** Whether two atom sets share at least one variable. *)

val is_connected : atom list -> bool
(** Whether the join graph of the atom set is connected (no cartesian
    product).  The empty set and singletons are connected. *)

val apply_subst : (string * Rdf.Term.t) list -> t -> t
(** Applies a variable-to-constant substitution to head and body. *)

val canonical : t -> t
(** A canonical representative of the query modulo renaming of
    non-distinguished variables and reordering of body atoms; two
    reformulations that are syntactically isomorphic map to equal canonical
    forms, enabling duplicate elimination in unions. *)

val raw_compare : t -> t -> int
(** Structural order on queries (no canonicalization): cheap, but
    distinguishes isomorphic queries. *)

val equal : t -> t -> bool
(** Syntactic equality up to {!canonical}. *)

val compare : t -> t -> int
(** Total order compatible with {!equal}: compares canonical forms.  For
    bulk deduplication, canonicalize once and use {!raw_compare}. *)

val eval : Rdf.Graph.t -> t -> Rdf.Term.t list list
(** Reference evaluation [q(G)] against the {e explicit} triples of a graph
    (Section 2.2): all assignments of body variables to [Val(G)] matching
    every atom, projected on the head.  Set semantics; results sorted.
    This naive evaluator is the specification the storage engine is tested
    against, not the fast path. *)

val answer : Rdf.Graph.t -> t -> Rdf.Term.t list list
(** Query answering [q(G∞)]: evaluation against the saturation (the
    complete answer set mandated by the SPARQL semantics). *)

val to_string : t -> string
(** Conjunctive-query notation: [q(x̄) :- t1, …, tn]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer using {!to_string} notation. *)
