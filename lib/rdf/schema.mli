(** RDF Schema constraints (Figure 2, bottom) and their closure.

    A schema is a set of constraints of four kinds — subclass, subproperty,
    domain typing and range typing — interpreted under the open-world
    assumption.  This module stores the declared constraints and precomputes
    their saturation (the schema-level fixpoint of the RDFS entailment
    rules), which both graph saturation and query reformulation rely on:

    - subclass and subproperty transitivity;
    - domain/range propagation through subproperties
      ([p ⊑ q] and [q domain c] entail [p domain c]);
    - domain/range propagation through subclasses
      ([p domain c] and [c ⊑ c'] entail [p domain c']).

    Two RDF databases have the same schema iff their saturations have the
    same RDFS statements (Definition 3.2); {!equal_closure} decides this. *)

type constr =
  | Subclass of Term.t * Term.t     (** [c rdfs:subClassOf c'] *)
  | Subproperty of Term.t * Term.t  (** [p rdfs:subPropertyOf p'] *)
  | Domain of Term.t * Term.t       (** [p rdfs:domain c] *)
  | Range of Term.t * Term.t        (** [p rdfs:range c] *)

type t
(** A schema: declared constraints plus their precomputed closure. *)

val empty : t
(** The schema with no constraints. *)

val of_constraints : constr list -> t
(** Builds a schema and computes its closure.  Raises [Invalid_argument] if
    a constraint mentions a literal or blank node where a class or property
    URI is expected. *)

val add : constr -> t -> t
(** [add c s] is the schema [s] extended with [c] (closure recomputed). *)

val constraints : t -> constr list
(** The declared (non-closed) constraints, in insertion order. *)

val closure : t -> constr list
(** All constraints in the schema saturation, including the declared ones.
    Reflexive subclass/subproperty constraints are omitted. *)

val constr_to_triple : constr -> Triple.t
(** The RDF triple stating a constraint (Figure 2). *)

val constr_of_triple : Triple.t -> constr option
(** Inverse of {!constr_to_triple}; [None] if the triple is not an RDFS
    constraint. *)

val classes : t -> Term.Set.t
(** All classes mentioned by the declared constraints. *)

val properties : t -> Term.Set.t
(** All (application-domain) properties mentioned by the constraints. *)

val super_classes : t -> Term.t -> Term.Set.t
(** [super_classes s c]: all [c'] such that [c ⊑* c'] in the closure,
    excluding [c] itself (unless the subclass graph is cyclic). *)

val sub_classes : t -> Term.t -> Term.Set.t
(** [sub_classes s c]: all [c'] with [c' ⊑* c], excluding [c]. *)

val super_properties : t -> Term.t -> Term.Set.t
(** [super_properties s p]: all [p'] with [p ⊑* p'], excluding [p]. *)

val sub_properties : t -> Term.t -> Term.Set.t
(** [sub_properties s p]: all [p'] with [p' ⊑* p], excluding [p]. *)

val domains : t -> Term.t -> Term.Set.t
(** [domains s p]: the closed set of domain classes of property [p], i.e.
    every [c] such that a fact [x p y] entails [x rdf:type c]. *)

val ranges : t -> Term.t -> Term.Set.t
(** [ranges s p]: the closed set of range classes of [p]. *)

val properties_with_domain : t -> Term.t -> Term.Set.t
(** [properties_with_domain s c]: all properties [p] such that a fact
    [x p y] entails [x rdf:type c] — the backward-chaining dual of
    {!domains}, used by reformulation rules. *)

val properties_with_range : t -> Term.t -> Term.Set.t
(** Backward-chaining dual of {!ranges}. *)

val is_subclass : t -> Term.t -> Term.t -> bool
(** [is_subclass s c c'] holds iff [c ⊑* c'] in the closure (reflexively). *)

val equal_closure : t -> t -> bool
(** Whether two schemas have the same saturation (same-schema relation of
    Definition 3.2). *)

val size : t -> int
(** Number of declared constraints. *)

val pp : Format.formatter -> t -> unit
(** Prints the declared constraints, one per line. *)
