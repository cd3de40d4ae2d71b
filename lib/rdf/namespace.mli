(** Namespace prefix management for compact IRI rendering.

    Query and answer listings are unreadable with full IRIs; a namespace
    table maps prefixes to IRI bases so terms render as [ub:Professor]
    instead of the 60-character original.  The longest matching base wins;
    terms under no registered base render in full N-Triples syntax. *)

type t

val empty : t
(** No prefixes registered. *)

val default : t
(** [rdf:] and [rdfs:] pre-registered. *)

val add : prefix:string -> base:string -> t -> t
(** Registers a prefix.  Raises [Invalid_argument] on an empty prefix, an
    empty base, or a prefix containing [':']. *)

val of_list : (string * string) list -> t
(** Builds a table from (prefix, base) pairs over {!default}. *)

val expand : t -> string -> string option
(** [expand t "ub:Professor"] resolves a compact name to a full IRI;
    [None] when the prefix is unknown or the input has no [':']. *)

val compact : t -> Term.t -> string
(** Renders a term, using the longest registered base that prefixes it;
    falls back to {!Term.to_string}. *)

val prefixes : t -> (string * string) list
(** The registered (prefix, base) pairs, longest base first. *)
