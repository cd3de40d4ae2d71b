(** Structured diagnostics: the common currency of the static analysis
    layer.

    Every check — the semantic query lint, the Definition 3.3/3.4 cover
    checks and the physical-plan verifier — reports its findings as values
    of {!t}: a severity, a stable machine-readable code (["QL002"],
    ["PV003"], …), a context naming what was analysed (query, fragment,
    operator) and a human message.  Stable codes let the mutation
    self-tests assert {e which} invariant tripped, and let CI grep for
    error-severity findings. *)

type severity = Info | Warning | Error

type t = {
  severity : severity;
  code : string;     (** stable diagnostic code, e.g. ["CV004"] *)
  context : string;  (** what was analysed, e.g. ["lubm:Q02/fragment 1"] *)
  message : string;  (** human-readable explanation *)
}

val error : code:string -> context:string -> string -> t
(** An [Error]-severity diagnostic: the artefact violates an invariant and
    executing it could produce wrong answers. *)

val warning : code:string -> context:string -> string -> t
(** A [Warning]: legal but suspicious — likely wasted work or an empty
    result. *)

val info : code:string -> context:string -> string -> t
(** An [Info]: a noteworthy property, not a defect. *)

val severity_to_string : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val is_error : t -> bool
(** Whether the diagnostic has [Error] severity. *)

val has_errors : t list -> bool
(** Whether any diagnostic in the list has [Error] severity. *)

val errors : t list -> t list
(** The [Error]-severity diagnostics of a list. *)

val to_string : t -> string
(** Human rendering: [severity[CODE] context: message]. *)

val render : t -> string
(** Machine rendering: tab-separated [severity], [code], [context],
    [message] — one diagnostic per line, greppable and parseable. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer using {!to_string}. *)

val summary : t list -> string
(** E.g. ["2 errors, 1 warning, 3 infos"]; ["clean"] when empty. *)

val catalog : (string * string) list
(** Every diagnostic code with a one-line description, in code order —
    the table printed by [rdfqa check --codes] and kept in sync with
    DESIGN.md. *)

val describe : string -> string option
(** The catalog entry for a code, if any. *)
