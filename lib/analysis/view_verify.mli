(** Soundness checks for serving materialized views in place of query
    fragments (the RF002/RF003 diagnostics).

    Cache tier 4 keys fragment snapshots by the canonical cover-query
    string; a keyed snapshot is only served when it is {e the} rewrite the
    use site would otherwise evaluate and its contents are stamped at the
    store's current versions.  These functions verify both halves and are
    run through {!Plan_verify.check_exn} on every view hit, so a planner
    bug that would serve a wrong or stale view rejects the statement
    instead of silently corrupting answers. *)

val verify_rewrite :
  context:string ->
  head:string list ->
  arity:int ->
  terms:int ->
  cq:Query.Bgp.t ->
  ucq:Query.Ucq.t ->
  Diagnostic.t list
(** [verify_rewrite ~context ~head ~arity ~terms ~cq ~ucq] checks a view
    definition (its stored [head], recorded [arity] and union [terms])
    against the use-site fragment: cover query [cq] and its reformulation
    [ucq].  Emits [RF002] errors on any mismatch — a keyed definition
    that is not a sound rewrite of the fragment. *)

val verify_freshness :
  context:string ->
  def_schema:int ->
  def_data:int ->
  schema:int ->
  data:int ->
  Diagnostic.t list
(** [verify_freshness ~context ~def_schema ~def_data ~schema ~data]
    checks the view tier's version stamps against the store's current
    schema/data versions.  Emits [RF003] when the contents about to be
    served predate the store state — stale-view-at-execution. *)
