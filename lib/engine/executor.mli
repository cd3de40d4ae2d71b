(** The relational execution engine: evaluates CQs, UCQs and JUCQs against
    an {!Store.Encoded_store} under an engine {!Profile}.

    This is the system the paper delegates reformulated queries to ("any
    system capable of evaluating selections, projections, joins and
    unions").  Physical design and operators:

    - conjunctive queries run as index-nested-loop self-joins over the
      six-way-indexed [Triples] table, with a greedy selectivity-based atom
      order chosen per query — what an RDBMS does with such plans;
    - UCQs stream their member CQs' rows through one hash set
      ({!Relation.sink}) that keeps first occurrences only, like an
      RDBMS's UNION with streaming hash duplicate elimination (set
      semantics); the set's key store is the result;
    - JUCQs materialize each fragment UCQ that way and combine them with
      the profile's join algorithm (hash join, or MySQL-style block nested
      loops), then project the original head: through a sink, or by a
      plain copy when the head keeps every joined column.

    All work is metered: every index probe, tuple emission, hash insert and
    comparison counts against the profile's operation budget, and profile
    capacity limits raise {!Profile.Engine_failure} — producing honestly
    the failure modes reported in Figures 4-6 (no artificial delays). *)

type t

val create : ?profile:Profile.t -> Store.Encoded_store.t -> t
(** An engine over a store.  Default profile: {!Profile.postgres_like}. *)

val store : t -> Store.Encoded_store.t
(** The underlying store. *)

val profile : t -> Profile.t
(** The engine profile. *)

val statistics : t -> Store.Statistics.t
(** Statistics over the store (shared with the optimizer). *)

val last_operations : t -> int
(** Work units consumed by the most recent statement. *)

val total_operations : t -> int
(** Monotonic total of work units charged over the engine's lifetime,
    including statements that died on a budget violation.  Never reset. *)

val statements_run : t -> int
(** Monotonic count of statements started (successful or failed). *)

val last_op_stats : t -> Obs.Op_stats.t option
(** The per-operator runtime metrics tree of the most recent statement —
    populated only while {!Obs.enabled} tracing is on; [None] otherwise,
    and [None] for a statement that failed before its tree was built. *)

val static_cq_info : t -> Query.Bgp.t -> Analysis.Cost_verify.cq_info
(** What the static cost analyzer knows about this engine's compiled plan
    for a CQ: per atom in planned join order, the exact store count of
    its constant positions and whether its variable positions are
    pairwise distinct.  [Unsat] when a body constant is absent from the
    dictionary.  Reads plan caches and count indexes only; never
    charges. *)

val cost_oracle : t -> Analysis.Cost_verify.oracle
(** The engine's profile limits and {!static_cq_info}, packaged for
    {!Analysis.Cost_verify.estimate}/[admission]. *)

val admit :
  ?budget:int -> context:string -> t -> Analysis.Cost_verify.statement -> unit
(** Pre-execution admission gate: when cost verification is enabled
    ([RDFQA_VERIFY_COST=1] or {!Analysis.Cost_verify.set_enabled}),
    statically analyze the statement and raise
    {!Analysis.Plan_verify.Rejected} with the CB* diagnostics if it
    provably fails — before any operation is charged.  No-op when
    disabled.  Called by {!eval_cq}/{!eval_ucq}/{!eval_jucq}. *)

val intern_constants : t -> Query.Bgp.t -> unit
(** Interns every constant of the query (head {e and} body) into the
    store's dictionary.  Idempotent and charge-free; data terms keep their
    codes and absent terms get fresh codes that match no triple, so
    answers never change — but operation totals stop depending on which
    query against a shared store ran first (an absent body constant
    compiles to an empty selection instead of an unsatisfiable plan).
    Server warm-up calls this for every workload query. *)

val eval_cq : t -> Query.Bgp.t -> Relation.t
(** Evaluates one CQ (no reasoning): one row per answer, one column per
    head position, values as dictionary codes.  Set semantics. *)

val eval_ucq : t -> Query.Ucq.t -> Relation.t
(** Evaluates a UCQ: union of member CQs, deduplicated.
    @raise Profile.Engine_failure on capacity/budget violations. *)

type fragment_snapshot
(** The record-and-replay image of one fragment UCQ evaluation: the
    per-disjunct charge logs, the row counts the materialization checks
    observe, and the deduplicated result relation — a cache tier-4
    entry's execution-side representation.  Recording is charge-invisible
    to the recording engine; replaying on a using engine reproduces
    exactly the observables of evaluating the same UCQ on the same store
    state (charge stream, budget-failure point, capacity checks, rows and
    their order), so answers and operation totals are bit-identical
    whether a fragment is evaluated or served from a snapshot. *)

val record_fragment : t -> Query.Ucq.t -> fragment_snapshot option
(** Materializes a fragment UCQ into a snapshot with this engine's plans.
    Never charges this engine.  [None] when a disjunct has no plan (a
    body constant absent from the dictionary) or once the logged charges
    or emitted rows pass this engine's profile limits: the caller then
    evaluates the fragment live, which fails at its own point.  Valid
    until the store's contents change under the snapshot (the cache's
    footprint rules). *)

val snapshot_bytes : fragment_snapshot -> int
(** Approximate heap bytes held by the snapshot (relation + charge
    logs). *)

val snapshot_terms : fragment_snapshot -> int
(** [Ucq.cardinal] of the recorded fragment (the using engine's
    union-capacity pre-check replays against it). *)

val snapshot_arity : fragment_snapshot -> int
(** Head arity of the recorded fragment. *)

val eval_jucq :
  ?views:(Query.Bgp.t * Query.Ucq.t -> fragment_snapshot option) ->
  ?head_sink:bool ->
  t ->
  Query.Jucq.t ->
  Relation.t
(** Evaluates a JUCQ reformulation: fragments materialized then joined,
    then the original head projected.
    [?views] is probed once per fragment with the fragment's cover query
    and reformulation; a returned snapshot replaces the fragment's
    evaluation by a charge-log replay (bit-identical observables — the
    caller is responsible for only serving snapshots recorded from the
    same UCQ on the current store state).  Probes are bypassed while
    {!Obs.enabled} tracing is on (traced statements show the real
    pipeline).
    A head that keeps every joined column cannot produce duplicates, so
    its rows are copied without a hash set; [~head_sink:true] streams
    them through one anyway, the reference the copy is tested against
    (same rows, order and charges).
    @raise Profile.Engine_failure on capacity/budget violations. *)

val order : t -> Relation.t -> int array
(** The canonical order of a result: the row indexes of [rel], one per
    distinct row, sorted lexicographically under {!Rdf.Term.compare}.
    Computed on dictionary codes through {!Rdf.Dictionary.ranks}, without
    decoding a term.  Every answer leaves the engine in this order: the
    server's payload, [rdfqa query]'s rows and {!decode}. *)

val row_decoder : t -> Relation.t -> int -> Rdf.Term.t list
(** [row_decoder t rel] snapshots the dictionary once and returns a reader
    of [rel]'s rows as terms: applied to a row index (an element of
    {!order}), it decodes that row alone. *)

val decode : t -> Relation.t -> Rdf.Term.t list list
(** The result's rows as terms, in {!order}: exactly
    [List.sort_uniq (List.compare Rdf.Term.compare)] of a row-by-row
    decode. *)

type named_rel = { columns : string list; rel : Relation.t }
(** A materialized relation with named columns — the unit the fragment
    joins operate on. *)

val hash_join : ?stats:Obs.Op_stats.t -> t -> named_rel -> named_rel -> named_rel
(** Hash join of two fragments on their shared columns (bag semantics, one
    output row per matching pair; output columns are [a]'s followed by
    [b]'s non-shared ones).  Builds on the smaller input, probes the
    larger.  Exposed for differential testing against reference joins.
    [?stats] receives the operator's runtime metrics (rows in/out, hash
    inserts/collisions, probes); it never affects the work accounting.
    @raise Profile.Engine_failure on capacity/budget violations. *)

val block_nested_loop_join :
  ?stats:Obs.Op_stats.t -> t -> named_rel -> named_rel -> named_rel
(** The MySQL-profile quadratic join; same semantics as {!hash_join}, same
    testing purpose. *)

val explain_cost : t -> Query.Jucq.t -> float
(** The engine's {e internal} optimizer cost estimate for a JUCQ — the
    [EXPLAIN] analogue used as the alternative cost oracle in Figure 9.
    Deliberately distinct from the Section 4.1 cost model: bottom-up
    per-plan-operator estimation with this engine's own constants. *)
