(** End-to-end query answering: the strategies compared throughout the
    paper's evaluation (Section 5), over one store and engine profile.

    - {b Saturation}: pre-saturate the database, evaluate the plain CQ
      (the baseline of Figure 10);
    - {b Ucq}: the state-of-the-art flat CQ→UCQ reformulation;
    - {b Scq}: the semi-conjunctive reformulation of [13] (one-triple
      fragments);
    - {b Ecov}/{b Gcov}: the cover-based JUCQ reformulations selected by
      the exhaustive, resp. greedy, cost-driven search of Section 4.

    A {!system} bundles the raw store, its lazily saturated twin, the
    version-aware {!Cache} (reformulations, cover costs, answers, fragments),
    statistics and cost model; {!answer} runs a query under a strategy and
    reports the answers plus the planning metadata (chosen cover,
    reformulation sizes, algorithm effort) that the benchmark harness
    turns into the paper's tables and figures.  Store updates
    ({!Store.Encoded_store.insert_triples} and friends) are picked up
    automatically: every cache tier, the executor's plans, the statistics
    and the saturated twin revalidate against the store's version
    counters. *)

type strategy =
  | Saturation
  | Ucq
  | Scq
  | Ecov of Cover_space.budget
  | Gcov

val strategy_name : strategy -> string
(** Short display name ("UCQ", "GCov", …). *)

val strategies : (string * strategy) list
(** Each strategy under its command-line and protocol name:
    ["saturation"], ["ucq"], ["scq"], ["ecov"] (under
    {!Cover_space.default_budget}) and ["gcov"]. *)

type cost_oracle =
  | Paper_model   (** the Section 4.1 analytic model (calibrated) *)
  | Engine_model  (** the engine's internal estimate ({!Engine.Executor.explain_cost}) *)

type system

val make :
  ?profile:Engine.Profile.t ->
  ?calibrate:bool ->
  ?cost_oracle:cost_oracle ->
  ?reformulator:Reformulation.Reformulate.t ->
  ?cache:Cache.t ->
  Store.Encoded_store.t ->
  system
(** A query-answering system over a loaded store.  [calibrate] (default
    [false]) learns the cost coefficients by probing the engine; otherwise
    the profile defaults apply.  [cost_oracle] picks the cost function
    guiding ECov/GCov (default {!Paper_model}; Figure 9 compares both).
    [cache] lets several systems over one store share one {!Cache} (the
    benchmark harness runs three engine profiles against one store);
    it must be bound to [store].  When absent a private cache is created
    ([reformulator] then seeds its tier-1 engine). *)

val of_graph :
  ?profile:Engine.Profile.t ->
  ?calibrate:bool ->
  ?cost_oracle:cost_oracle ->
  Rdf.Graph.t ->
  system
(** Convenience: loads the graph into a store first. *)

val engine : system -> Engine.Executor.t
(** The engine over the raw (non-saturated) store. *)

val saturated_engine : system -> Engine.Executor.t
(** The engine over the saturated store (forced on first use, rebuilt when
    the store's version counters move). *)

val cache : system -> Cache.t
(** The system's cache (shared or private). *)

val warm_up : system -> Query.Bgp.t list -> unit
(** Pre-interns everything compilation could dictionary-encode on demand
    for a workload: [rdf:type], the schema's classes and properties, and
    each query's constants.  Reformulation introduces no constant outside
    that schema vocabulary, so no reformulation is built and no cache tier
    is filled.  Idempotent and answer-neutral; afterwards repeated-query
    operation totals over the shared store are stable from the first
    request (the ±2-op first-query drift). *)

val reformulator : system -> Reformulation.Reformulate.t
(** The current schema generation's CQ→UCQ reformulation engine
    ({!Cache.reformulator}).  Do not retain across schema updates. *)

val cost_model : system -> Cost_model.t
(** The calibrated Section 4.1 cost model. *)

val objective : system -> Query.Bgp.t -> Objective.t
(** A fresh search objective for a query, wired to the system's
    reformulator and selected cost oracle. *)

val scq_statement : system -> Query.Bgp.t -> Query.Jucq.t option
(** The SCQ-cover JUCQ of a normalized query: the statement static cost
    admission checks ([rdfqa check --cost], [rdfqa stats] and the
    server's per-request budget).  [None] when a fragment's reformulation
    is provably over the engine profile's union capacity (it is then never
    built) or over the reformulator's term cap. *)

type report = {
  answers : Engine.Relation.t;   (** the (deduplicated) answer relation *)
  order : int array option Atomic.t;
      (** [answers]' canonical row order once computed, shared with the
          answer tier's entry; read it through {!order} *)
  strategy : strategy;
  cover : Query.Jucq.cover option;      (** cover used (reformulation strategies) *)
  union_terms : int;             (** total CQs across fragments ([|q_ref|]-like) *)
  fragment_terms : int list;     (** per-fragment UCQ sizes, cover order ([1] for Saturation) *)
  estimated_cost : float;        (** cost the oracle assigned to the plan run *)
  covers_explored : int;         (** ECov/GCov search effort *)
  planning_ms : float;           (** reformulation + search wall-clock time *)
  execution_ms : float;          (** engine evaluation wall-clock time *)
}

val answer : system -> strategy -> Query.Bgp.t -> report
(** Answers the query under a strategy.  With answer caching on, a repeat
    of the same (strategy, query) on an unchanged store is served from
    tier 3: bit-identical answers and plan metadata, near-zero timings.
    Failing statements are never cached and fail identically warm or cold.
    @raise Engine.Profile.Engine_failure when the engine profile's limits
    are hit (the missing bars of Figures 4-6). *)

val order : system -> report -> int array
(** The report's rows in canonical order ({!Engine.Executor.order}),
    computed on first use and kept with the report — and with its answer
    tier entry, so repeated hits never sort again.  Saturated and plain
    engines share the dictionary the order is taken from. *)

val answer_terms : system -> strategy -> Query.Bgp.t -> Rdf.Term.t list list
(** Decoded, sorted answers — the test-facing surface.  All strategies
    agree with [Query.Bgp.answer] (the naive specification). *)
