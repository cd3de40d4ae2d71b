(** Store-version-aware memoization across the query-answering pipeline.

    Reformulation-based query answering pays a per-query planning cost —
    CQ→UCQ reformulation, cover search, JUCQ evaluation — that repeated
    traffic recomputes verbatim.  This module memoizes the three expensive
    stages in four tiers, each keyed to the exact slice of store state it
    depends on:

    - {b tier 1, reformulation} (schema-versioned): canonical CQ →
      {!Query.Ucq.t}.  A reformulation depends only on the RDFS schema, so
      entries survive arbitrary fact updates; a schema change starts a
      fresh generation (new {!Reformulation.Reformulate.t} engine, empty
      table).  This subsumes the query-level memo the reformulation engine
      itself used to carry — which, being version-blind, would have served
      stale unions after a schema-changing update.
    - {b tier 2, cover/cost} (schema- {e and} data-versioned): per
      (scope, query, cover) JUCQ reformulations, cover costs and fragment
      costs, shared by ECov/GCov searches across systems.  Costs read data
      statistics, so any effective fact change flushes the tier.  [scope]
      isolates incomparable cost oracles (engine profile, oracle choice,
      calibrated coefficients).
    - {b tier 3, answers} (schema- and data-versioned, bounded): full
      result relations plus planning metadata in a byte-accounted LRU
      ({!Lru}).  Any effective store change flushes it.
    - {b tier 4, fragments} (schema-versioned, footprint-scoped, bounded):
      charge-exact snapshots of the fragment UCQs JUCQ evaluation has
      executed, filled on demand ({!fragment}) and shared by every system
      on the cache.  A fact change drops only the entries whose property
      footprint it touches; a schema change drops them all.

    All entries are pure functions of (key, store snapshot); probes happen
    under one internal lock with computation outside it and first-insert
    wins, so concurrent domains agree and cached values keep the physical
    identity the engine's plan caches key on.  Per-tier hit/miss/eviction
    counters are kept; tiers 1-3 mirror them to {!Obs} counters (visible
    in [rdfqa trace]) when tracing is enabled, and tier 4, which tracing
    bypasses, to the [views.*] metric families. *)

module Lru : module type of Lru
(** Re-exported: the library root module hides its siblings. *)

type mode =
  | Off          (** no memoization (version tracking still applies) *)
  | On           (** all four tiers *)
  | Answers_off
      (** tiers 1-2 only: plan caching without result or fragment
          caching *)

val modes : (string * mode) list
(** Each mode under its command-line name: ["on"], ["off"],
    ["answers-off"]. *)

type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;
      (** LRU evictions (tiers 3-4) plus entries dropped by version-driven
          invalidation (all tiers). *)
  entries : int;  (** live entries *)
  bytes : int;    (** live byte weight (tiers 3-4; 0 elsewhere) *)
}

type stats = {
  reformulation : tier_stats;
  cover : tier_stats;
  answer : tier_stats;
  fragment : tier_stats;
}

type t
(** A cache bound to one store.  Shareable across systems (the benchmark
    harness runs three engine profiles over one store) and across domains. *)

val create :
  ?mode:mode ->
  ?max_terms:int ->
  ?answer_capacity_bytes:int ->
  ?reformulator:Reformulation.Reformulate.t ->
  Store.Encoded_store.t ->
  t
(** A cache over a store.  [mode] defaults to [On].
    [max_terms] is forwarded to the reformulation engines built per schema
    generation.  [answer_capacity_bytes] bounds tier 3 (default 64 MiB);
    tier 4 holds at most 32 MiB.
    [reformulator] seeds the current generation's engine (it must be bound
    to the store's current schema); one is built from the store otherwise. *)

val store : t -> Store.Encoded_store.t
val mode : t -> mode

val set_mode : t -> mode -> unit
(** Changes the mode in place.  Existing entries are kept (they are
    version-checked on every probe); disabled tiers simply stop being
    consulted. *)

val stats : t -> stats
(** Counter snapshot.  Hits/misses/evictions are cumulative since
    creation; entries/bytes reflect the live tables. *)

val reformulator : t -> Reformulation.Reformulate.t
(** The current schema generation's reformulation engine.  Do not retain
    across updates: a schema change replaces it. *)

val reformulate : t -> Query.Bgp.t -> Query.Ucq.t
(** Tier-1 memoized CQ→UCQ reformulation against the store's {e current}
    schema.  In {!Off} mode this still reformulates correctly (against the
    current generation's engine) — it just never memoizes.
    @raise Reformulation.Reformulate.Too_large as the underlying engine. *)

(** {2 Tier 2: cover/cost entries for one (scope, query)} *)

type tier2
(** A handle scoping tier-2 probes to one cost context and query.  Obtain
    one per search ({!Objective} creation); it pins the generation key
    prefix but every probe still revalidates versions. *)

val tier2 : t -> scope:string -> query_key:string -> tier2 option
(** [None] when the mode is {!Off} (callers then keep only their private
    per-search memo).  [scope] must identify everything the costs depend
    on besides the query: profile name, cost oracle, calibration. *)

val t2_find_jucq : tier2 -> string -> Query.Jucq.t option
val t2_add_jucq : tier2 -> string -> Query.Jucq.t -> Query.Jucq.t
(** First-insert-wins: the returned JUCQ is the winner, preserving the
    physical identity the engine's plan caches key on. *)

val t2_find_cost : tier2 -> string -> float option
val t2_add_cost : tier2 -> string -> float -> unit
val t2_find_fragment : tier2 -> string -> float option
val t2_add_fragment : tier2 -> string -> float -> unit

(** {2 Tier 3: answers} *)

type answer_entry = {
  answers : Engine.Relation.t;
  order : int array option Atomic.t;
      (** the rows' canonical order, filled on first use and then reused
          by every hit ({!Rqa.Answering.order}) *)
  cover : Query.Jucq.cover option;
  union_terms : int;
  fragment_terms : int list;
  estimated_cost : float;
  covers_explored : int;
}
(** The cacheable part of an answering report (timings excluded: a cache
    hit reports its own, near-zero, times). *)

val find_answer : t -> string -> answer_entry option
(** Tier-3 probe; always [None] (and uncounted) in {!Off} and
    {!Answers_off} modes.  The key must cover strategy, engine profile,
    cost oracle and query — versions are the cache's business. *)

val add_answer : t -> string -> answer_entry -> unit
(** Inserts an answer (byte weight estimated from the relation's
    dimensions), evicting LRU entries beyond the byte budget.  A no-op in
    {!Off} and {!Answers_off} modes. *)

val stats_to_string : stats -> string
(** One-line rendering: per-tier [hits/lookups] plus eviction and byte
    figures, for CLI output. *)

(** {2 Tier 4: fragments} *)

val fragment :
  t ->
  Engine.Executor.t ->
  Query.Bgp.t * Query.Ucq.t ->
  Engine.Executor.fragment_snapshot option
(** The per-fragment probe {!Engine.Executor.eval_jucq} takes as
    [?views]: [fragment t ex] answers a fragment's (cover query, tier-1
    reformulation) with a snapshot to replay.  A miss records the UCQ
    with [ex]'s plans ({!Engine.Executor.record_fragment}, outside the
    lock) and installs it, first insert winning; an entry is only served
    for the very UCQ it was recorded from.  [None] in {!Off} and
    {!Answers_off} modes, and when recording gives up at [ex]'s profile
    limits: the caller then evaluates the fragment live. *)
