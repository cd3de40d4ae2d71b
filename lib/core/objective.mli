(** The search objective shared by ECov and GCov: mapping covers of a fixed
    BGP query to cover-based JUCQ reformulations and their estimated costs,
    with memoization (both algorithms revisit fragments and covers
    massively) and an exploration counter (the statistic plotted in
    Figures 7-8). *)

type t

val create :
  ?fragment_capacity:(Query.Bgp.t -> bool) ->
  ?shared:Cache.tier2 ->
  reformulate:(Query.Bgp.t -> Query.Ucq.t) ->
  jucq_cost:(Query.Jucq.t -> float) ->
  ucq_cost:(Query.Ucq.t -> float) ->
  Query.Bgp.t ->
  t
(** An objective for one query.  [reformulate] is the CQ→UCQ algorithm [A];
    [jucq_cost] the cover-reformulation cost function (Section 4.1 model,
    or an engine's EXPLAIN — Figure 9 compares both); [ucq_cost] prices a
    single fragment's reformulation, used to order fragments inside a
    cover.  [fragment_capacity] (default: always true) pre-screens a cover
    query {e before} its reformulation is constructed: when it returns
    false (the engine would refuse the fragment's union anyway), the cover
    is priced infinite without paying the construction — this is what lets
    exhaustive search traverse spaces whose worst covers have 300,000-term
    fragments.  [shared] layers the store-versioned cover/cost tier of
    {!Cache} under the private per-search memos: probes check the private
    memo, then the shared tier, and computed entries are published back, so
    repeated searches of one query skip cover pricing entirely.
    {!explored} still counts distinct covers priced {e by this objective}
    — shared hits included — keeping the search statistic identical
    between cold and warm runs.

    [reformulate] is wrapped in a per-search fragment memo keyed by the
    cover query itself (structural equality): a fragment's reformulation
    does not depend on the cover holding it, so each distinct cover query
    reaches [reformulate] at most once per objective at jobs 1, however
    many covers share it.  Under {!prime} on several domains, two domains
    may race on one cover query; the first insert wins and every caller
    gets that one physical UCQ.  [Reformulate.Too_large] is memoized like
    a result. *)

val query : t -> Query.Bgp.t
(** The query under optimization. *)

val reformulate : t -> Query.Bgp.t -> Query.Ucq.t
(** The memoized reformulator: the UCQ this search priced for a cover
    query, physically.  Building the chosen cover's JUCQ through it
    ([Jucq.make ~reformulate:(reformulate t)]) reuses the search's
    reformulations, keeps the cover's own fragment order, and hands the
    cost model UCQs whose figures it has already computed. *)

val jucq_of : t -> Query.Jucq.cover -> Query.Jucq.t
(** The cover-based JUCQ reformulation of a cover (Theorem 3.1), memoized.
    The memo is keyed by the {e sorted} cover, so two covers listing the
    same fragments in different orders share one entry, whose fragments
    come in the order of whichever was seen first ({!cover_cost} shares
    that key).  Do not execute the result for a cover listed in another
    order: the plan verifier rejects a JUCQ whose fragments do not follow
    its cover, and the fragment order drives the join order.  Build the
    executed JUCQ with [Jucq.make ~reformulate:(reformulate t)] instead. *)

val cover_cost : t -> Query.Jucq.cover -> float
(** Estimated cost of a cover's reformulation, memoized.  Each distinct
    cover costed increments {!explored}. *)

val prime : Par.t -> t -> Query.Jucq.cover list -> unit
(** [prime pool t covers] fills the JUCQ and cost caches for [covers],
    fanning the uncached covers' reformulation + costing out over [pool]
    and memoizing sequentially in list order — observationally equivalent
    to calling {!cover_cost} on each cover in order (same cache contents,
    same {!explored} growth), just concurrent.  ECov and GCov call this on
    each enumeration chunk / neighbor batch before their unchanged
    sequential selection logic, which is how parallel cover search keeps
    choosing bit-identical covers. *)

val fragment_cost : t -> Query.Jucq.fragment -> float
(** Estimated cost of one fragment's UCQ reformulation (ordering heuristic
    for redundancy pruning), memoized. *)

val explored : t -> int
(** Number of distinct covers whose cost has been estimated. *)
