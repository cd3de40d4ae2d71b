(** Zero-dependency domain pool for parallel cover costing and the bench
    harness (the engine itself evaluates on one domain).

    A pool owns a fixed set of [jobs - 1] worker {!Domain.t}s (the calling
    domain participates too); {!parallel_map} fans an array of independent
    tasks out over them and returns the results {e in input order}, so
    callers can merge deterministically regardless of which domain computed
    what.  With [jobs = 1] (the default) no domain is ever spawned and every
    operation degrades to the plain sequential loop.

    Determinism contract: [parallel_map pool f xs] returns exactly
    [Array.map f xs] whenever each [f xs.(i)] is a pure function of its
    input.  If one or more tasks raise, every task still runs to completion
    (or failure) and the exception of the {e smallest failing index} is
    re-raised — again matching what a sequential left-to-right loop would
    surface first.

    Pools are not reentrant: a task that itself calls {!parallel_map} on a
    busy pool (or any concurrent second caller) gets the sequential
    fallback instead of deadlocking.  This is what keeps nested
    parallelism — e.g. the workload driver answering queries in parallel
    while each answer's cover search primes costs — safe by construction:
    the outermost fan-out wins, inner levels run inline. *)

type t
(** A fixed pool of worker domains. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [width - 1] worker domains, where [width] is
    [jobs] clamped to {!recommended_jobs} — requesting more domains than
    the OS grants cores cannot win (domains time-slice and every minor
    collection synchronizes all of them), so on a 1-core container
    [~jobs:4] degrades to the sequential path instead of oversubscribing.
    Set [RDFQA_JOBS_FORCE=1] to bypass the clamp (e.g. to exercise true
    multi-domain interleavings on a small machine).  [jobs <= 1] spawns
    nothing. *)

val jobs : t -> int
(** The pool's {e effective} parallelism width (including the calling
    domain), after the core clamp. *)

val requested_jobs : t -> int
(** The width the pool was asked for, before the core clamp. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains.  Idempotent. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] computes [Array.map f xs] across the pool's
    domains, dispatching indexes in chunks of [chunk] (default 1) from a
    shared atomic counter.  Results come back in input order.  Falls back
    to the sequential loop when [jobs pool <= 1], when [xs] has fewer than
    two elements, or when the pool is already busy (reentrant call). *)

val parallel_fold :
  ?chunk:int ->
  t ->
  map:('a -> 'b) ->
  fold:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** [parallel_fold pool ~map ~fold ~init xs] maps in parallel, then folds
    the results sequentially in input order — a deterministic reduce. *)

(** {1 Process-global pool}

    The cover-search algorithms, the bench harness and the CLI share one
    process-global pool sized by [--jobs] / the [RDFQA_JOBS] environment
    variable (default 1).  The pool is created lazily on first use and
    recreated when the requested width changes. *)

val env_jobs : unit -> int
(** The [RDFQA_JOBS] environment value, clamped to [>= 1]; 1 when unset or
    unparsable. *)

val recommended_jobs : unit -> int
(** The number of cores the OS grants this process
    ({!Domain.recommended_domain_count}).  Widths above it still produce
    identical results but cannot speed anything up: domains time-slice and
    every minor collection synchronizes all of them. *)

val set_jobs : int -> unit
(** Overrides the global width (clamped to [>= 1]); takes precedence over
    [RDFQA_JOBS].  The global pool is resized on its next {!get}. *)

val current_jobs : unit -> int
(** The requested global width: the last {!set_jobs} value, else
    {!env_jobs}. *)

val effective_jobs : unit -> int
(** {!current_jobs} after the core clamp — the width the global pool
    actually runs at (honest number for bench/trace metadata). *)

val get : unit -> t
(** The process-global pool at the current width, (re)created on demand.
    Safe to call from any domain. *)

val shutdown_global : unit -> unit
(** Joins and drops the process-global pool, if one exists.  The next
    {!get} recreates it, so this is a drain point (server shutdown, "no
    leaked domains" assertions), not a terminal state.  Idempotent. *)
