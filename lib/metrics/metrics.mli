(** Process-level metrics registry: cumulative counters, gauges and
    log-linear latency/size histograms over the whole process lifetime.

    Where {!Obs} traces {e one} statement pipeline — spans, operator trees
    and calibration reports that die with the query — this module is the
    long-lived substrate a serving process reports through: cache tier
    hits, pool fan-outs, store mutation rates, engine operation totals and
    end-to-end latency distributions, all accumulated across queries and
    exported on demand in Prometheus text exposition format or as a JSONL
    snapshot.

    Design contract (mirroring the tracing layer):

    - {b one-bool-guarded}: while {!enabled} is false (the default), every
      recording entry point reduces to a single boolean test — no
      allocation, no atomic traffic — so instrumented hot paths cost
      nothing measurable, and charge totals are bit-identical whether
      metrics are on or off (tested).
    - {b domain-safe}: counters are atomics, histograms take a per-instance
      mutex on observe; any domain may record concurrently.  Unlike the
      trace sink, worker domains {e do} contribute (a process-level total
      wants all the work, not one pipeline's).
    - {b zero-dependency}: nothing beyond the OCaml standard library.

    Metric names are dotted lowercase paths (["cache.answer.hits"]).  The
    Prometheus exporter mangles them to [rdfqa_cache_answer_hits] (plus
    [_total] for counters) per the exposition-format conventions.

    {2 JSONL snapshot schema (one object per line)}

    Every line is a JSON object with a ["type"] discriminator:

    - [{"type":"meta","schema":1,"generator":"rdfqa-metrics"}] — first
      line.
    - [{"type":"counter","name":s,"value":i}] — a monotonic counter;
      [value ≥ 0].
    - [{"type":"gauge","name":s,"value":f}] — a point-in-time gauge
      (sampled gauges are evaluated at snapshot time).
    - [{"type":"histogram","name":s,"count":i,"sum":f,"min":f,"max":f,
        "p50":f,"p90":f,"p99":f,"buckets":[{"le":f,"count":i},...]}] —
      a histogram: [count ≥ 0]; [buckets] are {e cumulative} counts at
      the finite upper bounds of the non-empty buckets, non-decreasing,
      ending at most at [count] (the implicit [+Inf] bucket); quantiles
      satisfy [p50 ≤ p90 ≤ p99 ≤ max] and every estimate lands inside
      the bucket holding the true order statistic.

    [test/validate_metrics.ml] checks emitted files (and the Prometheus
    exposition) against exactly this schema; keep the two in sync. *)

val enabled : unit -> bool
(** Whether recording is on (default: off). *)

val set_enabled : bool -> unit
(** Switches recording globally.  Turning it off does not clear values. *)

val reset : unit -> unit
(** Zeroes every registered counter, gauge and histogram (registrations
    and sampled gauges are kept).  Tests and the CLI use it to scope a
    snapshot to one run. *)

(** {1 Histograms}

    Log-linear bucketing over non-negative values (latencies in ms, sizes
    in bytes): {!Histogram.sub_buckets} linear sub-buckets per power of
    two, so relative bucket width — and therefore the worst-case quantile
    estimation error — is bounded by [1/sub_buckets] of the value.  The
    geometry is fixed process-wide, which makes any two histograms
    mergeable bucket-by-bucket. *)

module Histogram : sig
  type t

  val create : unit -> t
  (** An empty histogram (its own mutex; safe to share across domains). *)

  val observe : t -> float -> unit
  (** Records one value (negative values clamp to zero).  Unconditional:
      the registry's {!val-observe} adds the {!enabled} guard. *)

  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  (** Smallest observed value; [0.] when empty. *)

  val max_value : t -> float
  (** Largest observed value; [0.] when empty. *)

  val sub_buckets : int
  (** Linear sub-buckets per power of two (8). *)

  val nbuckets : int
  (** Total bucket count, including the [[0, 1)] underflow bucket and the
      unbounded overflow bucket. *)

  val bucket_index : float -> int
  (** The bucket a value falls into: 0 for [v < 1], [nbuckets - 1] for
      values past the covered range. *)

  val bucket_bounds : int -> float * float
  (** [(lo, hi)] of a bucket: values [v] with [lo <= v < hi] land in it
      ([hi] is [infinity] for the overflow bucket). *)

  val bucket_count : t -> int -> int
  (** Observations recorded in one bucket. *)

  val quantile : t -> float -> float
  (** [quantile h q] estimates the [q]-quantile (0 < q ≤ 1) as the upper
      bound of the bucket containing the order statistic of rank
      [ceil (q * count)], clamped to the observed maximum — so the
      estimate always lies in the same bucket as the true order statistic
      (within one bucket width of it).  [0.] when empty. *)

  val merge : t -> t -> t
  (** Bucket-wise sum into a fresh histogram.  Associative and commutative
      on counts, buckets, min and max (sums are float additions). *)

  val cumulative : t -> (float * int) list
  (** Cumulative counts at the finite upper bounds of the non-empty
      buckets, in increasing bound order — the Prometheus [le] series
      (the implicit [+Inf] entry is {!count}). *)
end

(** {1 The registry}

    Metrics are registered on first use by name (idempotent: a second
    registration under the same name returns the existing instance;
    registering the same name as a different kind raises
    [Invalid_argument]).  Registration is allowed while disabled — every
    subsystem registers its metrics at module initialization, so a
    snapshot lists them all, zero-valued, even before any recording. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
(** A monotonic counter (atomic; any domain may {!add}). *)

val add : counter -> int -> unit
(** Bumps a counter (no-op when disabled; [n < 0] is ignored). *)

val counter_value : counter -> int

val gauge : ?help:string -> string -> gauge
(** A point-in-time gauge. *)

val set_gauge : gauge -> float -> unit
(** Sets a gauge (no-op when disabled). *)

val sample : ?help:string -> string -> (unit -> float) -> unit
(** [sample name f] registers a gauge whose value is [f ()] evaluated at
    snapshot time — for values that are cheap to read but pointless to
    push (GC statistics, pool width).  Re-registering a name replaces its
    sampler. *)

val install_gc_samplers : unit -> unit
(** Registers the [gc.*] sampled gauges over {!Gc.quick_stat}:
    [gc.minor_collections], [gc.major_collections], [gc.heap_words],
    [gc.compactions]. *)

val histogram : ?help:string -> string -> histogram
(** A registered histogram. *)

val observe : histogram -> float -> unit
(** Records a value (no-op when disabled). *)

(** {1 Snapshots and exporters} *)

type value =
  | Counter of int
  | Gauge of float
  | Hist of Histogram.t  (** a point-in-time copy *)

type metric = { name : string; help : string; value : value }

val snapshot : unit -> metric list
(** Every registered metric, sorted by name; sampled gauges are evaluated
    here. *)

val to_prometheus : unit -> string
(** The registry in Prometheus text exposition format: [# HELP]/[# TYPE]
    comment pairs, [rdfqa_]-prefixed mangled names, [_total]-suffixed
    counters, histograms as cumulative [_bucket{le="..."}] series plus
    [_sum]/[_count]. *)

val to_jsonl : unit -> string
(** The registry as the JSONL snapshot documented above (meta line
    first). *)

val to_text : unit -> string
(** A human-readable rendering for the CLI: one line per counter/gauge,
    count/sum/quantiles per histogram. *)
