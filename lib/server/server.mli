(** The `rdfqa serve` endpoint: a long-lived concurrent query server.

    One process serves many simultaneous clients over the {!Protocol} line
    protocol on a TCP socket — a thread per connection, each with its own
    {!Rqa.Answering.system} (private engine, so per-request charge
    counters never race) sharing one store and one cache.  Reads and
    writes coordinate through {!Store.Epoch}: every [QUERY] runs inside a
    read section pinning the store's epoch (the
    [schema_version]/[data_version] pair cannot move under it), every
    [INSERT]/[DELETE] runs inside a write section that drains pinned
    readers first and re-warms the interned vocabulary when the schema
    moved.  Connection threads are systhreads of one domain, taking turns
    on its runtime lock, and each request's UCQ/JUCQ evaluation runs on
    that one domain exactly as the single-shot CLI's does, so answers stay
    bit-identical to `rdfqa query` for any interleaving — the determinism
    contract under real traffic.

    Answer path: a read's result stays dictionary-encoded until its bytes
    are written.  {!Engine.Executor.order} sorts the rows by dictionary
    rank; each field is then copied from a table of escaped wire forms
    ([Protocol.escape (Term.to_string v)]) that every connection shares
    and that renders each code at most once per server lifetime.  The
    response streams to the socket through the connection's
    [out_channel] (one fixed 64 KB buffer) by {!Protocol.output_row},
    one channel call per row, never a buffer holding a whole payload.  An
    answer tier hit reuses the order its miss computed
    ({!Rqa.Answering.order}).  Answering,
    ordering and rendering all finish before the status line is written,
    so an [ERR] never lands inside a payload.  The bytes are those of
    [Protocol.stuff (Protocol.encode_row (List.map Term.to_string row))]
    over {!Engine.Executor.decode}'s rows.

    Cost admission: with [budget] set, each query's SCQ-cover JUCQ is
    checked by {!Analysis.Cost_verify.admission} before execution and
    provably-doomed statements are refused with [ERR] (the global
    [RDFQA_VERIFY_COST] switch stays off, so cover choice is untouched).

    The [server.*] metric families (connections, requests, errors,
    rejected, writes, inflight, epoch) register at module initialization:
    any binary linking this module exports them — zero-valued when idle —
    through the usual [lib/metrics] Prometheus path.  The [inflight] and
    [epoch] gauges, and the [store.*] gauges of the served store, are
    sampled when a snapshot or [PROM] scrape is taken, never pushed: a
    write section does work in proportion to the triples it changes. *)

module Protocol : module type of Protocol
(** The wire protocol, re-exported: [server.ml] names the library, so
    this is the only path clients and tests reach {!Protocol} through. *)

type config = {
  host : string;            (** bind address, e.g. ["127.0.0.1"] *)
  port : int;               (** TCP port; [0] binds an ephemeral port *)
  strategy : Rqa.Answering.strategy;  (** default answering strategy *)
  profile : Engine.Profile.t;
  cache_mode : Cache.mode;  (** mode of the cache every connection shares *)
  budget : int option;      (** per-request cost admission budget *)
  warm : Query.Bgp.t list;  (** workload queries to pre-intern at boot *)
}

val default_config : config
(** Loopback, ephemeral port, GCov, postgres-like profile, cache on, no
    budget, no warm-up queries. *)

type t

val start : config -> Store.Encoded_store.t -> t
(** Binds and listens, pre-interns the constants of [config.warm] plus the
    schema vocabulary ({!Rqa.Answering.warm_up}, re-run inside each
    schema-changing write; no reformulation is built), and spawns the
    accept loop on a background thread.  Raises [Unix.Unix_error] when the
    address is unavailable. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port = 0]). *)

val epoch : t -> Store.Epoch.t
(** The server's epoch coordinator (stats, tests). *)

val requests_served : t -> int
(** Total requests answered (OK and ERR) since {!start}. *)

val request_stop : t -> unit
(** Asynchronously initiates shutdown: stops accepting and wakes the
    accept loop.  Safe to call from a signal handler; in-flight requests
    keep running until {!stop} drains them. *)

val wait : t -> unit
(** Blocks until the accept loop has exited (i.e. until {!request_stop} /
    {!stop} was called). *)

val stop : t -> unit
(** Graceful drain: {!request_stop}, then half-closes every client
    connection (pending requests complete and their responses are
    delivered; idle connections see EOF) and joins every connection
    thread.  Idempotent.  The caller owns the process-global {!Par} pool
    ([Par.shutdown_global] if no further work follows). *)
