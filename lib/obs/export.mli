(** Trace exporters: JSON-lines events and Chrome [trace_event] JSON.

    {2 JSON-lines schema (one object per line)}

    Every line is a JSON object with a ["type"] discriminator:

    - [{"type":"meta","schema":2,"generator":"rdfqa","jobs":i,
        "effective_jobs":i}] — first line; [jobs ≥ 1] is the {e requested}
      parallelism width ([--jobs] / [RDFQA_JOBS]), [effective_jobs ≥ 1]
      the width the pool actually ran at after the core clamp
      ([effective_jobs ≤ jobs] unless [RDFQA_JOBS_FORCE=1]).
    - [{"type":"query","name":"lubm:Q01"}] — opens one query's records in a
      workload trace.
    - [{"type":"span","name":s,"start_us":f,"dur_us":f,"depth":i,
        "attrs":{...}}] — a closed span; [dur_us ≥ 0], [depth ≥ 0], attr
      values are strings.
    - [{"type":"estimate","label":s,"est":f,"actual":f,"q_error":f}] — one
      estimated-vs-actual cardinality observation; [q_error ≥ 1].
    - [{"type":"op","path":s,"kind":s,"label":s,"rows_in":i,"rows_out":i,
        "index_probes":i,"hash_inserts":i,"hash_collisions":i,
        "work_units":i,"est_rows":f}] — one plan-operator node; [path] is
      the dotted child-index path ("0", "0.1", …), [kind] one of
      {!Op_stats.kind_name}'s values, [est_rows] is [-1] when unknown.
    - [{"type":"counter","name":s,"value":i}] — a named counter total.

    [test/validate_trace.ml] checks emitted files against exactly this
    schema; keep the two in sync. *)

val json_escape : string -> string
(** Escapes a string for inclusion inside JSON double quotes. *)

val meta_line : ?store_bytes:int -> unit -> string
(** The schema-version header line, stamped with {!Par.current_jobs}, the
    honest {!Par.effective_jobs}, the process GC state at export time
    ([gc_minor_collections], [gc_major_collections], [gc_heap_words] from
    {!Gc.quick_stat}) and the loaded store's approximate heap footprint
    ([store_bytes]; [-1], the default, when no store was measured). *)

val query_line : string -> string
(** The per-query delimiter line of a workload trace. *)

val jsonl :
  ?query:string ->
  ?ops:Op_stats.t ->
  events:Trace.event list ->
  estimates:Trace.estimate list ->
  counters:(string * int) list ->
  unit ->
  string
(** Renders one query's records (no meta header): an optional ["query"]
    line, span lines, estimate lines, operator-tree lines, counter lines —
    newline-terminated. *)

val chrome : Trace.event list -> string
(** The events as a Chrome [trace_event]-format JSON document (complete
    "X"-phase events, microsecond timestamps) — loadable in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)
