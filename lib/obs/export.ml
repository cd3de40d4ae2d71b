let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers must be finite; traces clamp the few model estimates that
   can overflow to the "unknown" sentinel. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "-1"

(* Timestamps need full microsecond precision: %g would collapse epoch
   microseconds (~1.8e15) to a common prefix. *)
let json_time f = if Float.is_finite f then Printf.sprintf "%.3f" f else "-1"

let attrs_obj attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         attrs)
  ^ "}"

let meta_line ?(store_bytes = -1) () =
  let gc = Gc.quick_stat () in
  Printf.sprintf
    "{\"type\":\"meta\",\"schema\":2,\"generator\":\"rdfqa\",\"jobs\":%d,\"effective_jobs\":%d,\"gc_minor_collections\":%d,\"gc_major_collections\":%d,\"gc_heap_words\":%d,\"store_bytes\":%d}"
    (Par.current_jobs ()) (Par.effective_jobs ())
    gc.Gc.minor_collections gc.Gc.major_collections gc.Gc.heap_words
    store_bytes

let query_line name =
  Printf.sprintf "{\"type\":\"query\",\"name\":\"%s\"}" (json_escape name)

let span_line (e : Trace.event) =
  Printf.sprintf
    "{\"type\":\"span\",\"name\":\"%s\",\"start_us\":%s,\"dur_us\":%s,\"depth\":%d,\"attrs\":%s}"
    (json_escape e.Trace.name)
    (json_time e.Trace.start_us)
    (json_time e.Trace.dur_us)
    e.Trace.depth
    (attrs_obj e.Trace.attrs)

let estimate_line (e : Trace.estimate) =
  Printf.sprintf
    "{\"type\":\"estimate\",\"label\":\"%s\",\"est\":%s,\"actual\":%s,\"q_error\":%s}"
    (json_escape e.Trace.label)
    (json_float e.Trace.est)
    (json_float e.Trace.actual)
    (json_float (Trace.q_error ~est:e.Trace.est ~actual:e.Trace.actual))

let op_line ~path (n : Op_stats.t) =
  Printf.sprintf
    "{\"type\":\"op\",\"path\":\"%s\",\"kind\":\"%s\",\"label\":\"%s\",\"rows_in\":%d,\"rows_out\":%d,\"index_probes\":%d,\"hash_inserts\":%d,\"hash_collisions\":%d,\"work_units\":%d,\"est_rows\":%s}"
    (json_escape path)
    (Op_stats.kind_name n.Op_stats.kind)
    (json_escape n.Op_stats.label)
    n.Op_stats.rows_in n.Op_stats.rows_out n.Op_stats.index_probes
    n.Op_stats.hash_inserts n.Op_stats.hash_collisions n.Op_stats.work_units
    (json_float n.Op_stats.est_rows)

let counter_line (name, value) =
  Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}"
    (json_escape name) value

let jsonl ?query ?ops ~events ~estimates ~counters () =
  let buf = Buffer.create 4096 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  (match query with Some q -> line (query_line q) | None -> ());
  List.iter (fun e -> line (span_line e)) events;
  List.iter (fun e -> line (estimate_line e)) estimates;
  (match ops with
  | Some root ->
      Op_stats.fold (fun () ~path n -> line (op_line ~path n)) () root
  | None -> ());
  List.iter (fun c -> line (counter_line c)) counters;
  Buffer.contents buf

let chrome events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i (e : Trace.event) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1,\"args\":%s}"
           (json_escape e.Trace.name)
           (json_time e.Trace.start_us)
           (json_time e.Trace.dur_us)
           (attrs_obj e.Trace.attrs)))
    events;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
