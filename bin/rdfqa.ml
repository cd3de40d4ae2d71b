(* rdfqa: command-line front-end to the library.

   Subcommands:
     generate     produce an N-Triples or Turtle dataset (LUBM- or DBLP-style)
     query        answer a SPARQL BGP query under a chosen strategy
     reformulate  print the CQ->UCQ reformulation of a query
     explain      list the query's covers with their estimated costs; with
                  --plan, the GCov JUCQ's physical plan and SQL
     check        statically lint queries, covers and compiled plan shapes
     trace        run a query (or a workload) with pipeline tracing: EXPLAIN
                  ANALYZE tree, span timings, estimated-vs-actual cardinalities
     stats        run a workload with process-level metrics and export them
     serve        serve a store over the line protocol on TCP
     client       send protocol request lines to a running server

   Every subcommand but generate and client reads its data, queries, engine
   profile, cache mode and worker count through one shared [session]. *)

open Cmdliner

let now_ms () = Unix.gettimeofday () *. 1000.0

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Writes [contents] to [path], reporting it on stdout as [what]. *)
let write_file ?what path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Option.iter (fun w -> Printf.printf "-- %s written to %s\n" w path) what

(* Turtle by the .ttl extension, N-Triples otherwise. *)
let load_graph path =
  if Filename.check_suffix path ".ttl" then Rdf.Turtle.load_file path
  else Rdf.Ntriples.load_file path

(* ---------- workloads ---------- *)

type workload = Lubm | Dblp

let workloads = [ ("lubm", Lubm); ("dblp", Dblp) ]

let schema_of = function
  | Lubm -> Workloads.Lubm.schema
  | Dblp -> Workloads.Dblp.schema

(* The evaluation queries under their short names ("Q01", ...). *)
let templates = function
  | Lubm -> Workloads.Lubm.queries
  | Dblp -> Workloads.Dblp.queries

(* The evaluation queries named as --workload-query spells them. *)
let workload_queries w =
  let prefix = fst (List.find (fun (_, w') -> w' = w) workloads) ^ ":" in
  List.map (fun (n, q) -> (prefix ^ n, q)) (templates w)

(* The dataset used when --data is absent: LUBM-1 or DBLP-2000, the scale
   the CI trace leg generates. *)
let builtin = function
  | Lubm -> Workloads.Lubm.generate { Workloads.Lubm.universities = 1 }
  | Dblp -> Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 }

let workload_of_query wq =
  match String.split_on_char ':' wq with
  | [ w; _ ] -> List.assoc_opt w workloads
  | _ -> None

(* The named query of --workload-query, --query or a query file, in that
   order of precedence. *)
let resolve_query workload_query query_string query_file =
  let parse name text =
    try Ok (name, Query.Sparql.parse text)
    with Invalid_argument m | Failure m -> Error ("bad query: " ^ m)
  in
  match (workload_query, query_string, query_file) with
  | Some wq, _, _ -> (
      match (workload_of_query wq, String.split_on_char ':' wq) with
      | Some w, [ _; name ] -> (
          let queries = templates w in
          match List.assoc_opt name queries with
          | Some q -> Ok (wq, q)
          | None ->
              Error
                (Printf.sprintf "unknown workload query %s (known: %s–%s)" wq
                   (fst (List.hd queries))
                   (fst (List.hd (List.rev queries)))))
      | _ -> Error ("bad workload query (want lubm:QNN or dblp:QNN): " ^ wq))
  | None, Some s, _ -> parse "query" s
  | None, None, Some f -> parse (Filename.basename f) (read_file f)
  | None, None, None ->
      Error "one of --query, --query-file, --workload-query required"

(* ---------- shared arguments ---------- *)

(* An option with a default value, and one that is [None] when absent. *)
let val_arg kind default names ~docv doc =
  Arg.(value & opt kind default & info names ~docv ~doc)

let opt_arg kind names ~docv doc = val_arg (Arg.some kind) None names ~docv doc

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let workload_query_arg =
  opt_arg Arg.string [ "workload-query" ] ~docv:"NAME"
    "Use a built-in evaluation query, e.g. lubm:Q01 or dblp:Q10 (implies \
     the corresponding schema)."

let query_string_arg =
  opt_arg Arg.string [ "q"; "query" ] ~docv:"SPARQL"
    "A SPARQL BGP query, e.g. 'SELECT ?x WHERE { ?x a ?y }'."

let strategy_arg =
  val_arg
    (Arg.enum Rqa.Answering.strategies)
    Rqa.Answering.Gcov [ "s"; "strategy" ] ~docv:"STRATEGY"
    ("The answering strategy, " ^ Arg.doc_alts_enum Rqa.Answering.strategies
   ^ ".")

let engine_arg =
  let engine_conv =
    Arg.enum
      [
        ("postgres", Engine.Profile.postgres_like);
        ("db2", Engine.Profile.db2_like);
        ("mysql", Engine.Profile.mysql_like);
        ("virtuoso", Engine.Profile.virtuoso_like);
      ]
  in
  val_arg engine_conv Engine.Profile.postgres_like [ "e"; "engine" ]
    ~docv:"ENGINE" "Engine profile: postgres, db2, mysql or virtuoso."

let cache_mode_arg =
  val_arg (Arg.enum Cache.modes) Cache.On [ "cache" ] ~docv:"MODE"
    "Memoization mode: $(b,on) (reformulations, cover costs, answers and \
     executed fragments), $(b,answers-off) (plan caching without result or \
     fragment caching) or $(b,off)."

let jobs_arg =
  opt_arg Arg.int [ "jobs" ] ~docv:"N"
    "Worker domains for parallel cover costing (ECov/GCov); the engine \
     itself always evaluates on one domain (default: $(b,RDFQA_JOBS), else \
     1).  Answers, chosen covers and operation totals are identical at \
     every N."

let apply_jobs jobs =
  Option.iter
    (fun j ->
      Par.set_jobs j;
      (* honest width: the pool clamps to the cores the OS grants *)
      let effective = Par.jobs (Par.get ()) in
      if effective < j then
        Printf.printf
          "-- jobs=%d clamped to %d (cores available; set RDFQA_JOBS_FORCE=1 \
           to oversubscribe)\n%!"
          j effective)
    jobs

(* Records process-level metrics from here on, GC gauges included. *)
let enable_metrics () =
  Metrics.install_gc_samplers ();
  Metrics.set_enabled true;
  (* refresh the pool gauges now that recording is on *)
  ignore (Par.get ())

(* ---------- the session every subcommand shares ---------- *)

type session = {
  data : string option;
  workload : workload option;  (* -w, else the --workload-query prefix *)
  queries : ((string * Query.Bgp.t) list, string) result;
      (* -w's evaluation queries, else the one query named *)
  profile : Engine.Profile.t;
  cache_mode : Cache.mode;
}

(* The session's arguments, each present only where a subcommand takes it:
   [data] is [`Required] or [`Optional doc]; [workload] (-w) is absent,
   [`Optional doc] or [`Default doc] (lubm); [query] names the query by
   --query-file ([`Options]), by a positional file ([`Positional]) or not
   at all ([`None]); [engine] adds -e, [run] adds --cache and --jobs.
   --jobs takes effect when the session is built. *)
let session ?workload ?(query = `Options) ?(engine = true) ?(run = true) data
    =
  let data =
    match data with
    | `Required ->
        Term.(
          const Option.some
          $ Arg.(
              required
              & opt (some file) None
              & info [ "d"; "data" ] ~docv:"FILE"
                  ~doc:
                    "Data file, N-Triples or Turtle by extension (RDFS \
                     constraint triples become the schema)."))
    | `Optional doc -> opt_arg Arg.file [ "d"; "data" ] ~docv:"FILE" doc
  in
  let workload =
    match workload with
    | None -> Term.const None
    | Some (`Optional doc) ->
        opt_arg (Arg.enum workloads) [ "w"; "workload" ] ~docv:"WORKLOAD" doc
    | Some (`Default doc) ->
        Term.(
          const Option.some
          $ val_arg (Arg.enum workloads) Lubm [ "w"; "workload" ]
              ~docv:"WORKLOAD" doc)
  in
  let query =
    let file =
      match query with
      | `Positional ->
          Arg.(
            value
            & pos 0 (some file) None
            & info [] ~docv:"QUERY_FILE" ~doc:"A SPARQL query file to lint.")
      | `Options | `None ->
          opt_arg Arg.file [ "query-file" ] ~docv:"FILE"
            "Read the SPARQL query from a file."
    in
    match query with
    | `None -> Term.const (None, None, None)
    | `Options | `Positional ->
        Term.(
          const (fun wq qs qf -> (wq, qs, qf))
          $ workload_query_arg $ query_string_arg $ file)
  in
  let make data wl (wq, qs, qf) profile cache_mode jobs =
    apply_jobs jobs;
    let workload, queries =
      match wl with
      | Some w -> (Some w, Ok (workload_queries w))
      | None ->
          ( Option.bind wq workload_of_query,
            Result.map (fun q -> [ q ]) (resolve_query wq qs qf) )
    in
    { data; workload; queries; profile; cache_mode }
  in
  Term.(
    const make $ data $ workload $ query
    $ (if engine then engine_arg else const Engine.Profile.postgres_like)
    $ (if run then cache_mode_arg else const Cache.On)
    $ if run then jobs_arg else const None)

(* The session's named queries; a missing or bad query exits 2. *)
let named_queries s =
  match s.queries with
  | Ok qs -> qs
  | Error msg ->
      prerr_endline msg;
      exit 2

let the_query s = snd (List.hd (named_queries s))

(* --data under the workload's schema (workload queries come with their
   intended schema), else the workload's built-in dataset. *)
let load_store s =
  match (s.data, s.workload) with
  | Some path, None -> Store.Encoded_store.of_graph (load_graph path)
  | Some path, Some w ->
      Store.Encoded_store.of_graph
        (Rdf.Graph.make (schema_of w) (Rdf.Graph.fact_list (load_graph path)))
  | None, Some w -> builtin w
  | None, None ->
      prerr_endline "--data or a workload query is required";
      exit 2

let system s store =
  let sys = Rqa.Answering.make ~profile:s.profile store in
  Cache.set_mode (Rqa.Answering.cache sys) s.cache_mode;
  sys

(* The engine a strategy's answers are evaluated on. *)
let engine_of sys = function
  | Rqa.Answering.Saturation -> Rqa.Answering.saturated_engine sys
  | _ -> Rqa.Answering.engine sys

let print_cache_stats sys =
  Printf.printf "-- cache: %s\n"
    (Cache.stats_to_string (Cache.stats (Rqa.Answering.cache sys)))

(* ---------- tracing helpers ---------- *)

let print_trace_summary () =
  let events =
    List.sort
      (fun (a : Obs.event) b -> Float.compare a.Obs.start_us b.Obs.start_us)
      (Obs.events ())
  in
  if events <> [] then begin
    print_endline "-- spans:";
    List.iter
      (fun (e : Obs.event) ->
        let attrs =
          if e.Obs.attrs = [] then ""
          else
            "  ("
            ^ String.concat ", "
                (List.map (fun (k, v) -> k ^ "=" ^ v) e.Obs.attrs)
            ^ ")"
        in
        Printf.printf "   %s%s %.2f ms%s\n"
          (String.make (2 * e.Obs.depth) ' ')
          e.Obs.name
          (e.Obs.dur_us /. 1000.0)
          attrs)
      events
  end;
  match Obs.counters () with
  | [] -> ()
  | cs ->
      print_endline "-- counters:";
      List.iter (fun (k, v) -> Printf.printf "   %-36s %d\n" k v) cs

let print_op_tree ex =
  match Engine.Executor.last_op_stats ex with
  | Some root ->
      print_endline "-- EXPLAIN ANALYZE:";
      print_string (Obs.Op_stats.to_string root)
  | None -> ()

let print_engine_counters ex =
  Printf.printf "-- engine: %d ops this statement; %d ops over %d statements\n"
    (Engine.Executor.last_operations ex)
    (Engine.Executor.total_operations ex)
    (Engine.Executor.statements_run ex)

(* ---------- generate ---------- *)

let generate_cmd =
  let workload =
    val_arg (Arg.enum workloads) Lubm [ "w"; "workload" ] ~docv:"WORKLOAD"
      "lubm or dblp."
  in
  let scale =
    val_arg Arg.int 2 [ "n"; "scale" ] ~docv:"N"
      "Universities (lubm) or publications (dblp)."
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output N-Triples file.")
  in
  let run workload scale out =
    let g =
      match workload with
      | Lubm ->
          Workloads.Lubm.generate_graph { Workloads.Lubm.universities = scale }
      | Dblp ->
          Workloads.Dblp.generate_graph { Workloads.Dblp.publications = scale }
    in
    (if Filename.check_suffix out ".ttl" then Rdf.Turtle.save_file out g
     else Rdf.Ntriples.save_file out g);
    Printf.printf "wrote %d facts (+%d schema constraints) to %s\n"
      (Rdf.Graph.size g)
      (Rdf.Schema.size (Rdf.Graph.schema g))
      out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic dataset.")
    Term.(const run $ workload $ scale $ out)

(* ---------- query ---------- *)

(* Triples of an update file: the facts plus the RDFS constraint triples
   (the store's mutation API partitions them itself). *)
let load_triples path =
  let g = load_graph path in
  List.map Rdf.Schema.constr_to_triple
    (Rdf.Schema.constraints (Rdf.Graph.schema g))
  @ Rdf.Graph.fact_list g

(* --insert / --delete: [change] applies [path]'s triples to the store. *)
let apply_update store verb change path =
  let s, d = change store (load_triples path) in
  Printf.printf "-- %s %d schema + %d data triples from %s\n" verb s d path

let query_cmd =
  let show_cover = flag_arg "show-cover" "Print the chosen cover." in
  let limit =
    val_arg Arg.int 20 [ "limit" ] ~docv:"N" "Print at most N answer rows."
  in
  let insert_arg =
    opt_arg Arg.file [ "insert" ] ~docv:"FILE"
      "After loading, insert FILE's triples (N-Triples or Turtle) into the \
       store: RDFS constraint triples move the schema version, facts the \
       data version, and the caches invalidate accordingly."
  in
  let delete_arg =
    opt_arg Arg.file [ "delete" ] ~docv:"FILE"
      "After any --insert, delete FILE's triples from the store."
  in
  let repeat_arg =
    val_arg Arg.int 1 [ "repeat" ] ~docv:"N"
      "Answer the query N times through the cache (per-pass timings are \
       printed; warm passes hit the answer tier)."
  in
  let metrics_arg =
    flag_arg "metrics"
      "Record process-level metrics (cache tiers, pool, store, engine, \
       latency histogram) and print the registry after the run.  Charge \
       totals are unaffected."
  in
  let run s strategy show_cover limit insert delete repeat metrics =
    if metrics then enable_metrics ();
    let q = the_query s in
    let store = load_store s in
    Store.Encoded_store.publish_metrics store;
    let sys = system s store in
    Option.iter
      (apply_update store "inserted" Store.Encoded_store.insert_triples)
      insert;
    Option.iter
      (apply_update store "deleted" Store.Encoded_store.delete_triples)
      delete;
    let t0 = now_ms () in
    (* Every pass (the cold one included) lands in a local latency
       histogram, so --repeat reports warm-path quantiles instead of a
       scroll of per-pass lines. *)
    let lat = Metrics.Histogram.create () in
    let pass () =
      let t = now_ms () in
      let r = Rqa.Answering.answer sys strategy q in
      let ms = now_ms () -. t in
      Metrics.Histogram.observe lat ms;
      (r, ms)
    in
    match
      let report = ref (fst (pass ())) in
      for n = 2 to repeat do
        let r, ms = pass () in
        report := r;
        Printf.printf "-- pass %d: %.2f ms\n" n ms
      done;
      if repeat > 1 then
        Printf.printf
          "-- repeat: %d passes, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max \
           %.2f ms\n"
          (Metrics.Histogram.count lat)
          (Metrics.Histogram.quantile lat 0.50)
          (Metrics.Histogram.quantile lat 0.90)
          (Metrics.Histogram.quantile lat 0.99)
          (Metrics.Histogram.max_value lat);
      !report
    with
    | report ->
        let total = now_ms () -. t0 in
        let ex = engine_of sys strategy in
        (* only the printed rows are decoded *)
        let rel = report.Rqa.Answering.answers in
        let order = Engine.Executor.order ex rel in
        let row = Engine.Executor.row_decoder ex rel in
        for n = 0 to min limit (Array.length order) - 1 do
          print_endline
            (String.concat "\t" (List.map Rdf.Term.to_string (row order.(n))))
        done;
        Printf.printf
          "-- %d rows (%s, %s); %d union terms; planning %.1f ms, execution \
           %.1f ms, total %.1f ms\n"
          (Array.length order)
          (Rqa.Answering.strategy_name strategy)
          s.profile.Engine.Profile.name report.Rqa.Answering.union_terms
          report.Rqa.Answering.planning_ms report.Rqa.Answering.execution_ms
          total;
        (match report.Rqa.Answering.fragment_terms with
        | [] | [ _ ] -> ()
        | ts ->
            Printf.printf "-- fragment union sizes: %s\n"
              (String.concat " + " (List.map string_of_int ts)));
        print_engine_counters ex;
        print_cache_stats sys;
        (match (show_cover, report.Rqa.Answering.cover) with
        | true, Some cover ->
            Printf.printf "-- cover: %s\n" (Query.Jucq.cover_to_string cover)
        | _ -> ());
        if metrics then begin
          print_string "-- metrics:\n";
          print_string (Metrics.to_text ())
        end
    | exception Engine.Profile.Engine_failure { engine; reason } ->
        Printf.printf "ENGINE FAILURE (%s): %s\n" engine
          (Engine.Profile.failure_to_string reason);
        exit 1
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer a SPARQL BGP query.")
    Term.(
      const run $ session `Required $ strategy_arg $ show_cover $ limit
      $ insert_arg $ delete_arg $ repeat_arg $ metrics_arg)

(* ---------- reformulate ---------- *)

let reformulate_cmd =
  let limit =
    val_arg Arg.int 25 [ "limit" ] ~docv:"N" "Print at most N union terms."
  in
  let minimize =
    flag_arg "minimize"
      "Remove containment-redundant union terms (the reformulation keeps \
       them by default, as the literature does)."
  in
  let run s limit minimize =
    let q = the_query s in
    let store = load_store s in
    let r =
      Reformulation.Reformulate.create (Store.Encoded_store.schema store)
    in
    match Reformulation.Reformulate.reformulate r q with
    | ucq ->
        let ucq = if minimize then Query.Containment.minimize ucq else ucq in
        let disjuncts = Query.Ucq.disjuncts ucq in
        List.iteri
          (fun i cq ->
            if i < limit then
              Printf.printf "(%d) %s\n" i (Query.Bgp.to_string cq))
          disjuncts;
        Printf.printf "-- %d union terms\n" (List.length disjuncts)
    | exception Reformulation.Reformulate.Too_large { bound; limit } ->
        Printf.printf "reformulation too large to build: ~%d terms (cap %d)\n"
          bound limit
  in
  Cmd.v
    (Cmd.info "reformulate" ~doc:"Print the CQ->UCQ reformulation.")
    Term.(
      const run $ session ~engine:false ~run:false `Required $ limit
      $ minimize)

(* ---------- explain ---------- *)

let explain_cmd =
  let show_plan =
    flag_arg "plan"
      "Also print the physical plan of the GCov-chosen JUCQ and the SQL it \
       ships to an RDBMS."
  in
  let run s show_plan =
    let q = the_query s in
    let store = load_store s in
    let sys = system s store in
    let obj = Rqa.Answering.objective sys q in
    let { Rqa.Cover_space.covers; complete } = Rqa.Cover_space.enumerate q in
    Printf.printf "%-30s %16s %14s\n" "cover" "#reformulations" "est. cost";
    List.iter
      (fun cover ->
        let cost = Rqa.Objective.cover_cost obj cover in
        let terms =
          try Query.Jucq.total_disjuncts (Rqa.Objective.jucq_of obj cover)
          with Reformulation.Reformulate.Too_large { bound; _ } -> bound
        in
        Printf.printf "%-30s %16d %14.3f\n"
          (Query.Jucq.cover_to_string cover)
          terms cost)
      covers;
    if not complete then print_endline "-- cover space truncated";
    let g = Rqa.Gcov.search (Rqa.Answering.objective sys q) in
    Printf.printf "-- GCov picks %s (est. cost %.3f, %d covers explored)\n"
      (Query.Jucq.cover_to_string g.Rqa.Gcov.cover)
      g.Rqa.Gcov.cost g.Rqa.Gcov.explored;
    if show_plan then begin
      let reformulate =
        Reformulation.Reformulate.reformulate (Rqa.Answering.reformulator sys)
      in
      let j = Query.Jucq.make ~reformulate q g.Rqa.Gcov.cover in
      print_newline ();
      print_string
        (Engine.Plan.to_string
           (Engine.Plan.describe (Rqa.Answering.engine sys) j));
      print_newline ();
      print_endline (Engine.Sql.jucq store j)
    end
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"List covers with estimated costs.")
    Term.(const run $ session ~run:false `Required $ show_plan)

(* ---------- trace ---------- *)

let trace_cmd =
  let out =
    opt_arg Arg.string [ "o"; "out" ] ~docv:"FILE"
      "Write the trace as JSON-lines to FILE."
  in
  let chrome =
    opt_arg Arg.string [ "chrome" ] ~docv:"FILE"
      "Write the spans as a Chrome trace_event JSON file (open in \
       chrome://tracing or Perfetto)."
  in
  let run s strategy out chrome =
    let queries = named_queries s in
    let store = load_store s in
    let sys = system s store in
    let single = List.length queries = 1 in
    let jsonl_buf = Buffer.create 4096 in
    Buffer.add_string jsonl_buf
      (Obs.Export.meta_line
         ~store_bytes:(Store.Encoded_store.approx_bytes store) ());
    Buffer.add_char jsonl_buf '\n';
    let all_events = ref [] in
    let all_estimates = ref [] in
    List.iter
      (fun (name, q) ->
        Obs.reset ();
        Obs.set_enabled true;
        (match Rqa.Answering.answer sys strategy q with
        | report ->
            Obs.set_enabled false;
            Printf.printf
              "%-10s %8d rows  planning %.1f ms  execution %.1f ms\n%!" name
              (Engine.Relation.rows report.Rqa.Answering.answers)
              report.Rqa.Answering.planning_ms
              report.Rqa.Answering.execution_ms
        | exception Engine.Profile.Engine_failure { reason; _ } ->
            Obs.set_enabled false;
            Printf.printf "%-10s FAIL: %s\n%!" name
              (Engine.Profile.failure_to_string reason));
        let ex = engine_of sys strategy in
        if single then begin
          print_op_tree ex;
          print_trace_summary ();
          print_engine_counters ex
        end;
        all_events := !all_events @ Obs.events ();
        all_estimates := !all_estimates @ Obs.estimates ();
        Buffer.add_string jsonl_buf
          (Obs.Export.jsonl ~query:name
             ?ops:(Engine.Executor.last_op_stats ex)
             ~events:(Obs.events ()) ~estimates:(Obs.estimates ())
             ~counters:(Obs.counters ()) ()))
      queries;
    if not single then
      print_string
        (Obs.Calibration.to_string
           (Obs.Calibration.of_estimates !all_estimates));
    print_cache_stats sys;
    Option.iter
      (fun f -> write_file ~what:"trace" f (Buffer.contents jsonl_buf))
      out;
    Option.iter
      (fun f ->
        write_file ~what:"chrome trace" f (Obs.Export.chrome !all_events))
      chrome
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a query (or a whole workload) with pipeline tracing: span \
          timings, per-operator runtime metrics with estimated vs actual \
          cardinalities, and the calibration report.")
    Term.(
      const run
      $ session
          ~workload:
            (`Optional
              "Trace every evaluation query of the workload and print the \
               aggregate calibration report (estimated-vs-actual Q-errors).")
          `Required
      $ strategy_arg $ out $ chrome)

(* ---------- check ---------- *)

let check_cmd =
  let strict = flag_arg "strict" "Treat warning diagnostics as errors." in
  let machine =
    flag_arg "machine"
      "Machine-readable output: one tab-separated diagnostic per line \
       (severity, code, context, message)."
  in
  let codes = flag_arg "codes" "Print the diagnostic-code catalog and exit." in
  let cost =
    flag_arg "cost"
      "Also run the static cost analyzer: derive guaranteed $(i,[lo, hi]) \
       operation intervals for each query's SCQ-cover plan against the \
       engine profile (CB001-CB004, CB009).  Needs data: $(b,--data), or a \
       workload (its built-in dataset)."
  in
  let budget =
    opt_arg Arg.int [ "budget" ] ~docv:"N"
      "Operation budget the cost analyzer admits against (default: the \
       engine profile's max_operations)."
  in
  let trace =
    flag_arg "trace"
      "Enable pipeline tracing: print span timings and per-rule counters \
       after the command."
  in
  let trace_out =
    opt_arg Arg.string [ "trace-out" ] ~docv:"FILE"
      "Write the trace to FILE (implies tracing): JSON-lines by default, \
       Chrome trace_event format when FILE ends in .trace or .chrome.json \
       (loadable in chrome://tracing or Perfetto)."
  in
  let write_trace_file file =
    let events = Obs.events () in
    write_file ~what:"trace" file
      (if
         Filename.check_suffix file ".trace"
         || Filename.check_suffix file ".chrome.json"
       then Obs.Export.chrome events
       else
         Obs.Export.meta_line () ^ "\n"
         ^ Obs.Export.jsonl ~events ~estimates:(Obs.estimates ())
             ~counters:(Obs.counters ()) ())
  in
  let run s strict machine codes cost budget trace trace_out =
    if codes then
      List.iter
        (fun (code, doc) ->
          Printf.printf "%s%s%s\n" code (if machine then "\t" else "  ") doc)
        Analysis.Diagnostic.catalog
    else begin
      let tracing = trace || trace_out <> None in
      if tracing then begin
        Obs.reset ();
        Obs.set_enabled true
      end;
      let reports =
        Obs.Span.with_ "check" @@ fun sp ->
        let queries = named_queries s in
        let check ~schema = Analysis.Checker.check_workload ~schema queries in
        let reports =
          match (s.workload, s.data) with
          | Some w, _ -> check ~schema:(schema_of w)
          | None, Some path ->
              check ~schema:(Rdf.Graph.schema (load_graph path))
          | None, None ->
              List.map
                (fun (name, q) -> (name, Analysis.Checker.check_query ~name q))
                queries
        in
        Obs.Span.set sp "queries" (string_of_int (List.length reports));
        reports
      in
      let cost_reports =
        if not cost then []
        else begin
          (* The analyzer's oracle reads real store counts, so --cost needs
             data: an explicit file, or for workload queries the built-in
             dataset. *)
          let sys = system s (load_store s) in
          let oracle =
            Engine.Executor.cost_oracle (Rqa.Answering.engine sys)
          in
          let per_query (name, q) =
            let context = name ^ "/scq" in
            ( name,
              match Rqa.Answering.scq_statement sys (Query.Bgp.normalize q) with
              | Some j ->
                  Analysis.Cost_verify.admission oracle ?budget ~context
                    (Analysis.Cost_verify.Jucq j)
              | None ->
                  [
                    Analysis.Diagnostic.info ~code:"RF001" ~context
                      "reformulation too large to cost statically (skipped)";
                  ] )
          in
          List.map per_query (named_queries s)
        end
      in
      let reports = reports @ cost_reports in
      let all = List.concat_map snd reports in
      List.iter
        (fun (name, ds) ->
          if machine then
            List.iter
              (fun d -> print_endline (Analysis.Diagnostic.render d))
              ds
          else begin
            Printf.printf "%s: %s\n" name (Analysis.Diagnostic.summary ds);
            List.iter
              (fun d ->
                Printf.printf "  %s\n" (Analysis.Diagnostic.to_string d))
              ds
          end)
        reports;
      if not machine then
        Printf.printf "-- %d queries checked: %s\n" (List.length reports)
          (Analysis.Diagnostic.summary all);
      if tracing then begin
        Obs.set_enabled false;
        if trace then print_trace_summary ();
        Option.iter write_trace_file trace_out
      end;
      (* Exit-code contract: 2 on any error diagnostic, 1 when --strict
         promotes warnings, 0 on a clean (or info-only) report. *)
      if List.exists Analysis.Diagnostic.is_error all then exit 2
      else if
        strict
        && List.exists
             (fun (d : Analysis.Diagnostic.t) ->
               d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Warning)
             all
      then exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify queries: semantic lint, Definition 3.3/3.4 cover \
          checks, compiled-plan schema consistency and (with $(b,--cost)) \
          static operation-cost admission — nothing is executed.  Exit \
          codes: 0 clean, 1 warnings under $(b,--strict), 2 errors.")
    Term.(
      const run
      $ session
          ~workload:
            (`Optional
              "Lint every evaluation query of the given workload against \
               its built-in schema.")
          ~query:`Positional ~run:false
          (`Optional
            "Optional data file whose RDFS constraint triples provide the \
             schema for the lint (and, with $(b,--cost), the data).")
      $ strict $ machine $ codes $ cost $ budget $ trace $ trace_out)

(* ---------- stats ---------- *)

let stats_cmd =
  let repeat =
    val_arg Arg.int 3 [ "repeat" ] ~docv:"N"
      "Answer each workload query N times, so the latency histogram sees \
       cold and warm passes."
  in
  let prom_out =
    opt_arg Arg.string [ "prom" ] ~docv:"FILE"
      "Write the registry in Prometheus text exposition format."
  in
  let json_out =
    opt_arg Arg.string [ "json" ] ~docv:"FILE"
      "Write the registry as a JSONL snapshot (schema: \
       lib/metrics/metrics.mli)."
  in
  let run s strategy repeat prom_out json_out =
    enable_metrics ();
    let store = load_store s in
    Store.Encoded_store.publish_metrics store;
    let queries = named_queries s in
    let sys = system s store in
    let oracle = Engine.Executor.cost_oracle (Rqa.Answering.engine sys) in
    let failures = ref 0 in
    List.iter
      (fun (_name, q) ->
        let q = Query.Bgp.normalize q in
        (* Feed the admission tallies the same statement check --cost
           admits, then answer the query through the cache so every tier
           and the latency histogram see real traffic.  Verdicts never
           gate execution here. *)
        Option.iter
          (fun j ->
            ignore
              (Analysis.Cost_verify.verdict oracle
                 (Analysis.Cost_verify.Jucq j)))
          (Rqa.Answering.scq_statement sys q);
        for _pass = 1 to max 1 repeat do
          match Rqa.Answering.answer sys strategy q with
          | (_ : Rqa.Answering.report) -> ()
          | exception Engine.Profile.Engine_failure _ -> incr failures
        done)
      queries;
    Option.iter
      (fun f ->
        write_file ~what:"prometheus exposition" f (Metrics.to_prometheus ()))
      prom_out;
    Option.iter
      (fun f -> write_file ~what:"jsonl snapshot" f (Metrics.to_jsonl ()))
      json_out;
    Printf.printf "-- %d queries x %d passes (%s, %s)%s\n" (List.length queries)
      (max 1 repeat)
      (Rqa.Answering.strategy_name strategy)
      s.profile.Engine.Profile.name
      (if !failures > 0 then Printf.sprintf "; %d engine failures" !failures
       else "");
    print_string (Metrics.to_text ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload with process-level metrics on and report the \
          registry: cache tiers, domain pool, store, admission verdicts, \
          GC gauges and the end-to-end latency histogram, exportable as \
          Prometheus text exposition ($(b,--prom)) or a JSONL snapshot \
          ($(b,--json)).")
    Term.(
      const run
      $ session
          ~workload:
            (`Default
              "Workload whose evaluation queries drive the metrics run.")
          ~query:`None
          (`Optional
            "Data file to load (default: the workload's built-in dataset, \
             LUBM-1 or DBLP-2000).")
      $ strategy_arg $ repeat $ prom_out $ json_out)

(* ---------- serve / client ---------- *)

let serve_cmd =
  let port =
    val_arg Arg.int 0 [ "port" ] ~docv:"PORT"
      "TCP port to listen on; 0 (the default) binds an ephemeral port."
  in
  let host =
    val_arg Arg.string "127.0.0.1" [ "host" ] ~docv:"ADDR" "Bind address."
  in
  let port_file =
    opt_arg Arg.string [ "port-file" ] ~docv:"FILE"
      "Write the bound port to FILE once listening, so scripted clients can \
       find an ephemeral port."
  in
  let budget =
    opt_arg Arg.int [ "budget" ] ~docv:"OPS"
      "Per-request static cost admission budget: a query whose SCQ-cover \
       plan provably exceeds OPS operations is refused with ERR before \
       execution."
  in
  let run s strategy port host port_file budget =
    enable_metrics ();
    let store = load_store s in
    let config =
      {
        Server.host;
        port;
        strategy;
        profile = s.profile;
        cache_mode = s.cache_mode;
        budget;
        warm = List.map snd (named_queries s);
      }
    in
    let srv =
      try Server.start config store
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s:%d: %s\n" host port
          (Unix.error_message e);
        exit 2
    in
    Option.iter
      (fun f -> write_file f (string_of_int (Server.port srv) ^ "\n"))
      port_file;
    Printf.printf
      "-- serving %d triples on %s:%d (%s, %s, jobs %d%s); SIGTERM drains\n%!"
      (Store.Encoded_store.size store)
      host (Server.port srv)
      (Rqa.Answering.strategy_name strategy)
      s.profile.Engine.Profile.name (Par.effective_jobs ())
      (Option.fold ~none:"" ~some:(Printf.sprintf ", budget %d") budget);
    let on_signal = Sys.Signal_handle (fun _ -> Server.request_stop srv) in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    Server.wait srv;
    Server.stop srv;
    (* join the worker domains before exiting: "no leaked domains" *)
    Par.shutdown_global ();
    let ep = Server.epoch srv in
    Printf.printf
      "-- drained: %d requests, epoch %d, %d reads, %d writes; pool \
       joined\n%!"
      (Server.requests_served srv)
      (Store.Epoch.epoch ep) (Store.Epoch.reads ep) (Store.Epoch.writes ep)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a store over the line protocol on TCP: concurrent QUERY \
          requests pin epoch-based snapshots, INSERT/DELETE serialize \
          through the epoch writer path, and answers are bit-identical to \
          single-shot $(b,rdfqa query) runs.  Drains gracefully on \
          SIGTERM/SIGINT and exits 0.")
    Term.(
      const run
      $ session
          ~workload:
            (`Default
              "Workload whose schema and evaluation queries warm the server \
               (schema vocabulary and query constants pre-interned).")
          ~query:`None
          (`Optional
            "Data file to serve (default: the workload's built-in dataset, \
             LUBM-1 or DBLP-2000).")
      $ strategy_arg $ port $ host $ port_file $ budget)

let client_cmd =
  let host =
    val_arg Arg.string "127.0.0.1" [ "host" ] ~docv:"ADDR" "Server address."
  in
  let port = opt_arg Arg.int [ "port" ] ~docv:"PORT" "Server port." in
  let port_file =
    opt_arg Arg.file [ "port-file" ] ~docv:"FILE"
      "Read the server port from FILE (as written by $(b,rdfqa serve \
       --port-file))."
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Protocol request lines, sent in order over one connection: \
             e.g. 'QUERY SELECT ...', 'INSERT file.nt', 'STATS', 'PROM'.")
  in
  let workload_queries =
    Arg.(
      value & opt_all string []
      & info [ "workload-query" ] ~docv:"NAME"
          ~doc:
            "Append a $(b,QUERY) request for a built-in evaluation query \
             (e.g. lubm:Q01); repeatable.  The exact text the single-shot \
             commands resolve is sent, so stdout diffs cleanly against \
             $(b,rdfqa query --workload-query).")
  in
  let query_strategy =
    opt_arg Arg.string [ "query-strategy" ] ~docv:"STRATEGY"
      "Send $(b,--workload-query) requests as QUERY/$(docv) per-request \
       overrides instead of the server's default strategy."
  in
  let run host port port_file requests workload_queries query_strategy =
    let expand name =
      match resolve_query (Some name) None None with
      | Ok (_, q) ->
          let text =
            String.map
              (fun c -> if c = '\n' then ' ' else c)
              (Query.Sparql.to_sparql q)
          in
          Server.Protocol.request_to_line
            (Server.Protocol.Query { strategy = query_strategy; text })
      | Error msg ->
          prerr_endline msg;
          exit 2
    in
    let requests = requests @ List.map expand workload_queries in
    let port =
      match (port, port_file) with
      | Some p, _ -> p
      | None, Some f -> (
          match int_of_string_opt (String.trim (read_file f)) with
          | Some p -> p
          | None ->
              Printf.eprintf "bad port file %s\n" f;
              exit 2)
      | None, None ->
          prerr_endline "one of --port, --port-file required";
          exit 2
    in
    if requests = [] then begin
      prerr_endline "no requests given";
      exit 2
    end;
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd
         (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "cannot connect to %s:%d: %s\n" host port
         (Unix.error_message e);
       exit 2);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let failed = ref false in
    (* statuses go to stderr, payload (answer rows, stats, prometheus
       text) to stdout — so stdout diffs cleanly against `rdfqa query` *)
    List.iter
      (fun req ->
        output_string oc req;
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | exception End_of_file ->
            prerr_endline "server closed the connection";
            failed := true
        | status ->
            prerr_endline status;
            if String.starts_with ~prefix:"ERR" status then failed := true;
            let rec payload () =
              match input_line ic with
              | exception End_of_file -> failed := true
              | line when line = Server.Protocol.terminator -> ()
              | line ->
                  print_endline (Server.Protocol.unstuff line);
                  payload ()
            in
            payload ())
      requests;
    (try
       output_string oc "QUIT\n";
       flush oc
     with Sys_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit (if !failed then 1 else 0)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send protocol request lines to a running $(b,rdfqa serve) and \
          print the responses: payload rows on stdout, status lines on \
          stderr.  Exits 1 if any request was answered with ERR.")
    Term.(
      const run $ host $ port $ port_file $ requests $ workload_queries
      $ query_strategy)

let () =
  let info =
    Cmd.info "rdfqa" ~version:"1.0"
      ~doc:"Reformulation-based RDF query answering with cost-based JUCQ \
            optimization."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; query_cmd; reformulate_cmd; explain_cmd; check_cmd;
            trace_cmd; stats_cmd; serve_cmd; client_cmd;
          ]))
