(* rdfqa: command-line front-end to the library.

   Subcommands:
     generate     produce an N-Triples dataset (LUBM- or DBLP-style)
     query        answer a SPARQL BGP query under a chosen strategy
     reformulate  print the CQ->UCQ reformulation of a query
     explain      list the query's covers with their estimated costs
     sql          print the SQL a JUCQ reformulation ships to an RDBMS
     check        statically lint queries, covers and compiled plan shapes
     trace        run a query with pipeline tracing: EXPLAIN ANALYZE tree,
                  span timings, estimated-vs-actual cardinalities *)

open Cmdliner

let now_ms () = Unix.gettimeofday () *. 1000.0

(* ---------- shared arguments ---------- *)

let data_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "data" ] ~docv:"FILE"
        ~doc:
          "Data file, N-Triples or Turtle by extension (RDFS constraint \
           triples become the schema).")

let query_string_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"SPARQL"
        ~doc:"A SPARQL BGP query, e.g. 'SELECT ?x WHERE { ?x a ?y }'.")

let query_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "query-file" ] ~docv:"FILE" ~doc:"Read the SPARQL query from a file.")

let workload_query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload-query" ] ~docv:"NAME"
        ~doc:
          "Use a built-in evaluation query, e.g. lubm:Q01 or dblp:Q10 \
           (implies the corresponding schema).")

let strategy_arg =
  let strategy_conv =
    Arg.enum
      [
        ("saturation", `Saturation);
        ("ucq", `Ucq);
        ("scq", `Scq);
        ("ecov", `Ecov);
        ("gcov", `Gcov);
      ]
  in
  Arg.(
    value & opt strategy_conv `Gcov
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"One of saturation, ucq, scq, ecov, gcov (default gcov).")

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
  Arg.(
    value & opt engine_conv Engine.Profile.postgres_like
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:"Engine profile: postgres, db2, mysql or virtuoso.")

let to_strategy = function
  | `Saturation -> Rqa.Answering.Saturation
  | `Ucq -> Rqa.Answering.Ucq
  | `Scq -> Rqa.Answering.Scq
  | `Ecov -> Rqa.Answering.Ecov Rqa.Cover_space.default_budget
  | `Gcov -> Rqa.Answering.Gcov

let cache_mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("on", Cache.On);
        ("off", Cache.Off);
        ("answers-off", Cache.Answers_off);
      ]
  in
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "cache" ] ~docv:"MODE"
        ~doc:
          "Memoization mode: $(b,on) (reformulations, cover costs, \
           answers and executed fragments), $(b,answers-off) (plan caching \
           without result or fragment caching) or $(b,off).  Default: \
           $(b,RDFQA_CACHE), else on.")

let apply_cache_mode sys mode =
  Option.iter (Cache.set_mode (Rqa.Answering.cache sys)) mode

let print_cache_stats sys =
  Printf.printf "-- cache: %s\n"
    (Cache.stats_to_string (Cache.stats (Rqa.Answering.cache sys)))

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Resolve the query and, for workload queries, the implied schema. *)
let resolve_query workload_query query_string query_file =
  match (workload_query, query_string, query_file) with
  | Some wq, _, _ -> (
      let lookup queries schema name =
        match List.assoc_opt name queries with
        | Some q -> Ok (q, Some schema)
        | None ->
            Error
              (Printf.sprintf "unknown workload query %s (known: %s–%s)" wq
                 (fst (List.hd queries))
                 (fst (List.hd (List.rev queries))))
      in
      match String.split_on_char ':' wq with
      | [ "lubm"; name ] ->
          lookup Workloads.Lubm.queries Workloads.Lubm.schema name
      | [ "dblp"; name ] ->
          lookup Workloads.Dblp.queries Workloads.Dblp.schema name
      | _ -> Error ("bad workload query (want lubm:QNN or dblp:QNN): " ^ wq))
  | None, Some s, _ -> (
      try Ok (Query.Sparql.parse s, None)
      with Invalid_argument m | Failure m -> Error ("bad query: " ^ m))
  | None, None, Some f -> (
      try Ok (Query.Sparql.parse (read_file f), None)
      with Invalid_argument m | Failure m -> Error ("bad query: " ^ m))
  | None, None, None -> Error "one of --query, --query-file, --workload-query required"

let load_store ?schema path =
  let g =
    if Filename.check_suffix path ".ttl" then Rdf.Turtle.load_file path
    else Rdf.Ntriples.load_file path
  in
  match schema with
  | None -> Store.Encoded_store.of_graph g
  | Some s ->
      (* workload queries come with their intended schema *)
      Store.Encoded_store.of_graph
        (Rdf.Graph.make s (Rdf.Graph.fact_list g))

(* ---------- tracing helpers ---------- *)

let trace_flag_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Enable pipeline tracing: print span timings, per-rule counters \
           and the EXPLAIN ANALYZE operator tree after the command.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the trace to FILE (implies tracing): JSON-lines by \
           default, Chrome trace_event format when FILE ends in .trace or \
           .chrome.json (loadable in chrome://tracing or Perfetto).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel cover costing (ECov/GCov); the \
           engine itself always evaluates on one domain (default: \
           $(b,RDFQA_JOBS), else 1).  Answers, chosen covers and operation \
           totals are identical at every N.")

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

let chrome_file f =
  Filename.check_suffix f ".trace" || Filename.check_suffix f ".chrome.json"

let write_trace_file ?query ?ops ?store_bytes file =
  let events = Obs.events () in
  let oc = open_out file in
  (if chrome_file file then output_string oc (Obs.Export.chrome events)
   else begin
     output_string oc (Obs.Export.meta_line ?store_bytes ());
     output_char oc '\n';
     output_string oc
       (Obs.Export.jsonl ?query ?ops ~events ~estimates:(Obs.estimates ())
          ~counters:(Obs.counters ()) ())
   end);
  close_out oc;
  Printf.printf "-- trace written to %s\n" file

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
          match e.Obs.attrs with
          | [] -> ""
          | l ->
              "  ("
              ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
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
    Arg.(
      value
      & opt (enum [ ("lubm", `Lubm); ("dblp", `Dblp) ]) `Lubm
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"lubm or dblp.")
  in
  let scale =
    Arg.(
      value & opt int 2
      & info [ "n"; "scale" ] ~docv:"N"
          ~doc:"Universities (lubm) or publications (dblp).")
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
      | `Lubm -> Workloads.Lubm.generate_graph { Workloads.Lubm.universities = scale }
      | `Dblp -> Workloads.Dblp.generate_graph { Workloads.Dblp.publications = scale }
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
  let g =
    if Filename.check_suffix path ".ttl" then Rdf.Turtle.load_file path
    else Rdf.Ntriples.load_file path
  in
  List.map Rdf.Schema.constr_to_triple
    (Rdf.Schema.constraints (Rdf.Graph.schema g))
  @ Rdf.Graph.fact_list g

let apply_updates store ~inserts ~deletes =
  (match inserts with
  | None -> ()
  | Some path ->
      let s, d =
        Store.Encoded_store.insert_triples store (load_triples path)
      in
      Printf.printf "-- inserted %d schema + %d data triples from %s\n" s d
        path);
  match deletes with
  | None -> ()
  | Some path ->
      let s, d =
        Store.Encoded_store.delete_triples store (load_triples path)
      in
      Printf.printf "-- deleted %d schema + %d data triples from %s\n" s d
        path

let query_cmd =
  let show_cover =
    Arg.(value & flag & info [ "show-cover" ] ~doc:"Print the chosen cover.")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Print at most N answer rows.")
  in
  let insert_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "insert" ] ~docv:"FILE"
          ~doc:
            "After loading, insert FILE's triples (N-Triples or Turtle) \
             into the store: RDFS constraint triples move the schema \
             version, facts the data version, and the caches invalidate \
             accordingly.")
  in
  let delete_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "delete" ] ~docv:"FILE"
          ~doc:"After any --insert, delete FILE's triples from the store.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Answer the query N times through the cache (per-pass timings \
             are printed; warm passes hit the answer tier).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record process-level metrics (cache tiers, pool, store, \
             engine, latency histogram) and print the registry after the \
             run.  Charge totals are unaffected.")
  in
  let run data wq qs qf strategy profile show_cover limit cache_mode insert
      delete repeat trace trace_out metrics jobs =
    apply_jobs jobs;
    if metrics then begin
      Metrics.install_gc_samplers ();
      Metrics.set_enabled true;
      (* refresh the pool gauges now that recording is on *)
      ignore (Par.get ())
    end;
    match resolve_query wq qs qf with
    | Error msg -> prerr_endline msg; exit 2
    | Ok (q, schema) -> (
        let store = load_store ?schema data in
        Store.Encoded_store.publish_metrics store;
        let sys = Rqa.Answering.make ~profile store in
        apply_cache_mode sys cache_mode;
        apply_updates store ~inserts:insert ~deletes:delete;
        let strategy = to_strategy strategy in
        let tracing = trace || trace_out <> None in
        if tracing then begin
          Obs.reset ();
          Obs.set_enabled true
        end;
        let qname = match wq with Some w -> w | None -> "query" in
        let t0 = now_ms () in
        (* Every pass (the cold one included) lands in a local latency
           histogram, so --repeat reports warm-path quantiles instead of a
           scroll of per-pass lines. *)
        let lat = Metrics.Histogram.create () in
        match
          let report =
            ref
              (let t = now_ms () in
               let r = Rqa.Answering.answer sys strategy q in
               Metrics.Histogram.observe lat (now_ms () -. t);
               r)
          in
          for pass = 2 to repeat do
            let t = now_ms () in
            report := Rqa.Answering.answer sys strategy q;
            let ms = now_ms () -. t in
            Metrics.Histogram.observe lat ms;
            Printf.printf "-- pass %d: %.2f ms\n" pass ms
          done;
          if repeat > 1 then
            Printf.printf
              "-- repeat: %d passes, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, \
               max %.2f ms\n"
              (Metrics.Histogram.count lat)
              (Metrics.Histogram.quantile lat 0.50)
              (Metrics.Histogram.quantile lat 0.90)
              (Metrics.Histogram.quantile lat 0.99)
              (Metrics.Histogram.max_value lat);
          !report
        with
        | report ->
            let total = now_ms () -. t0 in
            let ex =
              match strategy with
              | Rqa.Answering.Saturation -> Rqa.Answering.saturated_engine sys
              | _ -> Rqa.Answering.engine sys
            in
            (* only the printed rows are decoded *)
            let rel = report.Rqa.Answering.answers in
            let order = Engine.Executor.order ex rel in
            let row = Engine.Executor.row_decoder ex rel in
            for n = 0 to min limit (Array.length order) - 1 do
              print_endline
                (String.concat "\t"
                   (List.map Rdf.Term.to_string (row order.(n))))
            done;
            Printf.printf
              "-- %d rows (%s, %s); %d union terms; planning %.1f ms, \
               execution %.1f ms, total %.1f ms\n"
              (Array.length order)
              (Rqa.Answering.strategy_name strategy)
              profile.Engine.Profile.name report.Rqa.Answering.union_terms
              report.Rqa.Answering.planning_ms
              report.Rqa.Answering.execution_ms total;
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
            end;
            if tracing then begin
              Obs.set_enabled false;
              if trace then begin
                print_op_tree ex;
                print_trace_summary ()
              end;
              match trace_out with
              | Some f ->
                  write_trace_file ~query:qname
                    ?ops:(Engine.Executor.last_op_stats ex)
                    ~store_bytes:(Store.Encoded_store.approx_bytes store) f
              | None -> ()
            end
        | exception Engine.Profile.Engine_failure { engine; reason } ->
            Printf.printf "ENGINE FAILURE (%s): %s\n" engine
              (Engine.Profile.failure_to_string reason);
            if tracing then begin
              Obs.set_enabled false;
              if trace then print_trace_summary ();
              match trace_out with
              | Some f ->
                  write_trace_file ~query:qname
                    ~store_bytes:(Store.Encoded_store.approx_bytes store) f
              | None -> ()
            end;
            exit 1)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer a SPARQL BGP query.")
    Term.(
      const run $ data_arg $ workload_query_arg $ query_string_arg
      $ query_file_arg $ strategy_arg $ engine_arg $ show_cover $ limit
      $ cache_mode_arg $ insert_arg $ delete_arg $ repeat_arg
      $ trace_flag_arg $ trace_out_arg $ metrics_arg $ jobs_arg)

(* ---------- reformulate ---------- *)

let reformulate_cmd =
  let limit =
    Arg.(
      value & opt int 25
      & info [ "limit" ] ~docv:"N" ~doc:"Print at most N union terms.")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:
            "Remove containment-redundant union terms (the reformulation \
             keeps them by default, as the literature does).")
  in
  let run data wq qs qf limit minimize =
    match resolve_query wq qs qf with
    | Error msg -> prerr_endline msg; exit 2
    | Ok (q, schema) -> (
        let store = load_store ?schema data in
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
            Printf.printf
              "reformulation too large to build: ~%d terms (cap %d)\n" bound
              limit)
  in
  Cmd.v
    (Cmd.info "reformulate" ~doc:"Print the CQ->UCQ reformulation.")
    Term.(
      const run $ data_arg $ workload_query_arg $ query_string_arg
      $ query_file_arg $ limit $ minimize)

(* ---------- explain ---------- *)

let explain_cmd =
  let show_plan =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:"Also print the physical plan of the GCov-chosen JUCQ.")
  in
  let run data wq qs qf profile show_plan =
    match resolve_query wq qs qf with
    | Error msg -> prerr_endline msg; exit 2
    | Ok (q, schema) ->
        let store = load_store ?schema data in
        let sys = Rqa.Answering.make ~profile store in
        let obj = Rqa.Answering.objective sys q in
        let { Rqa.Cover_space.covers; complete } =
          Rqa.Cover_space.enumerate q
        in
        Printf.printf "%-30s %16s %14s\n" "cover" "#reformulations"
          "est. cost";
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
          let reformulate cq =
            Reformulation.Reformulate.reformulate
              (Rqa.Answering.reformulator sys) cq
          in
          let j = Query.Jucq.make ~reformulate q g.Rqa.Gcov.cover in
          print_newline ();
          print_string
            (Engine.Plan.to_string
               (Engine.Plan.describe (Rqa.Answering.engine sys) j))
        end
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"List covers with estimated costs.")
    Term.(
      const run $ data_arg $ workload_query_arg $ query_string_arg
      $ query_file_arg $ engine_arg $ show_plan)

(* ---------- sql ---------- *)

let sql_cmd =
  let cover_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cover" ] ~docv:"COVER"
          ~doc:
            "Cover as semicolon-separated fragments of comma-separated \
             1-based atom indexes, e.g. '1,3;2'.  Default: the GCov choice.")
  in
  let run data wq qs qf profile cover_spec =
    match resolve_query wq qs qf with
    | Error msg -> prerr_endline msg; exit 2
    | Ok (q, schema) ->
        let store = load_store ?schema data in
        let sys = Rqa.Answering.make ~profile store in
        let cover =
          match cover_spec with
          | Some spec ->
              List.map
                (fun frag ->
                  List.map
                    (fun i -> int_of_string (String.trim i) - 1)
                    (String.split_on_char ',' frag))
                (String.split_on_char ';' spec)
          | None -> (Rqa.Gcov.search (Rqa.Answering.objective sys q)).Rqa.Gcov.cover
        in
        let reformulate cq =
          Reformulation.Reformulate.reformulate (Rqa.Answering.reformulator sys) cq
        in
        let j = Query.Jucq.make ~reformulate q cover in
        print_endline (Engine.Sql.jucq store j)
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Print the SQL for a (GCov-chosen) JUCQ reformulation.")
    Term.(
      const run $ data_arg $ workload_query_arg $ query_string_arg
      $ query_file_arg $ engine_arg $ cover_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("lubm", `Lubm); ("dblp", `Dblp) ])) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Trace every evaluation query of the workload and print the \
             aggregate calibration report (estimated-vs-actual Q-errors).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the trace as JSON-lines to FILE.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the spans as a Chrome trace_event JSON file (open in \
             chrome://tracing or Perfetto).")
  in
  let run data wl wq qs qf strategy profile cache_mode out chrome jobs =
    apply_jobs jobs;
    let strategy = to_strategy strategy in
    let queries, schema =
      match wl with
      | Some `Lubm ->
          ( List.map (fun (n, q) -> ("lubm:" ^ n, q)) Workloads.Lubm.queries,
            Some Workloads.Lubm.schema )
      | Some `Dblp ->
          ( List.map (fun (n, q) -> ("dblp:" ^ n, q)) Workloads.Dblp.queries,
            Some Workloads.Dblp.schema )
      | None -> (
          match resolve_query wq qs qf with
          | Error msg -> prerr_endline msg; exit 2
          | Ok (q, schema) ->
              let name = match wq with Some w -> w | None -> "query" in
              ([ (name, q) ], schema))
    in
    let store = load_store ?schema data in
    let sys = Rqa.Answering.make ~profile store in
    apply_cache_mode sys cache_mode;
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
        let outcome =
          match Rqa.Answering.answer sys strategy q with
          | report -> Ok report
          | exception Engine.Profile.Engine_failure { reason; _ } ->
              Error (Engine.Profile.failure_to_string reason)
        in
        Obs.set_enabled false;
        let ex =
          match strategy with
          | Rqa.Answering.Saturation -> Rqa.Answering.saturated_engine sys
          | _ -> Rqa.Answering.engine sys
        in
        (match outcome with
        | Ok report ->
            Printf.printf "%-10s %8d rows  planning %.1f ms  execution %.1f ms\n%!"
              name
              (Engine.Relation.rows report.Rqa.Answering.answers)
              report.Rqa.Answering.planning_ms
              report.Rqa.Answering.execution_ms
        | Error reason -> Printf.printf "%-10s FAIL: %s\n%!" name reason);
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
      print_string (Obs.Calibration.to_string
                      (Obs.Calibration.of_estimates !all_estimates));
    print_cache_stats sys;
    (match out with
    | Some f ->
        let oc = open_out f in
        Buffer.output_buffer oc jsonl_buf;
        close_out oc;
        Printf.printf "-- trace written to %s\n" f
    | None -> ());
    match chrome with
    | Some f ->
        let oc = open_out f in
        output_string oc (Obs.Export.chrome !all_events);
        close_out oc;
        Printf.printf "-- chrome trace written to %s\n" f
    | None -> ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a query (or a whole workload) with pipeline tracing: span \
          timings, per-operator runtime metrics with estimated vs actual \
          cardinalities, and the calibration report.")
    Term.(
      const run $ data_arg $ workload $ workload_query_arg $ query_string_arg
      $ query_file_arg $ strategy_arg $ engine_arg $ cache_mode_arg $ out
      $ chrome $ jobs_arg)

(* ---------- check ---------- *)

let check_cmd =
  let query_file_pos =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"QUERY_FILE" ~doc:"A SPARQL query file to lint.")
  in
  let workload =
    Arg.(
      value
      & opt (some (enum [ ("lubm", `Lubm); ("dblp", `Dblp) ])) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Lint every evaluation query of the given workload against its \
             built-in schema.")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"FILE"
          ~doc:
            "Optional data file whose RDFS constraint triples provide the \
             schema for the lint.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat warning diagnostics as errors.")
  in
  let machine =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:
            "Machine-readable output: one tab-separated diagnostic per line \
             (severity, code, context, message).")
  in
  let codes =
    Arg.(
      value & flag
      & info [ "codes" ] ~doc:"Print the diagnostic-code catalog and exit.")
  in
  let cost =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:
            "Also run the static cost analyzer: derive guaranteed \
             $(i,[lo, hi]) operation intervals for each query's SCQ-cover \
             plan against the engine profile (CB001-CB004, CB009).  Needs \
             data: $(b,--data), or a workload (generated in-process at the \
             CI trace scale).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Operation budget the cost analyzer admits against (default: \
             the engine profile's max_operations).")
  in
  let schema_of_data path =
    let g =
      if Filename.check_suffix path ".ttl" then Rdf.Turtle.load_file path
      else Rdf.Ntriples.load_file path
    in
    Rdf.Graph.schema g
  in
  let run query_file workload wq qs data strict machine codes cost budget
      profile trace trace_out =
    if codes then
      List.iter
        (fun (code, doc) ->
          if machine then Printf.printf "%s\t%s\n" code doc
          else Printf.printf "%s  %s\n" code doc)
        Analysis.Diagnostic.catalog
    else begin
      let tracing = trace || trace_out <> None in
      if tracing then begin
        Obs.reset ();
        Obs.set_enabled true
      end;
      let reports =
        Obs.Span.with_ "check" @@ fun sp ->
        let reports =
          match workload with
        | Some `Lubm ->
            Analysis.Checker.check_workload ~schema:Workloads.Lubm.schema
              (List.map (fun (n, q) -> ("lubm:" ^ n, q)) Workloads.Lubm.queries)
        | Some `Dblp ->
            Analysis.Checker.check_workload ~schema:Workloads.Dblp.schema
              (List.map (fun (n, q) -> ("dblp:" ^ n, q)) Workloads.Dblp.queries)
        | None -> (
            match resolve_query wq qs query_file with
            | Error msg -> prerr_endline msg; exit 2
            | Ok (q, implied_schema) ->
                let schema =
                  match (implied_schema, data) with
                  | Some s, _ -> Some s
                  | None, Some path -> Some (schema_of_data path)
                  | None, None -> None
                in
                let name =
                  match (wq, query_file) with
                  | Some w, _ -> w
                  | None, Some f -> Filename.basename f
                  | None, None -> "query"
                in
                [ (name, Analysis.Checker.check_query ?schema ~name q) ])
        in
        Obs.Span.set sp "queries" (string_of_int (List.length reports));
        reports
      in
      let cost_reports =
        if not cost then []
        else begin
          let prefixed p s =
            String.length s > String.length p
            && String.sub s 0 (String.length p) = p
          in
          let queries, wkind =
            match workload with
            | Some `Lubm ->
                ( List.map
                    (fun (n, q) -> ("lubm:" ^ n, q))
                    Workloads.Lubm.queries,
                  Some `Lubm )
            | Some `Dblp ->
                ( List.map
                    (fun (n, q) -> ("dblp:" ^ n, q))
                    Workloads.Dblp.queries,
                  Some `Dblp )
            | None -> (
                match resolve_query wq qs query_file with
                | Error msg ->
                    prerr_endline msg;
                    exit 2
                | Ok (q, _) ->
                    let name =
                      match (wq, query_file) with
                      | Some w, _ -> w
                      | None, Some f -> Filename.basename f
                      | None, None -> "query"
                    in
                    let wkind =
                      match wq with
                      | Some s when prefixed "lubm:" s -> Some `Lubm
                      | Some s when prefixed "dblp:" s -> Some `Dblp
                      | _ -> None
                    in
                    ([ (name, q) ], wkind))
          in
          (* The analyzer's oracle reads real store counts, so --cost needs
             data: an explicit file, or for workload queries the same
             in-process dataset the CI trace leg uses. *)
          let store =
            match (data, wkind) with
            | Some path, Some `Lubm ->
                load_store ~schema:Workloads.Lubm.schema path
            | Some path, Some `Dblp ->
                load_store ~schema:Workloads.Dblp.schema path
            | Some path, None -> load_store path
            | None, Some `Lubm ->
                Workloads.Lubm.generate { Workloads.Lubm.universities = 1 }
            | None, Some `Dblp ->
                Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 }
            | None, None ->
                prerr_endline
                  "rdfqa check --cost needs --data or a workload query";
                exit 2
          in
          let sys = Rqa.Answering.make ~profile store in
          let refm = Rqa.Answering.reformulator sys in
          let oracle =
            Engine.Executor.cost_oracle (Rqa.Answering.engine sys)
          in
          let capacity = profile.Engine.Profile.max_union_terms in
          let skipped context =
            [
              Analysis.Diagnostic.info ~code:"RF001" ~context
                "reformulation too large to cost statically (skipped)";
            ]
          in
          let per_query (name, q) =
            let q = Query.Bgp.normalize q in
            let cover = Query.Jucq.scq_cover q in
            let context = name ^ "/scq" in
            let ds =
              if
                List.exists
                  (fun f ->
                    Reformulation.Reformulate.count_product_bound refm
                      (Query.Jucq.cover_query q cover f)
                    > capacity)
                  cover
              then skipped context
              else
                let reformulate cq =
                  Reformulation.Reformulate.reformulate refm cq
                in
                match Query.Jucq.make ~reformulate q cover with
                | j ->
                    Analysis.Cost_verify.admission oracle ?budget ~context
                      (Analysis.Cost_verify.Jucq j)
                | exception Reformulation.Reformulate.Too_large _ ->
                    skipped context
            in
            (name, ds)
          in
          List.map per_query queries
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
        match trace_out with Some f -> write_trace_file f | None -> ()
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
      const run $ query_file_pos $ workload $ workload_query_arg
      $ query_string_arg $ data $ strict $ machine $ codes $ cost $ budget
      $ engine_arg $ trace_flag_arg $ trace_out_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("lubm", `Lubm); ("dblp", `Dblp) ]) `Lubm
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:"Workload whose evaluation queries drive the metrics run.")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"FILE"
          ~doc:
            "Data file to load (default: the same in-process dataset the \
             CI trace leg generates for the workload).")
  in
  let repeat =
    Arg.(
      value & opt int 3
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Answer each workload query N times, so the latency histogram \
             sees cold and warm passes.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Write the registry in Prometheus text exposition format.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the registry as a JSONL snapshot (schema: lib/metrics/metrics.mli).")
  in
  let run wl data strategy profile cache_mode repeat prom_out json_out jobs =
    Metrics.install_gc_samplers ();
    Metrics.set_enabled true;
    apply_jobs jobs;
    ignore (Par.get ());
    let strategy = to_strategy strategy in
    let store =
      match (data, wl) with
      | Some path, `Lubm -> load_store ~schema:Workloads.Lubm.schema path
      | Some path, `Dblp -> load_store ~schema:Workloads.Dblp.schema path
      | None, `Lubm ->
          Workloads.Lubm.generate { Workloads.Lubm.universities = 1 }
      | None, `Dblp ->
          Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 }
    in
    Store.Encoded_store.publish_metrics store;
    let queries =
      match wl with
      | `Lubm -> List.map (fun (n, q) -> ("lubm:" ^ n, q)) Workloads.Lubm.queries
      | `Dblp -> List.map (fun (n, q) -> ("dblp:" ^ n, q)) Workloads.Dblp.queries
    in
    let sys = Rqa.Answering.make ~profile store in
    apply_cache_mode sys cache_mode;
    let oracle = Engine.Executor.cost_oracle (Rqa.Answering.engine sys) in
    let capacity = oracle.Analysis.Cost_verify.max_union_terms in
    let refm = Rqa.Answering.reformulator sys in
    let failures = ref 0 in
    List.iter
      (fun (_name, q) ->
        let q = Query.Bgp.normalize q in
        (* Feed the admission tallies the same statement check --cost
           admits (the SCQ-cover JUCQ), skipping reformulations that are
           provably over the profile's union capacity, then answer the
           query through the cache so every tier and the latency histogram
           see real traffic.  Verdicts never gate execution here. *)
        let cover = Query.Jucq.scq_cover q in
        let too_large =
          List.exists
            (fun f ->
              Reformulation.Reformulate.count_product_bound refm
                (Query.Jucq.cover_query q cover f)
              > capacity)
            cover
        in
        (if not too_large then
           let reformulate cq =
             Reformulation.Reformulate.reformulate refm cq
           in
           match Query.Jucq.make ~reformulate q cover with
           | j ->
               ignore
                 (Analysis.Cost_verify.verdict oracle
                    (Analysis.Cost_verify.Jucq j))
           | exception Reformulation.Reformulate.Too_large _ -> ());
        for _pass = 1 to max 1 repeat do
          match Rqa.Answering.answer sys strategy q with
          | (_ : Rqa.Answering.report) -> ()
          | exception Engine.Profile.Engine_failure _ -> incr failures
        done)
      queries;
    (match prom_out with
    | Some f ->
        let oc = open_out f in
        output_string oc (Metrics.to_prometheus ());
        close_out oc;
        Printf.printf "-- prometheus exposition written to %s\n" f
    | None -> ());
    (match json_out with
    | Some f ->
        let oc = open_out f in
        output_string oc (Metrics.to_jsonl ());
        close_out oc;
        Printf.printf "-- jsonl snapshot written to %s\n" f
    | None -> ());
    Printf.printf "-- %d queries x %d passes (%s, %s)%s\n" (List.length queries)
      (max 1 repeat)
      (Rqa.Answering.strategy_name strategy)
      profile.Engine.Profile.name
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
      const run $ workload $ data $ strategy_arg $ engine_arg
      $ cache_mode_arg $ repeat $ prom_out $ json_out $ jobs_arg)

(* ---------- serve / client ---------- *)

let serve_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("lubm", `Lubm); ("dblp", `Dblp) ]) `Lubm
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload whose schema and evaluation queries warm the server \
             (schema vocabulary and query constants pre-interned).")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "d"; "data" ] ~docv:"FILE"
          ~doc:
            "Data file to serve (default: the same in-process dataset the \
             CI trace leg generates for the workload).")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; 0 (the default) binds an ephemeral \
                port.")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port to FILE once listening, so scripted \
             clients can find an ephemeral port.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"OPS"
          ~doc:
            "Per-request static cost admission budget: a query whose \
             SCQ-cover plan provably exceeds OPS operations is refused \
             with ERR before execution.")
  in
  let run wl data strategy profile cache_mode port host port_file budget jobs
      =
    Metrics.install_gc_samplers ();
    Metrics.set_enabled true;
    apply_jobs jobs;
    ignore (Par.get ());
    let store =
      match (data, wl) with
      | Some path, `Lubm -> load_store ~schema:Workloads.Lubm.schema path
      | Some path, `Dblp -> load_store ~schema:Workloads.Dblp.schema path
      | None, `Lubm ->
          Workloads.Lubm.generate { Workloads.Lubm.universities = 1 }
      | None, `Dblp ->
          Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 }
    in
    let warm =
      match wl with
      | `Lubm -> List.map snd Workloads.Lubm.queries
      | `Dblp -> List.map snd Workloads.Dblp.queries
    in
    let config =
      {
        Server.host;
        port;
        strategy = to_strategy strategy;
        profile;
        cache_mode;
        budget;
        warm;
      }
    in
    let srv =
      try Server.start config store
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s:%d: %s\n" host port
          (Unix.error_message e);
        exit 2
    in
    (match port_file with
    | Some f ->
        let oc = open_out f in
        output_string oc (string_of_int (Server.port srv));
        output_char oc '\n';
        close_out oc
    | None -> ());
    Printf.printf
      "-- serving %d triples on %s:%d (%s, %s, jobs %d%s); SIGTERM drains\n%!"
      (Store.Encoded_store.size store)
      host (Server.port srv)
      (Rqa.Answering.strategy_name (to_strategy strategy))
      profile.Engine.Profile.name (Par.effective_jobs ())
      (match budget with
      | Some b -> Printf.sprintf ", budget %d" b
      | None -> "");
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
      const run $ workload $ data $ strategy_arg $ engine_arg
      $ cache_mode_arg $ port $ host $ port_file $ budget $ jobs_arg)

let client_cmd =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let port_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Read the server port from FILE (as written by $(b,rdfqa \
             serve --port-file)).")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "query-strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Send $(b,--workload-query) requests as \
             QUERY/$(docv) per-request overrides instead of the server's \
             default strategy.")
  in
  let run host port port_file requests workload_queries query_strategy =
    let expand name =
      match resolve_query (Some name) None None with
      | Ok (q, _) ->
          let text =
            String.map
              (fun c -> if c = '\n' then ' ' else c)
              (Query.Sparql.to_sparql q)
          in
          let verb =
            match query_strategy with
            | None -> "QUERY"
            | Some s -> "QUERY/" ^ s
          in
          verb ^ " " ^ text
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
            if String.length status >= 3 && String.sub status 0 3 = "ERR"
            then failed := true;
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
            generate_cmd; query_cmd; reformulate_cmd; explain_cmd; sql_cmd;
            check_cmd; trace_cmd; stats_cmd; serve_cmd;
            client_cmd;
          ]))
