(* Integration tests for the rdfqa command-line tool: each subcommand is
   exercised against a freshly generated dataset.  The binary is run as a
   subprocess (dune provides it via the test stanza's deps); stdout is
   captured to a temp file and grepped. *)

(* Under `dune runtest` the working directory is _build/default/test; under
   a direct `dune exec test/test_cli.exe` it is the project root. *)
let exe =
  List.find Sys.file_exists
    [ "../bin/rdfqa.exe"; "_build/default/bin/rdfqa.exe" ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let run_capture args =
  let out = Filename.temp_file "rqa_cli" ".out" in
  (* RDFQA_VERIFY=1: the spawned binary statically verifies every plan it
     compiles, so the CLI tests double as end-to-end verifier runs. *)
  let cmd =
    Printf.sprintf "RDFQA_VERIFY=1 %s %s > %s 2>&1" exe args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove out;
  (code, body)

let data_file =
  lazy
    (let path = Filename.temp_file "rqa_cli" ".nt" in
     let code, body =
       run_capture (Printf.sprintf "generate -w lubm -n 1 -o %s" path)
     in
     Alcotest.(check int) "generate exit code" 0 code;
     Alcotest.(check bool) "generate reports facts" true
       (contains body "wrote" && contains body "schema constraints");
     path)

let test_generate () = ignore (Lazy.force data_file)

let test_query_gcov () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf
         "query -d %s --workload-query lubm:Q01 -s gcov --show-cover" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "row count line" true (contains body "rows (GCov");
  Alcotest.(check bool) "cover line" true (contains body "-- cover:")

let test_query_strategies_agree () =
  let data = Lazy.force data_file in
  let rows strategy =
    let _, body =
      run_capture
        (Printf.sprintf
           "query -d %s --workload-query lubm:Q03 -s %s --limit 0" data
           strategy)
    in
    body
  in
  let extract body =
    (* the summary line starts with "-- N rows" *)
    List.find_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | "--" :: n :: "rows" :: _ -> int_of_string_opt n
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  let sat = extract (rows "saturation") in
  let ucq = extract (rows "ucq") in
  let gcov = extract (rows "gcov") in
  Alcotest.(check bool) "parsed" true (sat <> None && ucq <> None && gcov <> None);
  Alcotest.(check bool) "saturation = ucq = gcov" true (sat = ucq && ucq = gcov)

let test_query_engine_failure_exit_code () =
  let data = Lazy.force data_file in
  (* Q28's UCQ exceeds every engine's union capacity: exit code 1. *)
  let code, body =
    run_capture
      (Printf.sprintf "query -d %s --workload-query lubm:Q28 -s ucq" data)
  in
  Alcotest.(check int) "failure exit code" 1 code;
  Alcotest.(check bool) "failure message" true (contains body "ENGINE FAILURE")

let test_reformulate () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf
         "reformulate -d %s -q 'SELECT ?x WHERE { ?x a \
          <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Student> }'"
         data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "term count" true (contains body "union terms")

let test_reformulate_minimize () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf
         "reformulate -d %s --minimize --workload-query lubm:Q02" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "term count" true (contains body "union terms")

let test_explain_plan () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf "explain -d %s --workload-query lubm:Q01 --plan" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "gcov line" true (contains body "GCov picks");
  Alcotest.(check bool) "plan printed" true (contains body "Project head")

(* The SQL of the GCov JUCQ, printed by [explain --plan]. *)
let test_sql () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf "explain -d %s --workload-query lubm:Q01 --plan" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "select" true (contains body "SELECT DISTINCT");
  Alcotest.(check bool) "triples table" true (contains body "Triples t0")

let test_turtle_workflow () =
  let path = Filename.temp_file "rqa_cli" ".ttl" in
  let code, _ = run_capture (Printf.sprintf "generate -w dblp -n 100 -o %s" path) in
  Alcotest.(check int) "generate ttl" 0 code;
  let code, body =
    run_capture
      (Printf.sprintf "query -d %s --workload-query dblp:Q01 -s gcov --limit 0" path)
  in
  Sys.remove path;
  Alcotest.(check int) "query over ttl" 0 code;
  Alcotest.(check bool) "has rows" true (contains body "rows (GCov")

(* ---- tracing ---- *)

(* Same resolution dance as [exe]: the validator lives next to this test. *)
let validator =
  List.find Sys.file_exists
    [ "./validate_trace.exe"; "_build/default/test/validate_trace.exe" ]

let read_file path =
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let validate_trace path =
  let out = Filename.temp_file "rqa_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>&1" validator (Filename.quote path)
         (Filename.quote out))
  in
  let body = read_file out in
  Sys.remove out;
  (code, body)

let test_trace_tree () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf "trace -d %s --workload-query lubm:Q01 -s gcov" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "explain analyze tree" true
    (contains body "EXPLAIN ANALYZE");
  Alcotest.(check bool) "estimated and actual cardinalities" true
    (contains body "est=" && contains body "actual=");
  Alcotest.(check bool) "span summary" true (contains body "exec.");
  Alcotest.(check bool) "engine counters" true (contains body "-- engine:")

let test_trace_subcommand () =
  let data = Lazy.force data_file in
  let jsonl = Filename.temp_file "rqa_cli" ".jsonl" in
  let chrome = Filename.temp_file "rqa_cli" ".trace" in
  let code, body =
    run_capture
      (Printf.sprintf
         "trace -d %s --workload-query lubm:Q01 -s gcov -o %s --chrome %s"
         data jsonl chrome)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "row summary" true (contains body "rows");
  let vcode, vbody = validate_trace jsonl in
  Alcotest.(check int) "jsonl validates" 0 vcode;
  Alcotest.(check bool) "validator summary" true (contains vbody "OK:");
  Alcotest.(check bool) "trace has op lines" true (contains vbody "op=");
  Alcotest.(check bool) "trace has span lines" true (contains vbody "span=");
  let cbody = read_file chrome in
  Alcotest.(check bool) "chrome trace events" true
    (contains cbody "\"traceEvents\"" && contains cbody "\"ph\":\"X\"");
  Sys.remove jsonl;
  Sys.remove chrome

let test_trace_workload_calibration () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture (Printf.sprintf "trace -d %s -w lubm -s gcov" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "per-query rows" true (contains body "Q01");
  Alcotest.(check bool) "calibration report" true
    (contains body "Calibration report" && contains body "median q")

let test_check_trace_out () =
  let path = Filename.temp_file "rqa_cli" ".jsonl" in
  let code, _ =
    run_capture (Printf.sprintf "check -w lubm --trace-out %s" path)
  in
  Alcotest.(check int) "exit code" 0 code;
  let vcode, vbody = validate_trace path in
  Sys.remove path;
  Alcotest.(check int) "check trace validates" 0 vcode;
  Alcotest.(check bool) "check span recorded" true (contains vbody "span=")

(* --jobs N must not change anything observable: answer rows, the engine
   work accounting and the chosen cover are compared line-for-line (only
   timing lines may differ).  Runs under RDFQA_VERIFY=1 like every CLI
   test, so the verifier also sees the parallel plans. *)
let test_query_jobs_deterministic () =
  let data = Lazy.force data_file in
  let observable body =
    String.split_on_char '\n' body
    |> List.filter (fun l ->
           (* timing lines, and the honest clamp note that only the
              jobs=4 invocation prints on machines with fewer cores *)
           not (contains l "ms" || contains l "clamped"))
    |> String.concat "\n"
  in
  let code1, body1 =
    run_capture
      (Printf.sprintf
         "query -d %s --workload-query lubm:Q02 -s gcov --show-cover" data)
  in
  let code4, body4 =
    run_capture
      (Printf.sprintf
         "query -d %s --workload-query lubm:Q02 -s gcov --show-cover \
          --jobs 4"
         data)
  in
  Alcotest.(check int) "jobs=1 exit code" 0 code1;
  Alcotest.(check int) "jobs=4 exit code" 0 code4;
  Alcotest.(check bool) "engine counters present" true
    (contains body1 "-- engine:");
  Alcotest.(check string) "identical output modulo timings"
    (observable body1) (observable body4)

let test_trace_jobs () =
  let data = Lazy.force data_file in
  let jsonl = Filename.temp_file "rqa_cli" ".jsonl" in
  let code, _ =
    run_capture
      (Printf.sprintf
         "trace -d %s --workload-query lubm:Q01 -s gcov -o %s --jobs 4" data
         jsonl)
  in
  Alcotest.(check int) "exit code" 0 code;
  let vcode, vbody = validate_trace jsonl in
  let meta_jobs = contains (read_file jsonl) "\"jobs\":4" in
  Sys.remove jsonl;
  Alcotest.(check int) "jobs=4 trace validates" 0 vcode;
  Alcotest.(check bool) "validator summary" true (contains vbody "OK:");
  Alcotest.(check bool) "meta line records jobs" true meta_jobs

(* ---- check: exit-code contract and static cost analysis ----

   The documented contract: 0 clean (infos allowed), 1 warnings promoted
   by --strict, 2 error diagnostics. *)

let write_query content =
  let path = Filename.temp_file "rqa_cli" ".rq" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let test_check_exit_clean () =
  let q = write_query "SELECT ?x WHERE { ?x <http://ex/p> ?y }" in
  let code, body = run_capture (Printf.sprintf "check %s --strict" q) in
  Sys.remove q;
  Alcotest.(check int) "clean query exits 0 even under --strict" 0 code;
  Alcotest.(check bool) "reported clean" true (contains body "clean")

let test_check_exit_strict_warning () =
  (* a property the data's schema does not declare: QL004, a warning *)
  let data = Lazy.force data_file in
  let q = write_query "SELECT ?x WHERE { ?x <http://ex/p> ?y }" in
  let lax, _ = run_capture (Printf.sprintf "check %s -d %s" q data) in
  let strict, body =
    run_capture (Printf.sprintf "check %s -d %s --strict" q data)
  in
  Sys.remove q;
  Alcotest.(check int) "warnings alone exit 0" 0 lax;
  Alcotest.(check int) "warnings exit 1 under --strict" 1 strict;
  Alcotest.(check bool) "QL004 reported" true (contains body "QL004")

let test_check_exit_error () =
  (* disconnected join graph: the covers violate Definition 3.3 (CV006 /
     CV007 errors) on top of the QL002 lint warning *)
  let q =
    write_query
      "SELECT ?x ?y WHERE { ?x <http://ex/p> ?a . ?y <http://ex/q> ?b }"
  in
  let code, body = run_capture (Printf.sprintf "check %s" q) in
  Sys.remove q;
  Alcotest.(check int) "errors exit 2" 2 code;
  Alcotest.(check bool) "cover errors reported" true
    (contains body "CV006" || contains body "CV007");
  Alcotest.(check bool) "lint warning reported too" true
    (contains body "QL002")

let test_check_unparseable_query () =
  (* the parser refuses a head variable absent from the body *)
  let q = write_query "SELECT ?z WHERE { ?x <http://ex/p> ?y }" in
  let code, body = run_capture (Printf.sprintf "check %s" q) in
  Sys.remove q;
  Alcotest.(check int) "bad query exits 2, not a crash" 2 code;
  Alcotest.(check bool) "parse failure reported" true
    (contains body "bad query")

let test_check_cost () =
  let code, body = run_capture "check -w lubm --cost --strict" in
  Alcotest.(check int) "cost check over LUBM exits 0" 0 code;
  Alcotest.(check bool) "operation intervals reported" true
    (contains body "static operation interval");
  Alcotest.(check bool) "verdict codes present" true
    (contains body "CB002" || contains body "CB004")

let test_check_cost_budget () =
  (* an absurdly small budget makes every plan provably over budget *)
  let code, body =
    run_capture "check -w lubm --cost --budget 1 --machine"
  in
  Alcotest.(check int) "provable failures exit 2" 2 code;
  Alcotest.(check bool) "CB001 reported" true (contains body "CB001")

let test_check_codes_machine () =
  let code, body = run_capture "check --codes --machine" in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "tab-separated code lines" true
    (contains body "CB001\t" && contains body "QL001\t");
  Alcotest.(check bool) "all CB codes present" true
    (List.for_all
       (fun c -> contains body c)
       [ "CB001"; "CB002"; "CB003"; "CB004"; "CB009" ])

(* ---- stats / metrics ---- *)

let metrics_validator =
  List.find Sys.file_exists
    [ "./validate_metrics.exe"; "_build/default/test/validate_metrics.exe" ]

let validate_metrics ?(require = []) path =
  let out = Filename.temp_file "rqa_cli" ".out" in
  let req =
    match require with
    | [] -> ""
    | fams -> Printf.sprintf "--require %s " (String.concat "," fams)
  in
  let code =
    Sys.command
      (Printf.sprintf "%s %s%s > %s 2>&1" metrics_validator req
         (Filename.quote path) (Filename.quote out))
  in
  let body = read_file out in
  Sys.remove out;
  (code, body)

let test_stats () =
  let prom = Filename.temp_file "rqa_cli" ".prom" in
  let jsonl = Filename.temp_file "rqa_cli" ".jsonl" in
  let code, body =
    run_capture
      (Printf.sprintf "stats -w lubm --repeat 2 --prom %s --json %s" prom
         jsonl)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "summary line" true (contains body "passes (GCov");
  Alcotest.(check bool) "latency histogram reported" true
    (contains body "query.latency_ms");
  Alcotest.(check bool) "admission tallies reported" true
    (contains body "admission.");
  (* the view tier's families must be registered (hence exported) even
     when no views were installed during the run *)
  let pcode, pbody =
    validate_metrics
      ~require:
        [
          "rdfqa_views_hits_total";
          "rdfqa_views_misses_total";
          "rdfqa_views_rematerializations_total";
          "rdfqa_views_count";
          "rdfqa_views_bytes";
        ]
      prom
  in
  let jcode, jbody =
    validate_metrics
      ~require:
        [
          "views.hits";
          "views.misses";
          "views.rematerializations";
          "views.count";
          "views.bytes";
        ]
      jsonl
  in
  Sys.remove prom;
  Sys.remove jsonl;
  Alcotest.(check int) "prometheus validates" 0 pcode;
  Alcotest.(check bool) "prometheus summary" true (contains pbody "ok");
  Alcotest.(check int) "jsonl validates" 0 jcode;
  Alcotest.(check bool) "jsonl summary" true (contains jbody "ok")

let test_query_metrics_and_repeat () =
  let data = Lazy.force data_file in
  let code, body =
    run_capture
      (Printf.sprintf
         "query -d %s --workload-query lubm:Q01 -s gcov --limit 0 --repeat 3 \
          --metrics" data)
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "repeat quantiles" true
    (contains body "-- repeat: 3 passes" && contains body "p99");
  Alcotest.(check bool) "metrics dump" true (contains body "-- metrics:");
  Alcotest.(check bool) "gc gauges sampled" true (contains body "gc.heap_words")

let test_bad_arguments () =
  let code, _ = run_capture "query --workload-query lubm:Q01" in
  Alcotest.(check bool) "missing --data rejected" true (code <> 0);
  let data = Lazy.force data_file in
  let code, _ =
    run_capture (Printf.sprintf "query -d %s" data)
  in
  Alcotest.(check int) "missing query rejected" 2 code

let test_unknown_workload_query () =
  let data = Lazy.force data_file in
  List.iter
    (fun args ->
      let code, body = run_capture args in
      Alcotest.(check int) (args ^ ": exit 2") 2 code;
      Alcotest.(check bool) (args ^ ": no uncaught exception") false
        (contains body "Fatal error");
      Alcotest.(check bool) (args ^ ": names the known range") true
        (contains body "unknown workload query"
        && contains body "known: Q01"))
    [
      Printf.sprintf "query -d %s --workload-query lubm:Q99" data;
      "check --workload-query dblp:Q99";
    ]

(* ---- serve: boots with the benchmark's command line ---- *)

(* Starts [rdfqa serve] with perfbench/serve.ml's exact argv, answers one
   PING through [rdfqa client], then drains on SIGTERM. *)
let test_serve_boot () =
  let data = Lazy.force data_file in
  let port_file = Filename.temp_file "rqa_cli" ".port" in
  Sys.remove port_file;
  let log = Filename.temp_file "rqa_cli" ".log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "-w"; "lubm"; "-d"; data; "-s"; "gcov"; "-e";
        "postgres"; "--cache"; "on"; "--jobs"; "1"; "--port-file"; port_file;
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let exited = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !exited then Unix.kill pid Sys.sigkill;
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ port_file; log ])
  @@ fun () ->
  (* the port file is written in one piece once the server listens *)
  let rec await n =
    let listening =
      Sys.file_exists port_file
      && int_of_string_opt (String.trim (read_file port_file)) <> None
    in
    if not listening then begin
      if n = 0 then Alcotest.fail "serve wrote no port file within 60 s";
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 1200;
  let code, body =
    run_capture (Printf.sprintf "client --port-file %s PING" port_file)
  in
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  exited := true;
  Alcotest.(check int) "client exit code" 0 code;
  Alcotest.(check bool) "pong" true (contains body "OK pong");
  Alcotest.(check bool) "serve exits 0 on SIGTERM" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "drained line" true
    (contains (read_file log) "-- drained:")

let () =
  Alcotest.run "cli"
    [
      ( "rdfqa",
        [
          Alcotest.test_case "generate" `Quick test_generate;
          Alcotest.test_case "query gcov" `Quick test_query_gcov;
          Alcotest.test_case "strategies agree" `Quick test_query_strategies_agree;
          Alcotest.test_case "engine failure exit code" `Quick test_query_engine_failure_exit_code;
          Alcotest.test_case "reformulate" `Quick test_reformulate;
          Alcotest.test_case "reformulate --minimize" `Quick test_reformulate_minimize;
          Alcotest.test_case "explain --plan" `Quick test_explain_plan;
          Alcotest.test_case "sql" `Quick test_sql;
          Alcotest.test_case "turtle workflow" `Quick test_turtle_workflow;
          Alcotest.test_case "trace prints the analyze tree" `Quick
            test_trace_tree;
          Alcotest.test_case "trace subcommand" `Quick test_trace_subcommand;
          Alcotest.test_case "trace workload calibration" `Quick
            test_trace_workload_calibration;
          Alcotest.test_case "check --trace-out" `Quick test_check_trace_out;
          Alcotest.test_case "check exit code 0 (clean)" `Quick
            test_check_exit_clean;
          Alcotest.test_case "check exit code 1 (strict warnings)" `Quick
            test_check_exit_strict_warning;
          Alcotest.test_case "check exit code 2 (errors)" `Quick
            test_check_exit_error;
          Alcotest.test_case "check rejects unparseable query" `Quick
            test_check_unparseable_query;
          Alcotest.test_case "check --cost" `Quick test_check_cost;
          Alcotest.test_case "check --cost --budget" `Quick
            test_check_cost_budget;
          Alcotest.test_case "check --codes --machine" `Quick
            test_check_codes_machine;
          Alcotest.test_case "query --jobs deterministic" `Quick
            test_query_jobs_deterministic;
          Alcotest.test_case "trace --jobs 4" `Quick test_trace_jobs;
          Alcotest.test_case "stats exports validate" `Quick test_stats;
          Alcotest.test_case "query --metrics --repeat" `Quick
            test_query_metrics_and_repeat;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "unknown workload query exits 2" `Quick
            test_unknown_workload_query;
          Alcotest.test_case "serve boots with the benchmark argv" `Quick
            test_serve_boot;
        ] );
    ]
