(* The repository benchmark.  One workload per process:

     perfbench --workload lubm-cold|serve-mixed --seed N
               --seconds S --trace 0|1 [--server PATH]

   prints every end-to-end metric (--trace 0) or every per-layer metric
   (--trace 1) as the last stdout line, one JSON object:
   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}.

     perfbench --self-test [--server PATH]

   is the benchmark's own determinism test: two fixed-length runs of each
   workload with one seed must report identical deterministic counts, and
   another seed must change the request sequence. *)

open Common

(* The metric catalogue, in BENCHMARK.json's order.  A workload reports
   the metrics its layers expose; the others read 0 on it. *)
let end_to_end =
  [
    ("setup_s", "s"); ("qps", "1/s"); ("p50_ms", "ms"); ("p98_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("query.parse_ms", "ms"); ("reformulation.ms", "ms");
    ("reformulation.calls", "count"); ("reformulation.cqs", "count");
    ("cost_model.ms", "ms"); ("cost_model.calls", "count");
    ("cover_search.self_ms", "ms"); ("cover_search.covers_explored", "count");
    ("plan.jucq_ms", "ms"); ("engine.eval_ms", "ms");
    ("engine.operations", "count"); ("engine.statements", "count");
    ("engine.ops_per_row", "count"); ("engine.decode_ms", "ms");
    ("server.planning_ms", "ms"); ("server.execution_ms", "ms");
    ("server.overhead_ms", "ms"); ("write_p50_ms", "ms");
    ("write_p90_ms", "ms"); ("wire.rows_per_request", "count");
    ("wire.bytes_per_request", "B"); ("cache.answer.hit_ratio", "ratio");
    ("cache.cover.hit_ratio", "ratio");
    ("cache.reformulation.hit_ratio", "ratio"); ("store.inserts", "count");
    ("store.deletes", "count"); ("epoch.reads", "count");
    ("epoch.writes", "count"); ("setup.load_ms", "ms");
    ("setup.warm_up_ms", "ms"); ("setup.heap_mb", "MB");
    ("gc.major_collections", "count"); ("gc.minor_collections", "count");
    ("trace.wall_ms", "ms"); ("trace.coverage_min", "ratio");
    ("trace.overhead_pct", "%"); ("error_rate", "ratio");
  ]

let complete catalogue (r : result) =
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric missing from the catalogue: " ^ name))
    r.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some m -> m
        | None -> (name, 0., unit))
      catalogue
  in
  { r with metrics }

let workloads = [ "lubm-cold"; "serve-mixed" ]

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let run_workload ~workload ~server ~seed ~seconds ~trace ~boots ~requests =
  check_templates ();
  (* the work directory lives in the current (checkout) directory *)
  let work =
    Filename.concat (Sys.getcwd ())
      (Printf.sprintf ".bench_work/%d" (Unix.getpid ()))
  in
  (try Unix.mkdir (Filename.dirname work) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o755;
  at_exit (fun () -> remove_tree work);
  let r =
    match (workload, server) with
    | "lubm-cold", _ -> Cold.run ~seed ~seconds ~trace ~boots ~requests
    | "serve-mixed", Some exe ->
        Serve.run ~exe ~work ~seed ~seconds ~trace ~boots ~requests
    | "serve-mixed", None -> failwith "--server is required for serve-mixed"
    | w, _ -> failwith ("unknown workload: " ^ w)
  in
  complete (if trace then per_layer else end_to_end) r

let counts_line r =
  "counts "
  ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.counts)

(* Runs this executable on one fixed-length workload and returns its
   counts line. *)
let child ~server ~workload ~seed =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--requests"; "120"; "--boots"; "1"; "--counts" ]
    @ (match server with Some s -> [ "--server"; s ] | None -> [])
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec last acc =
    match input_line ic with
    | l when String.starts_with ~prefix:"counts " l -> last (Some l)
    | _ -> last acc
    | exception End_of_file -> acc
  in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> l
  | _ -> failwith (Printf.sprintf "self-test run of %s failed" workload)

let sequence_of line =
  List.find_map
    (fun kv ->
      if String.starts_with ~prefix:"sequence=" kv then Some kv else None)
    (String.split_on_char ' ' line)

let self_test ~server =
  let ok = ref true in
  List.iter
    (fun workload ->
      let a = child ~server ~workload ~seed:1 in
      let b = child ~server ~workload ~seed:1 in
      let c = child ~server ~workload ~seed:2 in
      let same = a = b and moved = sequence_of a <> sequence_of c in
      Printf.printf "%-12s same seed: %s; other seed moves the sequence: %s\n  %s\n%!"
        workload
        (if same then "identical counts" else "COUNTS DIFFER")
        (if moved then "yes" else "NO")
        a;
      if not same then Printf.printf "  %s\n%!" b;
      ok := !ok && same && moved)
    workloads;
  if not !ok then exit 1

let () =
  (* a server that goes away must surface as a failed request *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_children _ =
    List.iter Serve.stop_process !children;
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_children);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_children);
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and server = ref None and boots = ref 3 in
  let requests = ref None and counts = ref false and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--server", Arg.String (fun s -> server := Some s), "PATH rdfqa executable");
      ("--boots", Arg.Set_int boots, "N set-ups per run (median reported)");
      ( "--requests",
        Arg.Int (fun n -> requests := Some n),
        "N fixed request count per connection instead of a time window" );
      ("--counts", Arg.Set counts, " print the deterministic counts line");
      ("--self-test", Arg.Set self, " run the determinism self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 [--server PATH]";
  if !self then self_test ~server:!server
  else begin
    if !boots < 1 || !seconds <= 0. || not (List.mem !workload workloads) then begin
      prerr_endline "perfbench: bad arguments (see --help)";
      exit 2
    end;
    let r =
      run_workload ~workload:!workload ~server:!server ~seed:!seed
        ~seconds:!seconds ~trace:(!trace = 1) ~boots:!boots ~requests:!requests
    in
    if !counts then print_endline (counts_line r);
    print_endline (result_json r);
    Par.shutdown_global ()
  end
