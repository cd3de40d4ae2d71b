(* serve-mixed: one closed-loop connection against an [rdfqa serve]
   subprocess loaded from the generated N-Triples file.  After one
   unmeasured pass that fills the answer tier, it sends a Zipf mix of the
   templates where every 10th request is a write alternating INSERT and
   DELETE of one fixed batch, so the store moves between two states and
   each write flushes tiers 2-3. *)

open Common

(* ---- the server process ---- *)

type server = { pid : int; port : int; boot_s : float }

(* The port file's one line, once the server has written all of it. *)
let read_port file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | s when String.ends_with ~suffix:"\n" s -> int_of_string_opt (String.trim s)
  | _ -> None

(* A connection reads each response whole into one reusable buffer and
   digests the payload in its wire form: the client shares the host's two
   cores with the server, so it must stay cheap and allocate little
   (splitting 400 KB responses into line strings cost the server CPU time
   and made the client's garbage collections part of the figures). *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create (1 lsl 20); len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type response = { status : string; payload : int; payload_len : int }

(* Dot-stuffing makes a lone "." line the terminator and nothing else. *)
let complete c =
  let at i = Bytes.get c.buf (c.len - i) in
  c.len >= 3 && at 1 = '\n' && at 2 = '.' && at 3 = '\n'

(* One request line and its whole response.  Raises End_of_file or
   Unix.Unix_error when the connection drops. *)
let request c line =
  let s = line ^ "\n" in
  let rec send off =
    if off < String.length s then
      send (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  send 0;
  c.len <- 0;
  while not (complete c) do
    if c.len = Bytes.length c.buf then begin
      let b = Bytes.create (2 * c.len) in
      Bytes.blit c.buf 0 b 0 c.len;
      c.buf <- b
    end;
    let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
    if n = 0 then raise End_of_file;
    c.len <- c.len + n
  done;
  let eol = Bytes.index c.buf '\n' in
  { status = Bytes.sub_string c.buf 0 eol; payload = eol + 1;
    payload_len = c.len - eol - 3 }

let ok r = String.starts_with ~prefix:"OK" r.status

(* Comparable with [Common.rows_digest]. *)
let payload_digest c r = Digest.subbytes c.buf r.payload r.payload_len

let payload_lines c r =
  if r.payload_len <= 0 then []
  else
    List.map Server.Protocol.unstuff
      (String.split_on_char '\n'
         (Bytes.sub_string c.buf r.payload (r.payload_len - 1)))

let stop_process pid =
  children := List.filter (( <> ) pid) !children;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Spawns [rdfqa serve] and times it until the first PING is answered. *)
let spawn ~exe ~work ~data k =
  let port_file = Filename.concat work (Printf.sprintf "port%d" k) in
  (try Sys.remove port_file with Sys_error _ -> ());
  let logfd =
    Unix.openfile
      (Filename.concat work (Printf.sprintf "serve%d.log" k))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now_ms () in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "-w"; "lubm"; "-d"; data; "-s"; "gcov"; "-e";
        "postgres"; "--cache"; "on"; "--jobs"; "1"; "--port-file"; port_file;
      |]
      null logfd logfd
  in
  children := pid :: !children;
  Unix.close null;
  Unix.close logfd;
  let rec await () =
    match read_port port_file with
    | Some port -> port
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now_ms () -. t0 < 120_000. ->
            Unix.sleepf 0.01;
            await ()
        | 0, _ ->
            stop_process pid;
            failwith "rdfqa serve did not listen within 120 s"
        | _ -> failwith "rdfqa serve exited during boot")
  in
  let port = await () in
  let c = connect port in
  let r = request c "PING" in
  let boot_s = (now_ms () -. t0) /. 1000. in
  ignore (request c "QUIT");
  close c;
  if r.status <> "OK pong" then begin
    stop_process pid;
    failwith ("unexpected PING reply: " ^ r.status)
  end;
  { pid; port; boot_s }

(* Counters and gauges of a PROM exposition (labelled series skipped). *)
let prom c =
  let lines = payload_lines c (request c "PROM") in
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' || String.contains l '{' then None
      else
        match String.split_on_char ' ' l with
        | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
        | _ -> None)
    lines

let stats c =
  let lines = payload_lines c (request c "STATS") in
  List.filter_map
    (fun l ->
      match String.index_opt l '=' with
      | Some i ->
          Option.map
            (fun v -> (String.sub l 0 i, v))
            (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
      | None -> None)
    lines

let field status key =
  List.find_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] when k = key -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char ' ' status)

(* ---- one client connection ---- *)

type client = {
  lat : Samples.t;  (** read latencies, failures included *)
  write_lat : Samples.t;
  by_template : Samples.t array;
      (** successful read latencies per template *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable reads : int;
  mutable rows : int;
  mutable bytes : int;
  mutable planning : float;  (** server-reported, with --trace 1 *)
  mutable execution : float;
  mutable traced_lat : float;
  mutable sequence : string;
}

let client () =
  {
    lat = Samples.create ();
    write_lat = Samples.create ();
    by_template = Array.init n_templates (fun _ -> Samples.create ());
    attempted = 0; failed = 0; mismatches = 0; reads = 0; rows = 0;
    bytes = 0; planning = 0.; execution = 0.; traced_lat = 0.; sequence = "";
  }

type phase = {
  port : int;
  seed : int;
  batch_file : string;
  digests : Digest.t array array;
      (** per store state (0: as loaded, 1: batch inserted), per template *)
}

(* Every [writes_every]-th request is a write.  10 is the interval, among
   those measured (perfbench/README.md, "Traffic shape"), that maximises
   the smallest of three shares: writes' share of the window, and the hit
   and miss shares of reads. *)
let writes_every = 10

(* The closed request loop of the connection, until [until] (ms) or for
   [count] requests: INSERT of the batch on odd writes, DELETE on even
   ones.  With [trace] reads also record the server-reported stage
   split. *)
let drive ph ~until ~count ~trace cl =
  let sched = schedule zipf_quota ~seed:ph.seed ~conn:0 in
  let c = ref (Some (connect ph.port)) in
  let state = ref 0 and n = ref 0 and writes = ref 0 in
  let seq = Buffer.create 1024 in
  let fail samples =
    cl.failed <- cl.failed + 1;
    Samples.add samples failure_latency_ms
  in
  let dropped samples =
    fail samples;
    Option.iter close !c;
    c := (try Some (connect ph.port) with Unix.Unix_error _ -> None)
  in
  while
    (match count with Some m -> !n < m | None -> now_ms () < until)
    && Option.is_some !c
  do
    incr n;
    let cn = Option.get !c in
    cl.attempted <- cl.attempted + 1;
    if !n mod writes_every = 0 then begin
      incr writes;
      let insert = !writes mod 2 = 1 in
      Buffer.add_char seq (if insert then '+' else '-');
      let t0 = now_ms () in
      match
        request cn ((if insert then "INSERT " else "DELETE ") ^ ph.batch_file)
      with
      | r when ok r ->
          Samples.add cl.write_lat (now_ms () -. t0);
          state := if insert then 1 else 0
      | _ -> fail cl.write_lat
      | exception (End_of_file | Unix.Unix_error _) -> dropped cl.write_lat
    end
    else begin
      let i = next sched in
      Buffer.add_char seq (Char.chr (65 + i));
      let t0 = now_ms () in
      match request cn ("QUERY " ^ snd templates.(i)) with
      | r when ok r ->
          let ms = now_ms () -. t0 in
          Samples.add cl.lat ms;
          Samples.add cl.by_template.(i) ms;
          let get key = Option.value ~default:0. (field r.status key) in
          cl.reads <- cl.reads + 1;
          cl.rows <- cl.rows + Float.to_int (get "rows");
          cl.bytes <- cl.bytes + cn.len;
          if trace then begin
            cl.planning <- cl.planning +. get "planning_ms";
            cl.execution <- cl.execution +. get "execution_ms";
            cl.traced_lat <- cl.traced_lat +. ms
          end;
          if payload_digest cn r <> ph.digests.(!state).(i) then
            cl.mismatches <- cl.mismatches + 1
      | _ -> fail cl.lat
      | exception (End_of_file | Unix.Unix_error _) -> dropped cl.lat
    end
  done;
  cl.sequence <- Buffer.contents seq;
  Option.iter
    (fun cn ->
      (try ignore (request cn "QUIT")
       with End_of_file | Unix.Unix_error _ -> ());
      close cn)
    !c

(* ---- the workload ---- *)

let get kvs name = Option.value ~default:0. (List.assoc_opt name kvs)

(* Writes the dataset and the batch for the server, and computes the
   reference digests of both store states on an in-process replica of the
   server's load.  With [trace] it also times the server's warm-up. *)
let prepare ~work ~seed ~trace =
  let data = Filename.concat work "data.nt" in
  let batch_file = Filename.concat work "batch.nt" in
  Rdf.Ntriples.save_file data (dataset ());
  let batch = write_batch seed in
  Out_channel.with_open_bin batch_file (fun oc ->
      List.iter
        (fun t -> output_string oc (Rdf.Ntriples.line_of_triple t ^ "\n"))
        batch);
  let t0 = now_ms () in
  let store =
    Es.of_graph
      (Rdf.Graph.make Workloads.Lubm.schema
         (Rdf.Graph.fact_list (Rdf.Ntriples.load_file data)))
  in
  let load_ms = now_ms () -. t0 in
  let warm_up_ms =
    if trace then begin
      let sys = Rqa.Answering.make store in
      let t0 = now_ms () in
      Rqa.Answering.warm_up sys (List.map snd Workloads.Lubm.queries);
      now_ms () -. t0
    end
    else 0.
  in
  let before = reference_digests store in
  ignore (Es.insert_triples store batch);
  let after = reference_digests store in
  (data, batch_file, [| before; after |], load_ms, warm_up_ms)

let run ~exe ~work ~seed ~seconds ~trace ~boots ~requests =
  let data, batch_file, digests, load_ms, warm_up_ms =
    prepare ~work ~seed ~trace
  in
  let vacuous = digests.(0) = digests.(1) in
  if vacuous then log "the write batch changes no template's answer";
  Gc.compact ();
  (* [boots] boots, one at a time; the last server is the measured one *)
  let servers =
    Array.init boots (fun k ->
        let s = spawn ~exe ~work ~data k in
        if k < boots - 1 then stop_process s.pid;
        s)
  in
  let setup_s = median (Array.map (fun s -> s.boot_s) servers) in
  let server = servers.(boots - 1) in
  Fun.protect ~finally:(fun () -> stop_process server.pid) @@ fun () ->
  let ph = { port = server.port; seed; batch_file; digests } in
  let admin = connect ph.port in
  let heap_mb =
    get (prom admin) "rdfqa_gc_heap_words"
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.
  in
  (* the unmeasured pass: fills the answer tier, checks every template *)
  let fill_mismatches = ref 0 in
  Array.iteri
    (fun i (_, text) ->
      let r = request admin ("QUERY " ^ text) in
      if (not (ok r)) || payload_digest admin r <> digests.(0).(i) then
        incr fill_mismatches)
    templates;
  let prom0 = prom admin and stats0 = stats admin in
  let cl = client () in
  let t_start = now_ms () in
  drive ph ~until:(t_start +. (seconds *. 1000.)) ~count:requests ~trace cl;
  let window_s = (now_ms () -. t_start) /. 1000. in
  let prom1 = prom admin and stats1 = stats admin in
  let pdelta name = get prom1 name -. get prom0 name in
  let rss = peak_rss_mb (string_of_int server.pid) in
  ignore (request admin "QUIT");
  close admin;
  let lat = Samples.to_array cl.lat in
  let writes = Samples.to_array cl.write_lat in
  log_samples "serve-mixed" ~reads:lat ~writes:(Array.length writes);
  let reads = cl.reads and rows = cl.rows and failed = cl.failed in
  let mismatches = cl.mismatches + !fill_mismatches in
  if mismatches > 0 then log "%d answer mismatches" mismatches;
  log_templates (Array.map Samples.to_array cl.by_template);
  let per_read x = x /. float_of_int (max 1 reads) in
  let ratio tier =
    let h = pdelta ("rdfqa_cache_" ^ tier ^ "_hits_total")
    and m = pdelta ("rdfqa_cache_" ^ tier ^ "_misses_total") in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let ops = pdelta "rdfqa_engine_operations_total" in
  let planning = cl.planning and execution = cl.execution in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("qps", float_of_int reads /. window_s, "1/s");
      ("p50_ms", median lat, "ms");
      ("p98_ms", quantile lat tail, "ms");
      ("peak_rss_mb", rss, "MB");
    ]
  and per_layer =
    [
      ("write_p50_ms", median writes, "ms");
      ("write_p90_ms", quantile writes 0.9, "ms");
      ("engine.operations", per_read ops, "count");
      ("engine.statements", per_read (pdelta "rdfqa_engine_statements_total"), "count");
      ("engine.ops_per_row", (if rows = 0 then 0. else ops /. float_of_int rows), "count");
      ( "reformulation.calls",
        per_read
          (pdelta "rdfqa_cache_reformulation_hits_total"
          +. pdelta "rdfqa_cache_reformulation_misses_total"),
        "count" );
      ("server.planning_ms", per_read planning, "ms");
      ("server.execution_ms", per_read execution, "ms");
      ("server.overhead_ms", per_read (cl.traced_lat -. planning -. execution), "ms");
      ("wire.rows_per_request", per_read (float_of_int rows), "count");
      ("wire.bytes_per_request", per_read (float_of_int cl.bytes), "B");
      ("cache.answer.hit_ratio", ratio "answer", "ratio");
      ("cache.cover.hit_ratio", ratio "cover", "ratio");
      ("cache.reformulation.hit_ratio", ratio "reformulation", "ratio");
      ("store.inserts", pdelta "rdfqa_store_inserts_total", "count");
      ("store.deletes", pdelta "rdfqa_store_deletes_total", "count");
      ("epoch.reads", get stats1 "reads" -. get stats0 "reads", "count");
      ("epoch.writes", get stats1 "writes" -. get stats0 "writes", "count");
      ("setup.load_ms", load_ms, "ms");
      ("setup.warm_up_ms", warm_up_ms, "ms");
      ("setup.heap_mb", heap_mb, "MB");
      ("gc.major_collections", pdelta "rdfqa_gc_major_collections", "count");
      ("gc.minor_collections", pdelta "rdfqa_gc_minor_collections", "count");
      ("error_rate", float_of_int failed /. float_of_int (max 1 cl.attempted), "ratio");
    ]
  in
  {
    correct = mismatches = 0 && not vacuous;
    attempted = cl.attempted;
    failed;
    metrics = (if trace then per_layer else end_to_end);
    counts =
      [
        ("sequence", Digest.to_hex (Digest.string cl.sequence));
        ("engine.operations", Printf.sprintf "%.0f" ops);
        ( "cache.answer",
          Printf.sprintf "%.0f/%.0f"
            (pdelta "rdfqa_cache_answer_hits_total")
            (pdelta "rdfqa_cache_answer_misses_total") );
        ("rows", string_of_int rows);
        ("errors", string_of_int failed);
      ];
  }
