(* Tests for the serving layer: the wire protocol, the epoch coordinator,
   the reader/writer concurrency contract (a qcheck stress test running
   reader domains against a live writer), and a socket-level end-to-end
   exercise of the server itself. *)

let () = Unix.putenv "RDFQA_JOBS_FORCE" "1"

module P = Server.Protocol
module Epoch = Store.Epoch
module Es = Store.Encoded_store
module Bgp = Query.Bgp

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

(* ---- Protocol ---- *)

let roundtrip_requests =
  [
    P.Query { strategy = None; text = "SELECT ?x WHERE { ?x a <C> }" };
    P.Query { strategy = Some "scq"; text = "SELECT ?x WHERE { ?x <p> ?y }" };
    P.Insert "/tmp/extra.nt";
    P.Delete "/tmp/extra.nt";
    P.Stats;
    P.Prom;
    P.Ping;
    P.Quit;
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.request_to_line r) with
      | Ok r' ->
          Alcotest.(check bool)
            ("roundtrip: " ^ P.request_to_line r)
            true (r = r')
      | Error e -> Alcotest.fail ("roundtrip rejected: " ^ e))
    roundtrip_requests

let test_protocol_errors () =
  let rejected line =
    match P.parse_request line with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty line" true (rejected "");
  Alcotest.(check bool) "unknown verb" true (rejected "FROB x");
  Alcotest.(check bool) "unknown strategy" true (rejected "QUERY/bogus q");
  Alcotest.(check bool) "missing query text" true (rejected "QUERY");
  Alcotest.(check bool) "missing path" true (rejected "INSERT")

let test_protocol_escape () =
  let tricky = "a\tb\\c\nd\re." in
  Alcotest.(check string) "escape roundtrip" tricky
    (P.unescape (P.escape tricky));
  Alcotest.(check bool) "escaped is one line" false
    (String.contains (P.escape tricky) '\n');
  let plain = "<http://example.org/x>" in
  Alcotest.(check string) "identity on plain terms" plain (P.escape plain)

let test_protocol_rows () =
  let row = [ "<a>"; "b\tc"; ""; "\"lit\\eral\"" ] in
  Alcotest.(check (list string)) "row roundtrip" row
    (P.decode_row (P.encode_row row));
  Alcotest.(check bool) "encoded row is one line" false
    (String.contains (P.encode_row row) '\n')

let test_protocol_stuffing () =
  Alcotest.(check string) "terminator" "." P.terminator;
  Alcotest.(check string) "lone dot stuffed" ".." (P.stuff ".");
  Alcotest.(check string) "dot prefix stuffed" "..x" (P.stuff ".x");
  Alcotest.(check string) "plain line untouched" "x.y" (P.stuff "x.y");
  List.iter
    (fun l -> Alcotest.(check string) ("unstuff " ^ l) l (P.unstuff (P.stuff l)))
    [ "."; ".x"; ".."; "x"; "" ]

(* The streaming writers put on a channel exactly the bytes of the string
   codec: [stuff (encode_row _)] per row, [stuff] per line. *)
let test_protocol_writers () =
  let path = Filename.temp_file "rdfqa_wire" ".txt" in
  let rows = [ [ ".a"; "b\tc" ]; [ "x"; ".y"; "" ]; []; [ "\\\r\n" ] ] in
  let lines = [ "."; ".x"; "plain"; "" ] in
  let oc = open_out_bin path in
  List.iter
    (fun row ->
      let fields = Array.of_list (List.map P.escape row) in
      P.output_row oc (Array.length fields) (Array.get fields))
    rows;
  List.iter (P.output_line oc) lines;
  P.output_terminator oc;
  close_out oc;
  let got = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let expected =
    String.concat ""
      (List.map (fun r -> P.stuff (P.encode_row r) ^ "\n") rows
      @ List.map (fun l -> P.stuff l ^ "\n") lines
      @ [ P.terminator ^ "\n" ])
  in
  Alcotest.(check string) "streamed bytes = string codec" expected got

(* ---- Epoch: sequential semantics ---- *)

let test_epoch_fresh () =
  let ep = Epoch.create () in
  Alcotest.(check int) "epoch 0" 0 (Epoch.epoch ep);
  Alcotest.(check int) "no reads" 0 (Epoch.reads ep);
  Alcotest.(check int) "no writes" 0 (Epoch.writes ep);
  Alcotest.(check int) "no readers" 0 (Epoch.active_readers ep);
  Alcotest.(check int) "no waiting writers" 0 (Epoch.waiting_writers ep)

let test_epoch_read_pins () =
  let ep = Epoch.create () in
  let pinned = Epoch.read ep (fun e -> e) in
  Alcotest.(check int) "pins current epoch" 0 pinned;
  Alcotest.(check int) "read counted" 1 (Epoch.reads ep);
  ignore (Epoch.write ep (fun () -> ()));
  Alcotest.(check int) "write bumps epoch" 1 (Epoch.epoch ep);
  Alcotest.(check int) "pins bumped epoch" 1 (Epoch.read ep (fun e -> e));
  Alcotest.(check int) "writes counted" 1 (Epoch.writes ep)

let test_epoch_exception_safety () =
  let ep = Epoch.create () in
  (try Epoch.read ep (fun _ -> failwith "reader") with Failure _ -> ());
  Alcotest.(check int) "reader slot released" 0 (Epoch.active_readers ep);
  (try Epoch.write ep (fun () -> failwith "writer") with Failure _ -> ());
  (* the failed write still bumped the epoch (the mutation may have been
     partial; conservative is safe) and released writer exclusion *)
  Alcotest.(check int) "writer exclusion released" 1
    (Epoch.read ep (fun e -> e));
  ignore (Epoch.write ep (fun () -> ()));
  Alcotest.(check int) "subsequent write fine" 2 (Epoch.epoch ep)

(* ---- Epoch: threaded drain and writer preference ---- *)

let test_epoch_write_drains_readers () =
  let ep = Epoch.create () in
  let entered = Atomic.make false in
  let reader =
    Thread.create
      (fun () ->
        Epoch.read ep (fun _ ->
            Atomic.set entered true;
            Thread.delay 0.2))
      ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.005
  done;
  let active_in_write =
    Epoch.write ep (fun () -> Epoch.active_readers ep)
  in
  Thread.join reader;
  Alcotest.(check int) "no reader under the write section" 0 active_in_write

let test_epoch_writer_preference () =
  let ep = Epoch.create () in
  let entered = Atomic.make false in
  let log = ref [] in
  let m = Mutex.create () in
  let push x =
    Mutex.lock m;
    log := x :: !log;
    Mutex.unlock m
  in
  let long_reader =
    Thread.create
      (fun () ->
        Epoch.read ep (fun _ ->
            Atomic.set entered true;
            Thread.delay 0.2))
      ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.005
  done;
  let writer = Thread.create (fun () -> Epoch.write ep (fun () -> push "w")) () in
  while Epoch.waiting_writers ep = 0 do
    Thread.delay 0.005
  done;
  (* this read arrives while a writer is waiting: it must be held back
     until after the write, even though a reader is currently active *)
  let late_reader = Thread.create (fun () -> Epoch.read ep (fun _ -> push "r")) () in
  Thread.join long_reader;
  Thread.join writer;
  Thread.join late_reader;
  Alcotest.(check (list string)) "writer admitted before late reader"
    [ "r"; "w" ] !log

(* ---- Stress fixture: a small store with a reformulation-active schema ---- *)

let stress_schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "A", u "B");
      Rdf.Schema.Subproperty (u "p", u "q");
      Rdf.Schema.Domain (u "p", u "A");
    ]

let stress_pool =
  Array.of_list
    (List.concat
       (List.init 8 (fun i ->
            let x = u (Printf.sprintf "x%d" i)
            and y = u (Printf.sprintf "y%d" i) in
            [ tr x typ (u "A"); tr x (u "p") y; tr x (u "q") y ])))

let stress_store () =
  let s = Es.create stress_schema in
  Array.iter (Es.insert s) stress_pool;
  s

let q_class = Bgp.make [ v "s" ] [ Bgp.atom (v "s") (c typ) (c (u "B")) ]

let q_prop =
  Bgp.make [ v "s"; v "o" ] [ Bgp.atom (v "s") (c (u "q")) (v "o") ]

(* Order-sensitive fingerprint of the full fact table.  Within one epoch
   nothing moves, so a pinned reader must reproduce the writer's recorded
   value exactly; a torn read (a swap-remove observed halfway) almost
   surely breaks it. *)
let fingerprint store =
  let n = Es.size store in
  let h = ref (n * 0x9e3779b9) in
  for i = 0 to n - 1 do
    h := (!h * 131) + Es.subject store i;
    h := (!h * 131) + Es.property store i;
    h := (!h * 131) + Es.obj store i
  done;
  !h

(* ---- qcheck: reader domains vs a live writer ----

   The satellite contract: under random insert/delete interleavings every
   reader sees a store state bit-identical to some version-counter prefix
   (no torn reads), and the cache tiers never serve a stale epoch.  The
   writer records a fingerprint per data version inside its write section;
   each reader, inside a read section, requires the fingerprint of the
   version it observes to match the recorded one, and requires a
   shared-cache system and a cache-off system to agree on answers over the
   pinned state. *)

let stress_once ops =
  let store = stress_store () in
  let ep = Epoch.create () in
  let shared_cache = Cache.create ~mode:Cache.On store in
  let make_pair () =
    let sys_c = Rqa.Answering.make ~cache:shared_cache store in
    let sys_p = Rqa.Answering.make store in
    Cache.set_mode (Rqa.Answering.cache sys_p) Cache.Off;
    (* warm up in the main thread, before any concurrency: afterwards no
       request can grow the dictionary *)
    Rqa.Answering.warm_up sys_c [ q_class; q_prop ];
    Rqa.Answering.warm_up sys_p [ q_class; q_prop ];
    (sys_c, sys_p)
  in
  let pairs = [| make_pair (); make_pair () |] in
  let recorded = Hashtbl.create 64 in
  let rec_m = Mutex.create () in
  let record () =
    Mutex.lock rec_m;
    Hashtbl.replace recorded (Es.data_version store) (fingerprint store);
    Mutex.unlock rec_m
  in
  record ();
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let fail msg =
    Atomic.set failure (Some msg);
    Atomic.set stop true
  in
  let started = Atomic.make 0 in
  let reader (sys_c, sys_p) =
    let iters = ref 0 in
    let running = ref true in
    while !running do
      incr iters;
      Epoch.read ep (fun _pinned ->
          let dv = Es.data_version store in
          let fp = fingerprint store in
          (Mutex.lock rec_m;
           let expect = Hashtbl.find_opt recorded dv in
           Mutex.unlock rec_m;
           match expect with
           | Some fp' when fp' = fp -> ()
           | Some _ ->
               fail (Printf.sprintf "torn read: fingerprint mismatch at dv %d" dv)
           | None ->
               fail (Printf.sprintf "unrecorded data version %d observed" dv));
          let check q =
            let a = Rqa.Answering.answer_terms sys_c Rqa.Answering.Scq q in
            let b = Rqa.Answering.answer_terms sys_p Rqa.Answering.Scq q in
            if a <> b then fail "cache served a stale epoch"
          in
          check q_class;
          check q_prop);
      if !iters = 1 then Atomic.incr started;
      if Atomic.get stop || !iters >= 5000 then running := false
    done
  in
  let domains =
    Array.map (fun pair -> Domain.spawn (fun () -> reader pair)) pairs
  in
  (* wait for every reader to complete a first section, so the writes
     below genuinely interleave with live readers *)
  while Atomic.get started < Array.length pairs && Atomic.get failure = None do
    Thread.delay 0.001
  done;
  List.iter
    (fun i ->
      let t = stress_pool.(i mod Array.length stress_pool) in
      Epoch.write ep (fun () ->
          (* toggle: every op is an effective change, so each data version
             denotes exactly one store state *)
          if not (Es.delete store t) then Es.insert store t;
          record ()))
    ops;
  Atomic.set stop true;
  Array.iter Domain.join domains;
  (match Atomic.get failure with
  | Some msg -> Alcotest.fail msg
  | None -> ());
  Alcotest.(check int) "every write completed" (List.length ops)
    (Epoch.writes ep);
  Alcotest.(check bool) "readers made progress" true (Epoch.reads ep > 0);
  true

let prop_no_torn_reads =
  QCheck2.Test.make ~count:6
    ~name:"reader domains see per-version snapshots; caches never stale"
    QCheck2.Gen.(list_size (int_range 8 24) (int_bound 23))
    stress_once

(* ---- Socket end-to-end ---- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let read_response ic =
  let status = input_line ic in
  let rec rows acc =
    let l = input_line ic in
    if l = P.terminator then List.rev acc else rows (P.unstuff l :: acc)
  in
  (status, rows [])

let request (ic, oc) line =
  send oc line;
  read_response ic

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let sorted_rows rows = List.sort compare (List.map P.decode_row rows)

let expected_rows sys strategy q =
  List.sort compare
    (List.map
       (List.map Rdf.Term.to_string)
       (Rqa.Answering.answer_terms sys strategy q))

let q_class_text = "SELECT ?s WHERE { ?s a <B> }"

let with_server ?budget ?(cache_mode = Cache.On) ?(warm = [ q_class; q_prop ])
    store f =
  let config =
    {
      Server.default_config with
      strategy = Rqa.Answering.Scq;
      budget;
      cache_mode;
      warm;
    }
  in
  let srv = Server.start config store in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let test_server_end_to_end () =
  let store = stress_store () in
  (* an identical, independent store gives the single-shot reference *)
  let ref_sys = Rqa.Answering.make (stress_store ()) in
  Rqa.Answering.warm_up ref_sys [ q_class ];
  let expected = expected_rows ref_sys Rqa.Answering.Scq q_class in
  with_server store @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ch = (ic, oc) in
  (* liveness and error paths *)
  let status, rows = request ch "PING" in
  Alcotest.(check string) "ping" "OK pong" status;
  Alcotest.(check int) "ping payload empty" 0 (List.length rows);
  let status, _ = request ch "FROB" in
  Alcotest.(check bool) "unknown verb is ERR" true (has_prefix ~prefix:"ERR" status);
  let status, _ = request ch "QUERY SELECT ?s WHERE {" in
  Alcotest.(check bool) "syntax error is ERR" true (has_prefix ~prefix:"ERR" status);
  (* a read, checked bit-identical against the single-shot reference *)
  let status, rows = request ch ("QUERY " ^ q_class_text) in
  Alcotest.(check bool) "query ok" true (has_prefix ~prefix:"OK rows=" status);
  Alcotest.(check (list (list string))) "rows = single-shot" expected
    (sorted_rows rows);
  (* per-request strategy override agrees *)
  let status, rows = request ch ("QUERY/ucq " ^ q_class_text) in
  Alcotest.(check bool) "override ok" true (has_prefix ~prefix:"OK rows=" status);
  Alcotest.(check (list (list string))) "ucq override rows agree" expected
    (sorted_rows rows);
  (* insert / delete cycle through a server-side file *)
  let extra = tr (u "x8") typ (u "A") in
  let file = Filename.temp_file "rdfqa_serve" ".nt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let out = open_out file in
  output_string out (Rdf.Ntriples.line_of_triple extra ^ "\n");
  close_out out;
  let status, _ = request ch ("INSERT " ^ file) in
  Alcotest.(check bool) "insert ok" true
    (has_prefix ~prefix:"OK schema=0 data=1" status);
  let _, rows = request ch ("QUERY " ^ q_class_text) in
  Alcotest.(check int) "insert visible" (List.length expected + 1)
    (List.length rows);
  let status, _ = request ch ("DELETE " ^ file) in
  Alcotest.(check bool) "delete ok" true
    (has_prefix ~prefix:"OK schema=0 data=1" status);
  let _, rows = request ch ("QUERY " ^ q_class_text) in
  Alcotest.(check (list (list string))) "delete restores answers" expected
    (sorted_rows rows);
  (* stats and shutdown *)
  let status, rows = request ch "STATS" in
  Alcotest.(check bool) "stats ok" true (has_prefix ~prefix:"OK" status);
  Alcotest.(check bool) "stats reports the epoch" true
    (List.exists (has_prefix ~prefix:"epoch=") rows);
  let status, _ = request ch "PROM" in
  Alcotest.(check bool) "prom ok" true (has_prefix ~prefix:"OK" status);
  let status, _ = request ch "QUIT" in
  Alcotest.(check string) "quit" "OK bye" status;
  Alcotest.(check bool) "requests counted" true (Server.requests_served srv > 0)

(* A schema write through the server: the subclass triple is applied
   under the write section (with its re-warm), and every later read agrees
   with a fresh single-shot system over a store holding the same triples. *)
let test_server_schema_write () =
  let triples =
    [
      tr (u "D") Rdf.Vocab.rdfs_subclassof (u "B");
      tr (u "z0") typ (u "D");
    ]
  in
  let before =
    expected_rows (Rqa.Answering.make (stress_store ())) Rqa.Answering.Scq
      q_class
  in
  let ref_store = stress_store () in
  ignore (Es.insert_triples ref_store triples);
  let ref_sys = Rqa.Answering.make ref_store in
  Rqa.Answering.warm_up ref_sys [ q_class; q_prop ];
  let store = stress_store () in
  with_server store @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ch = (ic, oc) in
  let file = Filename.temp_file "rdfqa_schema" ".nt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let out = open_out file in
  List.iter
    (fun t -> output_string out (Rdf.Ntriples.line_of_triple t ^ "\n"))
    triples;
  close_out out;
  let status, _ = request ch ("INSERT " ^ file) in
  Alcotest.(check bool) ("schema insert ok: " ^ status) true
    (has_prefix ~prefix:"OK schema=1 data=1" status);
  List.iter
    (fun (verb, strategy) ->
      let expected = expected_rows ref_sys strategy q_class in
      let status, rows = request ch (verb ^ " " ^ q_class_text) in
      Alcotest.(check bool) (verb ^ " ok") true
        (has_prefix ~prefix:"OK rows=" status);
      Alcotest.(check (list (list string))) (verb ^ " rows = single-shot")
        expected (sorted_rows rows))
    [
      ("QUERY", Rqa.Answering.Scq);
      ("QUERY/gcov", Rqa.Answering.Gcov);
      ("QUERY/ucq", Rqa.Answering.Ucq);
      ("QUERY", Rqa.Answering.Scq);
    ];
  Alcotest.(check bool) "the write changed the answers" false
    (before = expected_rows ref_sys Rqa.Answering.Scq q_class);
  ignore (request ch "QUIT")

let test_server_concurrent_clients () =
  let store = stress_store () in
  let ref_sys = Rqa.Answering.make (stress_store ()) in
  Rqa.Answering.warm_up ref_sys [ q_class ];
  let expected = expected_rows ref_sys Rqa.Answering.Scq q_class in
  with_server store @@ fun srv ->
  let port = Server.port srv in
  let n_clients = 4 and n_requests = 5 in
  let results = Array.make n_clients [] in
  let client i =
    let fd, ic, oc = connect port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let acc = ref [] in
        for _ = 1 to n_requests do
          let status, rows = request (ic, oc) ("QUERY " ^ q_class_text) in
          acc := (has_prefix ~prefix:"OK" status, sorted_rows rows) :: !acc
        done;
        ignore (request (ic, oc) "QUIT");
        results.(i) <- !acc)
  in
  let threads = Array.init n_clients (fun i -> Thread.create client i) in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i res ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed" i)
        n_requests (List.length res);
      List.iter
        (fun (ok, rows) ->
          Alcotest.(check bool) "status OK" true ok;
          Alcotest.(check (list (list string))) "rows identical" expected rows)
        res)
    results

let test_server_admission_reject () =
  let store = stress_store () in
  with_server ~budget:0 store @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let status, rows = request (ic, oc) ("QUERY " ^ q_class_text) in
  Alcotest.(check bool) "rejected under zero budget" true
    (has_prefix ~prefix:"ERR rejected" status);
  Alcotest.(check int) "no rows leak past the gate" 0 (List.length rows);
  ignore (request (ic, oc) "QUIT")

(* Payload bytes: the rows of a read, every field rendered through
   [Protocol.escape], must equal the reference rendering of
   [Executor.decode] byte for byte — literals carrying the protocol's
   separators (tab, newline, CR, backslash) and a blank node included.
   Inserting IRIs that sort before every existing term then grows both
   the dictionary's ranks and the server's wire table. *)
let wire_triples =
  let lit = Rdf.Term.literal and w = u "w" in
  [
    tr (u "s1") w (lit "tab\there");
    tr (u "s2") w (lit "new\nline");
    tr (u "s3") w (lit "cr\rhere");
    tr (u "s4") w (lit "back\\slash");
    tr (u "s1") w (Rdf.Term.bnode "b0");
    tr (u "s4") w (u "s1");
  ]

let wire_store () =
  let s = Es.create stress_schema in
  ignore (Es.insert_triples s wire_triples);
  s

let read_raw ic =
  let status = input_line ic in
  let rec lines acc =
    let l = input_line ic in
    if l = P.terminator then List.rev acc else lines (l :: acc)
  in
  (status, lines [])

let test_server_wire_bytes () =
  let ref_store = wire_store () in
  let ref_sys = Rqa.Answering.make ref_store in
  let texts =
    [ "SELECT ?s ?o WHERE { ?s <w> ?o }"; "SELECT ?o WHERE { ?s <w> ?o }" ]
  in
  with_server ~warm:[] (wire_store ()) @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let check label =
    List.map
      (fun text ->
        let q = Bgp.normalize (Query.Sparql.parse text) in
        let want =
          List.map
            (fun row -> P.stuff (P.encode_row (List.map Rdf.Term.to_string row)))
            (Rqa.Answering.answer_terms ref_sys Rqa.Answering.Scq q)
        in
        send oc ("QUERY " ^ text);
        let status, got = read_raw ic in
        Alcotest.(check bool) (label ^ ": rows= " ^ status) true
          (has_prefix
             ~prefix:(Printf.sprintf "OK rows=%d " (List.length want))
             status);
        Alcotest.(check (list string)) (label ^ ": payload bytes") want got;
        got)
      texts
  in
  let got = check "initial" in
  Alcotest.(check bool) "separators escaped on the wire" true
    (List.mem "<s2>\t\"new\\nline\"" (List.hd got)
    && List.mem "<s1>\t_:b0" (List.hd got));
  ignore (check "wire table reused");
  let extra =
    [
      tr (u "0a") (u "w") (u "0b");
      tr (u "0b") (u "w") (Rdf.Term.literal "0");
      tr (u "s2") (u "w") (u "0a");
    ]
  in
  ignore (Es.insert_triples ref_store extra);
  let file = Filename.temp_file "rdfqa_wire" ".nt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let out = open_out file in
  List.iter
    (fun t -> output_string out (Rdf.Ntriples.line_of_triple t ^ "\n"))
    extra;
  close_out out;
  let status, _ = request (ic, oc) ("INSERT " ^ file) in
  Alcotest.(check bool) ("insert ok: " ^ status) true
    (has_prefix ~prefix:"OK schema=0 data=3" status);
  ignore (check "after insert");
  ignore (request (ic, oc) "QUIT")

(* An answer-tier hit replays the order its miss computed: in process the
   hit returns the very array, and over the wire the two responses carry
   the same rows, the same bytes, and the same status apart from the
   timings. *)
let test_server_hit_bytes () =
  let text = "SELECT ?s ?o WHERE { ?s <w> ?o }" in
  let store = wire_store () in
  let sys =
    Rqa.Answering.make ~cache:(Cache.create ~mode:Cache.On store) store
  in
  let q = Bgp.normalize (Query.Sparql.parse text) in
  let miss = Rqa.Answering.answer sys Rqa.Answering.Scq q in
  let order = Rqa.Answering.order sys miss in
  let hit = Rqa.Answering.answer sys Rqa.Answering.Scq q in
  Alcotest.(check bool) "a hit reuses its miss's order array" true
    (Rqa.Answering.order sys hit == order);
  with_server ~cache_mode:Cache.On ~warm:[] (wire_store ()) @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let answers_line () =
    let _, rows = request (ic, oc) "STATS" in
    List.find (has_prefix ~prefix:"cache=") rows
  in
  let read () =
    send oc ("QUERY " ^ text);
    let status, rows = read_raw ic in
    let untimed =
      List.filter
        (fun f ->
          not
            (has_prefix ~prefix:"planning_ms=" f
            || has_prefix ~prefix:"execution_ms=" f))
        (String.split_on_char ' ' status)
    in
    (String.concat " " untimed, rows)
  in
  let miss = read () in
  let before = answers_line () in
  let hit = read () in
  let after = answers_line () in
  Alcotest.(check bool) ("the repeat is an answer-tier hit: " ^ after) true
    (contains before "answers 0/1 hits" && contains after "answers 1/2 hits");
  Alcotest.(check (pair string (list string))) "hit = miss, byte for byte"
    miss hit;
  ignore (request (ic, oc) "QUIT")

let check_bytes label store estimate =
  let walked = Obj.reachable_words (Obj.repr store) * (Sys.word_size / 8) in
  let ratio = float_of_int estimate /. float_of_int walked in
  Alcotest.(check bool)
    (Printf.sprintf "%s: estimate %d B vs reachable %d B (%.2fx)" label
       estimate walked ratio)
    true
    (ratio >= 0.5 && ratio <= 2.0)

(* Store gauges are sampled at scrape time: after a data insert, a data
   delete and a schema write, PROM's store and epoch gauges equal STATS'
   fields, and the O(1) byte estimate stays within a factor of two of the
   heap the store reaches. *)
let test_server_sampled_gauges () =
  let store = Workloads.Lubm.generate { Workloads.Lubm.universities = 1 } in
  let ub local = u (Workloads.Lubm.ns ^ local) in
  let batch =
    [
      tr (u "g0") typ (ub "GraduateStudent");
      tr (u "g0") (ub "memberOf") (u "d0");
    ]
  and schema = [ tr (u "V") Rdf.Vocab.rdfs_subclassof (ub "Person") ] in
  let file triples =
    let f = Filename.temp_file "rdfqa_gauges" ".nt" in
    let out = open_out f in
    List.iter
      (fun t -> output_string out (Rdf.Ntriples.line_of_triple t ^ "\n"))
      triples;
    close_out out;
    f
  in
  let data_file = file batch and schema_file = file schema in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ data_file; schema_file ])
  @@ fun () ->
  with_server ~warm:[] store @@ fun srv ->
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ch = (ic, oc) in
  let value ~sep rows key =
    let prefix = key ^ sep in
    match List.find_opt (has_prefix ~prefix) rows with
    | Some l ->
        let n = String.length prefix in
        int_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "%s missing" key
  in
  let check label =
    let _, stats = request ch "STATS" in
    let _, prom = request ch "PROM" in
    List.iter
      (fun (gauge, field) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s = STATS %s" label gauge field)
          (value ~sep:"=" stats field)
          (value ~sep:" " prom gauge))
      [
        ("rdfqa_store_triples", "triples");
        ("rdfqa_store_data_version", "data_version");
        ("rdfqa_store_schema_version", "schema_version");
        ("rdfqa_server_epoch", "epoch");
      ];
    check_bytes label store (value ~sep:" " prom "rdfqa_store_bytes")
  in
  check "boot";
  List.iter
    (fun (verb, f, want) ->
      let status, _ = request ch (verb ^ " " ^ f) in
      Alcotest.(check bool) (verb ^ " applied: " ^ status) true
        (has_prefix ~prefix:want status);
      check (verb ^ " " ^ Filename.basename f))
    [
      ("INSERT", data_file, "OK schema=0 data=2");
      ("DELETE", data_file, "OK schema=0 data=2");
      ("INSERT", schema_file, "OK schema=1 data=0");
    ];
  ignore (request ch "QUIT");
  (* the same bound on a tiny store, where initial capacities dominate *)
  let small = stress_store () in
  check_bytes "small store" small (Es.approx_bytes small)

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t) [ prop_no_torn_reads ]

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed requests" `Quick test_protocol_errors;
          Alcotest.test_case "escape/unescape" `Quick test_protocol_escape;
          Alcotest.test_case "row codec" `Quick test_protocol_rows;
          Alcotest.test_case "dot stuffing" `Quick test_protocol_stuffing;
          Alcotest.test_case "streaming writers" `Quick test_protocol_writers;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "fresh coordinator" `Quick test_epoch_fresh;
          Alcotest.test_case "read pins, write bumps" `Quick test_epoch_read_pins;
          Alcotest.test_case "exception safety" `Quick test_epoch_exception_safety;
          Alcotest.test_case "write drains readers" `Quick
            test_epoch_write_drains_readers;
          Alcotest.test_case "writer preference" `Quick
            test_epoch_writer_preference;
        ] );
      ("stress", qcheck_cases);
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "admission gate" `Quick test_server_admission_reject;
          Alcotest.test_case "schema write" `Quick test_server_schema_write;
          Alcotest.test_case "payload bytes" `Quick test_server_wire_bytes;
          Alcotest.test_case "answer-tier hit bytes" `Quick
            test_server_hit_bytes;
          Alcotest.test_case "sampled store gauges" `Quick
            test_server_sampled_gauges;
        ] );
    ]
